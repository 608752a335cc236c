// Serving-layer tests: the byte-identity anchor (served scores ==
// offline batch scores at every shard/thread configuration, including
// across a model hot-swap), the versioned artefact round-trips, and the
// store/batcher/registry unit semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/scoring_kernel.hpp"
#include "core/ticket_predictor.hpp"
#include "core/trouble_locator.hpp"
#include "serve/line_state_store.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"
#include "util/calendar.hpp"
#include "exported_line_eq.hpp"

namespace nevermind::serve {
namespace {

constexpr int kWeek = 43;

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dslsim::SimConfig cfg;
    cfg.seed = 31;
    cfg.topology.n_lines = 2500;
    data_ = new dslsim::SimDataset(dslsim::Simulator(cfg).run());

    core::PredictorConfig pcfg;
    pcfg.top_n = 25;
    pcfg.boost_iterations = 60;
    predictor_ = new core::TicketPredictor(pcfg);
    predictor_->train(*data_, 30, 38);
    batch_ = new std::vector<core::Prediction>(
        predictor_->predict_week(*data_, kWeek));
  }
  static void TearDownTestSuite() {
    delete batch_;
    delete predictor_;
    delete data_;
    batch_ = nullptr;
    predictor_ = nullptr;
    data_ = nullptr;
  }

  /// Replay through kWeek at the given sharding/threading and return
  /// the full served ranking.
  static std::vector<ServeScore> replay_and_rank(std::size_t shards,
                                                 std::size_t threads,
                                                 bool swap_mid_stream) {
    const exec::ExecContext exec =
        threads > 1 ? exec::ExecContext(threads) : exec::ExecContext();
    LineStateStore store(shards);
    ModelRegistry registry;
    registry.publish(predictor_->kernel());
    ServiceConfig cfg;
    cfg.exec = exec;
    ScoringService service(store, registry, cfg);
    ReplayDriver replay(*data_, store);
    replay.feed_through(kWeek / 2, exec);
    if (swap_mid_stream) registry.publish(predictor_->kernel());
    replay.feed_through(kWeek, exec);
    return service.top_n(data_->n_lines());
  }

  static void expect_identical(const std::vector<ServeScore>& served) {
    ASSERT_EQ(served.size(), batch_->size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      ASSERT_TRUE(served[i].valid);
      ASSERT_EQ(served[i].week, kWeek);
      // EQ, not NEAR: the served path must reproduce the batch path's
      // bits, not approximate them.
      ASSERT_EQ(served[i].line, (*batch_)[i].line) << "rank " << i;
      ASSERT_EQ(served[i].score, (*batch_)[i].score) << "rank " << i;
      ASSERT_EQ(served[i].probability, (*batch_)[i].probability)
          << "rank " << i;
    }
  }

  static const dslsim::SimDataset* data_;
  static core::TicketPredictor* predictor_;
  static std::vector<core::Prediction>* batch_;
};

const dslsim::SimDataset* ServeTest::data_ = nullptr;
core::TicketPredictor* ServeTest::predictor_ = nullptr;
std::vector<core::Prediction>* ServeTest::batch_ = nullptr;

TEST_F(ServeTest, ServedRankingIsByteIdenticalAtEveryConfiguration) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_identical(replay_and_rank(shards, threads, false));
    }
  }
}

TEST_F(ServeTest, HotSwapMidReplayPreservesByteIdentity) {
  const auto served = replay_and_rank(4, 8, true);
  expect_identical(served);
  // The republished bundle's version is what answered the queries.
  EXPECT_EQ(served.front().model_version, 2U);
}

TEST_F(ServeTest, PointQueryMatchesRankedEntry) {
  LineStateStore store(4);
  ModelRegistry registry;
  registry.publish(predictor_->kernel());
  ScoringService service(store, registry);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);

  for (std::size_t i = 0; i < batch_->size(); i += 311) {
    const auto s = service.score((*batch_)[i].line);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.score, (*batch_)[i].score);
    EXPECT_EQ(s.probability, (*batch_)[i].probability);
  }
}

TEST_F(ServeTest, TopNTruncatesTheFullRanking) {
  LineStateStore store(4);
  ModelRegistry registry;
  registry.publish(predictor_->kernel());
  ScoringService service(store, registry);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);

  const auto top10 = service.top_n(10);
  ASSERT_EQ(top10.size(), 10U);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(top10[i].line, (*batch_)[i].line);
    EXPECT_EQ(top10[i].score, (*batch_)[i].score);
  }
}

TEST_F(ServeTest, KernelArtifactRoundTripsBitExactly) {
  std::stringstream ss;
  predictor_->kernel().save(ss);
  std::string error;
  const auto loaded = core::ScoringKernel::load(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  LineStateStore store(4);
  ModelRegistry registry;
  registry.publish(*loaded);  // serve from the *loaded* artefact
  ScoringService service(store, registry);
  ReplayDriver replay(*data_, store);
  replay.feed_through(kWeek);
  expect_identical(service.top_n(data_->n_lines()));
}

TEST_F(ServeTest, KernelLoadDistinguishesVersionMismatchFromCorruption) {
  std::stringstream ss;
  predictor_->kernel().save(ss);
  std::string text = ss.str();

  {
    std::stringstream bad("nmkernel v99" + text.substr(text.find('\n')));
    std::string error;
    EXPECT_FALSE(core::ScoringKernel::load(bad, &error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    EXPECT_NE(error.find("v99"), std::string::npos) << error;
  }
  {
    std::stringstream bad("garbage " + text);
    std::string error;
    EXPECT_FALSE(core::ScoringKernel::load(bad, &error).has_value());
    EXPECT_NE(error.find("nmkernel"), std::string::npos) << error;
  }
  {
    std::stringstream truncated(text.substr(0, text.size() / 2));
    std::string error;
    EXPECT_FALSE(core::ScoringKernel::load(truncated, &error).has_value());
    EXPECT_EQ(error.find("version"), std::string::npos) << error;
  }
}

TEST(ServeLocatorArtifact, RoundTripsAndRanksIdentically) {
  dslsim::SimConfig cfg;
  cfg.seed = 33;
  cfg.topology.n_lines = 1500;
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();

  core::LocatorConfig lcfg;
  lcfg.boost_iterations = 20;
  lcfg.min_occurrences = 5;
  core::TroubleLocator locator(lcfg);
  locator.train(data, 20, 40);
  ASSERT_TRUE(locator.trained());

  std::stringstream ss;
  locator.save(ss);
  std::string error;
  const auto loaded = core::TroubleLocator::load(ss, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->covered().size(), locator.covered().size());

  const auto block = features::encode_at_dispatch(data, 41, 45,
                                                  locator.encoder_config());
  ASSERT_GT(block.dataset.n_rows(), 0U);
  std::vector<float> row(block.dataset.n_cols());
  for (std::size_t j = 0; j < row.size(); ++j) row[j] = block.dataset.at(0, j);
  for (const auto kind :
       {core::LocatorModelKind::kExperience, core::LocatorModelKind::kFlat,
        core::LocatorModelKind::kCombined}) {
    const auto a = locator.rank(row, kind);
    const auto b = loaded->rank(row, kind);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].disposition, b[i].disposition);
      EXPECT_EQ(a[i].probability, b[i].probability);
    }
  }

  std::stringstream bad("nmlocator v7\nrest");
  EXPECT_FALSE(core::TroubleLocator::load(bad, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

// ---- store semantics -------------------------------------------------

dslsim::MetricVector metrics_with_state(float state, float fill) {
  dslsim::MetricVector m;
  m.fill(fill);
  m[0] = state;  // LineMetric::kState
  return m;
}

TEST(LineStateStore, SnapshotBeforeAnyMeasurementIsEmpty) {
  LineStateStore store(4);
  EXPECT_FALSE(store.snapshot(7).has_value());
  EXPECT_EQ(store.n_lines(), 0U);
  // A ticket alone does not make the line scorable.
  store.ingest_ticket(7, 100);
  EXPECT_FALSE(store.snapshot(7).has_value());
  EXPECT_TRUE(store.line_ids().empty());
}

TEST(LineStateStore, IngestFoldsPreviousWeekIntoTheWindow) {
  LineStateStore store(4);
  store.ingest({5, 0, 1, metrics_with_state(1.0F, 10.0F)});
  auto snap = store.snapshot(5);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->week, 0);
  // Week 0 is still "current": nothing folded yet (matches the offline
  // emit-then-update order).
  EXPECT_EQ(snap->window.tests_seen, 0U);
  EXPECT_FALSE(snap->window.has_prev);

  store.ingest({5, 1, 1, metrics_with_state(1.0F, 12.0F)});
  snap = store.snapshot(5);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->week, 1);
  EXPECT_EQ(snap->window.tests_seen, 1U);
  EXPECT_TRUE(snap->window.has_prev);
  EXPECT_EQ(snap->window.prev[3], 10.0F);
  EXPECT_EQ(snap->current[3], 12.0F);
}

TEST(LineStateStore, StaleWeekIsDroppedNotFolded) {
  LineStateStore store(1);
  store.ingest({9, 5, 1, metrics_with_state(1.0F, 1.0F)});
  store.ingest({9, 3, 1, metrics_with_state(1.0F, 99.0F)});  // stale
  const auto snap = store.snapshot(9);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->week, 5);
  EXPECT_EQ(snap->current[3], 1.0F);
  EXPECT_EQ(snap->window.tests_seen, 0U);
}

TEST(LineStateStore, TicketRecencyKeepsTheLatestDay) {
  LineStateStore store(4);
  store.ingest({2, 0, 1, metrics_with_state(1.0F, 0.0F)});
  store.ingest_ticket(2, 50);
  store.ingest_ticket(2, 30);  // older report arriving late
  const auto snap = store.snapshot(2);
  ASSERT_TRUE(snap.has_value());
  ASSERT_TRUE(snap->last_ticket.has_value());
  EXPECT_EQ(*snap->last_ticket, 50);
}

TEST(LineStateStore, LineIdsAscendAcrossShards) {
  LineStateStore store(3);
  for (const dslsim::LineId u : {17U, 3U, 11U, 5U}) {
    for (int w = 0; w < 6; ++w) {
      store.ingest({u, w, 1, metrics_with_state(1.0F, static_cast<float>(w))});
    }
  }
  const auto ids = store.line_ids();
  ASSERT_EQ(ids.size(), 4U);
  EXPECT_EQ(ids, (std::vector<dslsim::LineId>{3, 5, 11, 17}));
  EXPECT_EQ(store.n_lines(), 4U);
  EXPECT_EQ(store.measurements_ingested(), 24U);
}

/// Resident set size of this process from /proc/self/status, in bytes
/// (0 where the file is unavailable).
std::size_t vm_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      std::size_t kb = 0;
      status >> kb;
      return kb * 1024;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

TEST(LineStateStore, SparseAndHostileLineIdsStaySmallAndExact) {
  constexpr dslsim::LineId kMax = 0xFFFFFFFFU;
  constexpr dslsim::LineId kTicketOnly = 123457U;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    LineStateStore store(shards);
    store.ingest({0, 0, 2, metrics_with_state(1.0F, 3.0F)});
    store.ingest({0, 1, 2, metrics_with_state(1.0F, 4.0F)});
    const std::size_t rss_before = vm_rss_bytes();
    store.ingest({kMax, 0, 3, metrics_with_state(1.0F, 7.0F)});
    store.ingest({kMax, 2, 3, metrics_with_state(1.0F, 9.0F)});
    const std::size_t rss_after = vm_rss_bytes();
    // One page and one entry, never a table sized to the id.
    EXPECT_LT(rss_after, rss_before + (std::size_t{4} << 20));
    store.ingest_ticket(kTicketOnly, 40);
    store.ingest_ticket(kMax, 61);

    EXPECT_EQ(store.line_ids(), (std::vector<dslsim::LineId>{0, kMax}));
    EXPECT_EQ(store.n_lines(), 2U);
    EXPECT_FALSE(store.snapshot(kTicketOnly).has_value());
    EXPECT_FALSE(store.snapshot(kMax - 1).has_value());

    const auto first = store.snapshot(0);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->week, 1);
    EXPECT_EQ(first->profile, 2);
    EXPECT_EQ(first->current[3], 4.0F);
    EXPECT_EQ(first->window.tests_seen, 1U);
    EXPECT_EQ(first->window.prev[3], 3.0F);
    EXPECT_FALSE(first->last_ticket.has_value());

    const auto last = store.snapshot(kMax);
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->week, 2);
    EXPECT_EQ(last->profile, 3);
    EXPECT_EQ(last->current[3], 9.0F);
    EXPECT_EQ(last->window.tests_seen, 1U);
    EXPECT_EQ(last->window.prev[3], 7.0F);
    ASSERT_TRUE(last->last_ticket.has_value());
    EXPECT_EQ(*last->last_ticket, 61);

    // Round trip into a store with different sharding, ticket-only
    // line included.
    LineStateStore copy(7);
    for (const dslsim::LineId line : {dslsim::LineId{0}, kMax, kTicketOnly}) {
      const auto exported = store.export_line(line);
      ASSERT_TRUE(exported.has_value()) << line;
      copy.import_line(*exported);
      const auto again = copy.export_line(line);
      ASSERT_TRUE(again.has_value()) << line;
      nevermind::testing::expect_bit_identical(*again, *exported);
    }
    EXPECT_EQ(copy.line_ids(), store.line_ids());
  }
}

// ---- micro-batcher and registry --------------------------------------

TEST(MicroBatcher, RoutesEachResultToItsCaller) {
  MicroBatcher batcher(
      [](std::span<const dslsim::LineId> lines) {
        std::vector<ServeScore> out(lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i) {
          out[i].line = lines[i];
          out[i].score = static_cast<double>(lines[i]) * 2.0;
          out[i].valid = true;
        }
        return out;
      },
      8);
  for (const dslsim::LineId u : {4U, 9U, 1U}) {
    const auto s = batcher.score(u);
    EXPECT_TRUE(s.valid);
    EXPECT_EQ(s.line, u);
    EXPECT_EQ(s.score, static_cast<double>(u) * 2.0);
  }
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, 3U);
  EXPECT_EQ(stats.batches, 3U);  // sequential callers: batches of one
  EXPECT_EQ(stats.batch_size_counts[0], 3U);
}

TEST(MicroBatcher, FollowerDeadlineSurfacesAsTimeoutReason) {
  // An executor that wedges on its first batch until released: the
  // leader (who runs the executor on its own thread) cannot time out,
  // but a follower with a deadline must come back invalid/kTimeout
  // instead of blocking forever.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> leader_entered{false};
  MicroBatcher batcher(
      [&](std::span<const dslsim::LineId> lines) {
        leader_entered.store(true, std::memory_order_release);
        released.wait();
        std::vector<ServeScore> out(lines.size());
        for (std::size_t i = 0; i < lines.size(); ++i) {
          out[i].line = lines[i];
          out[i].valid = true;
        }
        return out;
      },
      8);

  std::thread leader([&] {
    const auto s = batcher.score(1);
    EXPECT_TRUE(s.valid);  // the wedge releases before the leader returns
  });
  while (!leader_entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // The leader is inside the wedged executor, so this caller queues as
  // a follower of the NEXT batch — which can never start — and its
  // deadline must fire.
  const auto t0 = std::chrono::steady_clock::now();
  const auto s = batcher.score(2, std::chrono::milliseconds(50));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(s.valid);
  EXPECT_EQ(s.line, 2U);
  EXPECT_EQ(s.reason, ScoreReason::kTimeout);
  EXPECT_GE(waited, std::chrono::milliseconds(50));

  release.set_value();
  leader.join();
  EXPECT_STREQ(score_reason_name(ScoreReason::kTimeout), "deadline exceeded");
}

TEST_F(ServeTest, ReasonsDistinguishNoModelFromNoMeasurement) {
  LineStateStore store(2);
  store.ingest({1, 0, 1, metrics_with_state(1.0F, 5.0F)});
  ModelRegistry registry;
  ScoringService service(store, registry);

  // Nothing published (an untrained kernel counts as nothing): kNoModel.
  EXPECT_EQ(service.score(1).reason, ScoreReason::kNoModel);

  // Trained model published: the measured line scores kOk, while a
  // line that has never reported a measurement says so.
  registry.publish(predictor_->kernel());
  const auto known = service.score(1);
  EXPECT_TRUE(known.valid);
  EXPECT_EQ(known.reason, ScoreReason::kOk);
  const auto unknown = service.score(9);
  EXPECT_FALSE(unknown.valid);
  EXPECT_EQ(unknown.reason, ScoreReason::kNoMeasurement);
}

TEST(ModelRegistry, VersionsAdvanceAndAcquireIsStable) {
  ModelRegistry registry;
  EXPECT_EQ(registry.current_version(), 0U);
  EXPECT_EQ(registry.acquire(), nullptr);

  EXPECT_EQ(registry.publish(core::ScoringKernel{}), 1U);
  const auto v1 = registry.acquire();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1U);

  EXPECT_EQ(registry.publish(core::ScoringKernel{}), 2U);
  EXPECT_EQ(registry.current_version(), 2U);
  EXPECT_EQ(registry.swap_count(), 2U);
  // The old acquisition still points at its immutable bundle.
  EXPECT_EQ(v1->version, 1U);
}

TEST(ScoringServiceEdge, UnpublishedModelYieldsInvalidScores) {
  LineStateStore store(2);
  store.ingest({1, 0, 1, metrics_with_state(1.0F, 5.0F)});
  ModelRegistry registry;
  ScoringService service(store, registry);
  const auto s = service.score(1);
  EXPECT_FALSE(s.valid);
  EXPECT_EQ(s.line, 1U);
  EXPECT_TRUE(service.top_n(5).empty() || !service.top_n(5).front().valid);
}

}  // namespace
}  // namespace nevermind::serve
