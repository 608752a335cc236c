// The streaming pipeline's identity anchor: every streamed producer or
// consumer must be byte-identical to its materialized counterpart at 1
// and 8 threads — Simulator::stream_weeks vs run()'s measurement table
// (including a correlated infra-fault run), the producer contract every
// chunk consumer enforces, the streamed dataset artefacts vs the
// materialized savers, the full streamed training chain
// (plan_full_encoder + train_from_block) vs train(), and the serving
// replay fed chunk-wise vs week-by-week from a materialized dataset.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ticket_predictor.hpp"
#include "core/trouble_locator.hpp"
#include "features/dataset_io.hpp"
#include "serve/line_state_store.hpp"
#include "serve/replay.hpp"
#include "util/calendar.hpp"

namespace nevermind {
namespace {

constexpr int kTrainFrom = 20;
constexpr int kTrainTo = 27;
constexpr int kLocFrom = 12;
constexpr int kLocTo = 34;
constexpr int kServeWeek = 31;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nm_stream_pipeline_" +
         std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

bool same_week(std::span<const dslsim::MetricVector> a,
               std::span<const dslsim::MetricVector> b) {
  // Bytewise: missing metrics are NaN, which == would treat as unequal.
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     a.size() * sizeof(dslsim::MetricVector)) == 0;
}

dslsim::SimConfig small_config(std::uint32_t lines = 600,
                               std::uint64_t seed = 91) {
  dslsim::SimConfig cfg;
  cfg.seed = seed;
  cfg.topology.n_lines = lines;
  return cfg;
}

features::EncoderConfig base_config() {
  features::EncoderConfig cfg;
  cfg.include_quadratic = false;
  cfg.product_pairs.clear();
  return cfg;
}

// ---------------------------------------------------------------------
// Producer: stream_weeks vs the materialized measurement table.
// ---------------------------------------------------------------------

void expect_chunks_match_run(const dslsim::SimConfig& cfg) {
  const dslsim::Simulator sim(cfg);
  const dslsim::SimDataset reference = sim.run();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const exec::ExecContext exec(threads);
    const dslsim::SimDataset tables = sim.build_tables(exec);
    EXPECT_FALSE(tables.has_measurements());
    int expected_week = 0;
    sim.stream_weeks(tables, exec, [&](const dslsim::WeekChunk& chunk) {
      ASSERT_EQ(chunk.week, expected_week);
      EXPECT_EQ(chunk.day, util::saturday_of_week(chunk.week));
      EXPECT_TRUE(same_week(chunk.measurements,
                            reference.week_measurements(chunk.week)))
          << "week " << chunk.week << " at " << threads << " thread(s)";
      ++expected_week;
    });
    EXPECT_EQ(expected_week, reference.n_weeks());
  }
}

TEST(StreamWeeks, ChunksMatchMaterializedRun) {
  expect_chunks_match_run(small_config());
}

TEST(StreamWeeks, InfraFaultRunMatches) {
  // The PR 9 correlated-fault layer perturbs whole plant subtrees; the
  // week-major streamed sweep must reproduce those metrics too.
  dslsim::SimConfig cfg = small_config(700, 99);
  cfg.infra.dslam_outages_per_dslam_year = 1.2;
  cfg.infra.crossbox_events_per_crossbox_year = 0.4;
  cfg.infra.weather_bursts_per_region_year = 2.0;
  cfg.infra.firmware_rollout_start = util::day_from_date(5, 1);
  expect_chunks_match_run(cfg);
}

TEST(StreamWeeks, ThroughWeekStopsEarly) {
  const dslsim::SimConfig cfg = small_config(200, 17);
  const dslsim::Simulator sim(cfg);
  const exec::ExecContext exec = exec::ExecContext::serial();
  const dslsim::SimDataset tables = sim.build_tables(exec);
  int last_week = -1;
  sim.stream_weeks(tables, exec,
                   [&](const dslsim::WeekChunk& chunk) {
                     last_week = chunk.week;
                   },
                   /*through_week=*/kServeWeek);
  EXPECT_EQ(last_week, kServeWeek);
}

// ---------------------------------------------------------------------
// The producer contract every chunk consumer enforces: weeks arrive in
// ascending order from week 0 with no gaps, one measurement per line.
// ---------------------------------------------------------------------

/// std::invalid_argument is itself a std::logic_error, so an ordering
/// fault must raise a logic_error that is not the size error.
template <typename Feed>
void expect_ordering_error(Feed&& feed) {
  try {
    feed();
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "size error for an out-of-order week: " << e.what();
    return;
  } catch (const std::logic_error&) {
    return;
  }
  ADD_FAILURE() << "out-of-order week accepted";
}

TEST(StreamContract, ConsumersRejectOutOfOrderAndMisSizedWeeks) {
  const dslsim::SimConfig cfg = small_config(80, 6);
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();
  const std::vector<dslsim::MetricVector> short_week(17);
  const std::vector<dslsim::MetricVector> long_week(cfg.topology.n_lines + 1);

  // `feed(week, measurements)` drives one consumer; each must reject a
  // bad chunk without advancing, then accept the right one.
  const auto expect_contract = [&](const auto& feed) {
    expect_ordering_error([&] { feed(1, data.week_measurements(1)); });
    feed(0, data.week_measurements(0));
    expect_ordering_error([&] { feed(2, data.week_measurements(2)); });
    expect_ordering_error([&] { feed(0, data.week_measurements(0)); });
    EXPECT_THROW(feed(1, {short_week.data(), short_week.size()}),
                 std::invalid_argument);
    EXPECT_THROW(feed(1, {long_week.data(), long_week.size()}),
                 std::invalid_argument);
    feed(1, data.week_measurements(1));
  };
  using Week = std::span<const dslsim::MetricVector>;

  {
    SCOPED_TRACE("WeekEncoder");
    std::size_t rows = 0;
    features::WeekEncoder encoder(
        data, 0, 2, base_config(), features::TicketLabeler{28},
        [&](std::span<const float>, bool, dslsim::LineId, int) { ++rows; });
    expect_contract([&](int week, Week m) { encoder.on_week(week, m); });
    EXPECT_EQ(encoder.next_week(), 2);
    EXPECT_EQ(rows, 2U * cfg.topology.n_lines);
  }
  {
    SCOPED_TRACE("DispatchEncoder");
    features::DispatchEncoder encoder(
        data, 0, 2, base_config(),
        [](std::span<const float>, std::uint32_t) {});
    expect_contract([&](int week, Week m) { encoder.on_week(week, m); });
    EXPECT_EQ(encoder.next_week(), 2);
  }
  {
    SCOPED_TRACE("ReplayDriver");
    serve::LineStateStore store(2);
    serve::ReplayDriver replay(data, store);
    expect_contract([&](int week, Week m) {
      replay.feed_week_chunk({week, util::saturday_of_week(week), m});
    });
    EXPECT_EQ(replay.next_week(), 2);
    EXPECT_EQ(replay.measurements_fed(), 2U * cfg.topology.n_lines);
  }
}

// ---------------------------------------------------------------------
// Streamed dataset artefacts vs the materialized savers.
// ---------------------------------------------------------------------

class StreamArtefactTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new dslsim::SimDataset(dslsim::Simulator(small_config()).run());
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }
  static const dslsim::SimDataset* data_;
};

const dslsim::SimDataset* StreamArtefactTest::data_ = nullptr;

TEST_F(StreamArtefactTest, PredictorArtefactByteIdentical) {
  const dslsim::Simulator sim(small_config());
  const features::TicketLabeler labeler{28};
  const std::string mat_path = temp_path("pred_mat.nmarena");
  ASSERT_TRUE(features::save_predictor_dataset(mat_path, *data_, kTrainFrom,
                                               kTrainTo, base_config(),
                                               labeler)
                  .ok());
  const std::string reference = slurp(mat_path);
  std::filesystem::remove(mat_path);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const exec::ExecContext exec(threads);
    const dslsim::SimDataset tables = sim.build_tables(exec);
    const std::string path = temp_path("pred_stream.nmarena");
    ASSERT_TRUE(features::stream_save_predictor_dataset(
                    path, sim, tables, exec, kTrainFrom, kTrainTo,
                    base_config(), labeler)
                    .ok());
    EXPECT_EQ(slurp(path), reference) << threads << " thread(s)";
    std::filesystem::remove(path);
  }
}

TEST_F(StreamArtefactTest, FullLayoutPredictorArtefactByteIdentical) {
  // The training layout: quadratic columns plus product pairs (167
  // columns, not a multiple of the four-column checksum group), and a
  // population wider than one encoder tile, so each emitted week spans
  // two tiles and the artefact more than one writer chunk.
  const std::uint32_t lines =
      static_cast<std::uint32_t>(features::WeekEncoder::kTileRows) + 404;
  const dslsim::Simulator sim(small_config(lines, 57));
  const dslsim::SimDataset data = sim.run();
  features::EncoderConfig cfg;
  cfg.include_quadratic = true;
  cfg.product_pairs = {{0, 1}, {3, 30}, {26, 52}, {80, 7}, {40, 41}};
  ASSERT_EQ(features::all_columns(cfg).size(), 167U);
  const features::TicketLabeler labeler{28};
  const std::string mat_path = temp_path("pred_full_mat.nmarena");
  ASSERT_TRUE(features::save_predictor_dataset(mat_path, data, kTrainFrom,
                                               kTrainFrom + 1, cfg, labeler)
                  .ok());
  const std::string reference = slurp(mat_path);
  std::filesystem::remove(mat_path);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const exec::ExecContext exec(threads);
    const dslsim::SimDataset tables = sim.build_tables(exec);
    const std::string path = temp_path("pred_full_stream.nmarena");
    ASSERT_TRUE(features::stream_save_predictor_dataset(
                    path, sim, tables, exec, kTrainFrom, kTrainFrom + 1, cfg,
                    labeler)
                    .ok());
    EXPECT_EQ(slurp(path), reference) << threads << " thread(s)";
    std::filesystem::remove(path);
  }
}

TEST_F(StreamArtefactTest, PredictorArtefactFinalWeekOfYear) {
  // Emit range butting against the last simulated week: the stream
  // ends exactly at the final chunk, with no trailing weeks after the
  // last emitted one.
  const dslsim::Simulator sim(small_config());
  const features::TicketLabeler labeler{28};
  const int last = data_->n_weeks() - 1;
  const std::string mat_path = temp_path("pred_tail_mat.nmarena");
  ASSERT_TRUE(features::save_predictor_dataset(mat_path, *data_, last - 2,
                                               last, base_config(), labeler)
                  .ok());
  const std::string reference = slurp(mat_path);
  std::filesystem::remove(mat_path);

  const exec::ExecContext exec = exec::ExecContext::serial();
  const dslsim::SimDataset tables = sim.build_tables(exec);
  const std::string path = temp_path("pred_tail_stream.nmarena");
  ASSERT_TRUE(features::stream_save_predictor_dataset(
                  path, sim, tables, exec, last - 2, last, base_config(),
                  labeler)
                  .ok());
  EXPECT_EQ(slurp(path), reference);
  std::filesystem::remove(path);
}

TEST_F(StreamArtefactTest, LocatorArtefactByteIdentical) {
  const dslsim::Simulator sim(small_config());
  const std::string mat_path = temp_path("loc_mat.nmarena");
  ASSERT_TRUE(features::save_locator_dataset(mat_path, *data_, kLocFrom,
                                             kLocTo, base_config())
                  .ok());
  const std::string reference = slurp(mat_path);
  std::filesystem::remove(mat_path);
  ASSERT_FALSE(reference.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const exec::ExecContext exec(threads);
    const dslsim::SimDataset tables = sim.build_tables(exec);
    const std::string path = temp_path("loc_stream.nmarena");
    ASSERT_TRUE(features::stream_save_locator_dataset(path, sim, tables,
                                                      exec, kLocFrom, kLocTo,
                                                      base_config())
                    .ok());
    EXPECT_EQ(slurp(path), reference) << threads << " thread(s)";
    std::filesystem::remove(path);
  }
}

// ---------------------------------------------------------------------
// Streamed training chain vs train().
// ---------------------------------------------------------------------

TEST(StreamTraining, PredictorKernelMatchesTrain) {
  const dslsim::SimConfig cfg = small_config(900, 23);
  const dslsim::Simulator sim(cfg);
  const dslsim::SimDataset reference = sim.run();

  core::PredictorConfig pc;
  pc.boost_iterations = 30;
  pc.top_n = 25;
  core::TicketPredictor trained(pc);
  trained.train(reference, kTrainFrom, kTrainTo);
  std::ostringstream want;
  trained.kernel().save(want);

  const features::TicketLabeler labeler{pc.horizon_days};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    core::PredictorConfig tpc = pc;
    tpc.exec = exec::ExecContext(threads);
    core::TicketPredictor predictor(tpc);
    const dslsim::SimDataset tables = sim.build_tables(tpc.exec);

    // Pass 1: base matrix, mmap'ed for stage-1 planning.
    const std::string base_path = temp_path("chain_base.nmarena");
    features::EncoderConfig base_cfg = predictor.config().encoder;
    base_cfg.include_quadratic = false;
    base_cfg.product_pairs.clear();
    ASSERT_TRUE(features::stream_save_predictor_dataset(
                    base_path, sim, tables, tpc.exec, kTrainFrom, kTrainTo,
                    base_cfg, labeler)
                    .ok());
    features::EncoderConfig full_cfg;
    {
      auto base = features::load_predictor_dataset(base_path,
                                                   ml::ArenaLoadMode::kMapped);
      ASSERT_TRUE(base.has_value());
      full_cfg = predictor.plan_full_encoder(base->block);
    }
    std::filesystem::remove(base_path);
    EXPECT_EQ(features::all_columns(full_cfg).size(),
              features::all_columns(trained.full_encoder_config()).size());

    // Pass 2: full derived-feature matrix, mmap'ed into train_from_block.
    const std::string full_path = temp_path("chain_full.nmarena");
    ASSERT_TRUE(features::stream_save_predictor_dataset(
                    full_path, sim, tables, tpc.exec, kTrainFrom, kTrainTo,
                    full_cfg, labeler)
                    .ok());
    {
      auto full = features::load_predictor_dataset(full_path,
                                                   ml::ArenaLoadMode::kMapped);
      ASSERT_TRUE(full.has_value());
      EXPECT_TRUE(full->block.dataset.file_backed());
      predictor.train_from_block(full->block, full->encoder);
    }
    std::filesystem::remove(full_path);

    std::ostringstream got;
    predictor.kernel().save(got);
    EXPECT_EQ(got.str(), want.str()) << threads << " thread(s)";
  }
}

// A plan hands its stage-1 scores to train_from_block only for the
// base matrix it scored: a full block of other data is re-scored, so
// the kernel equals the one a predictor planned on that data trains.
TEST(StreamTraining, StalePlanScoresAreNotReused) {
  core::PredictorConfig pc;
  pc.boost_iterations = 30;
  pc.top_n = 25;
  const features::TicketLabeler labeler{pc.horizon_days};
  features::EncoderConfig base_cfg = pc.encoder;
  base_cfg.include_quadratic = false;
  base_cfg.product_pairs.clear();
  const dslsim::SimDataset a = dslsim::Simulator(small_config(900, 23)).run();
  const dslsim::SimDataset b = dslsim::Simulator(small_config(900, 24)).run();

  core::TicketPredictor planned(pc);
  const features::EncoderConfig full_cfg = planned.plan_full_encoder(
      features::encode_weeks(b, kTrainFrom, kTrainTo, base_cfg, labeler));
  const features::EncodedBlock full_b =
      features::encode_weeks(b, kTrainFrom, kTrainTo, full_cfg, labeler);
  planned.train_from_block(full_b, full_cfg);
  std::ostringstream want;
  planned.kernel().save(want);

  core::TicketPredictor stale(pc);
  (void)stale.plan_full_encoder(
      features::encode_weeks(a, kTrainFrom, kTrainTo, base_cfg, labeler));
  stale.train_from_block(full_b, full_cfg);
  std::ostringstream got;
  stale.kernel().save(got);
  EXPECT_EQ(got.str(), want.str());
}

TEST(StreamTraining, LocatorMatchesTrain) {
  const dslsim::SimConfig cfg = small_config(900, 23);
  const dslsim::Simulator sim(cfg);
  const dslsim::SimDataset reference = sim.run();

  core::LocatorConfig lc;
  lc.boost_iterations = 20;
  lc.min_occurrences = 5;
  core::TroubleLocator trained(lc);
  trained.train(reference, kLocFrom, kLocTo);
  std::ostringstream want;
  trained.save(want);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    core::LocatorConfig tlc = lc;
    tlc.exec = exec::ExecContext(threads);
    core::TroubleLocator locator(tlc);
    const dslsim::SimDataset tables = sim.build_tables(tlc.exec);
    const std::string path = temp_path("loc_chain.nmarena");
    ASSERT_TRUE(features::stream_save_locator_dataset(
                    path, sim, tables, tlc.exec, kLocFrom, kLocTo,
                    locator.encoder_config())
                    .ok());
    {
      auto loaded = features::load_locator_dataset(path,
                                                   ml::ArenaLoadMode::kMapped);
      ASSERT_TRUE(loaded.has_value());
      locator.train_from_block(tables, loaded->block);
    }
    std::filesystem::remove(path);

    std::ostringstream got;
    locator.save(got);
    EXPECT_EQ(got.str(), want.str()) << threads << " thread(s)";
  }
}

// ---------------------------------------------------------------------
// Serving replay fed chunk-wise vs from a materialized dataset.
// ---------------------------------------------------------------------

TEST(StreamReplay, FeedWeekChunkMatchesFeedNextWeek) {
  const dslsim::SimConfig cfg = small_config(400, 31);
  const dslsim::Simulator sim(cfg);
  const dslsim::SimDataset reference = sim.run();

  serve::LineStateStore want_store(4);
  serve::ReplayDriver want_replay(reference, want_store);
  want_replay.feed_through(kServeWeek);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const exec::ExecContext exec(threads);
    const dslsim::SimDataset tables = sim.build_tables(exec);
    serve::LineStateStore store(4);
    serve::ReplayDriver replay(tables, store);
    sim.stream_weeks(tables, exec,
                     [&](const dslsim::WeekChunk& chunk) {
                       replay.feed_week_chunk(chunk, exec);
                     },
                     /*through_week=*/kServeWeek);
    EXPECT_EQ(replay.next_week(), want_replay.next_week());
    EXPECT_EQ(replay.measurements_fed(), want_replay.measurements_fed());

    // Compare the stores through the one shared encoding: identical
    // encoded rows mean identical served scores under any kernel.
    const features::EncoderConfig enc;
    const std::size_t n_base = features::base_columns(enc).size();
    const std::size_t n_cols = features::all_columns(enc).size();
    ASSERT_EQ(store.line_ids(), want_store.line_ids());
    std::vector<float> got_row(n_cols);
    std::vector<float> want_row(n_cols);
    for (const dslsim::LineId line : want_store.line_ids()) {
      const auto got = store.snapshot(line);
      const auto want = want_store.snapshot(line);
      ASSERT_TRUE(got.has_value() && want.has_value());
      ASSERT_EQ(got->week, want->week);
      ASSERT_EQ(got->profile, want->profile);
      ASSERT_EQ(got->last_ticket, want->last_ticket);
      const util::Day day = util::saturday_of_week(want->week);
      features::encode_window_row(got->window, got->current,
                                  dslsim::profile(got->profile),
                                  got->last_ticket, day, enc, n_base,
                                  got_row);
      features::encode_window_row(want->window, want->current,
                                  dslsim::profile(want->profile),
                                  want->last_ticket, day, enc, n_base,
                                  want_row);
      ASSERT_EQ(std::memcmp(got_row.data(), want_row.data(),
                            n_cols * sizeof(float)),
                0)
          << "line " << line << " at " << threads << " thread(s)";
    }
  }
}

}  // namespace
}  // namespace nevermind
