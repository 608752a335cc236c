// Concurrency smoke for the serving stack, built to run under
// -DNEVERMIND_SANITIZE=thread (ctest -L tsan): writer threads ingesting
// measurements and tickets, reader threads issuing micro-batched point
// queries, and a publisher thread hot-swapping the model — all against
// one store and registry, with full data-race coverage from TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ticket_predictor.hpp"
#include "serve/line_state_store.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_service.hpp"
#include "util/calendar.hpp"
#include "util/rng.hpp"
#include "exported_line_eq.hpp"

namespace nevermind::serve {
namespace {

TEST(ServeConcurrency, ConcurrentIngestQueryAndHotSwap) {
  dslsim::SimConfig cfg;
  cfg.seed = 77;
  cfg.topology.n_lines = 400;
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();

  core::PredictorConfig pcfg;
  pcfg.top_n = 10;
  pcfg.boost_iterations = 8;
  pcfg.use_derived_features = false;
  core::TicketPredictor predictor(pcfg);
  predictor.train(data, 20, 30);

  LineStateStore store(8);
  ModelRegistry registry;
  registry.publish(predictor.kernel());
  ScoringService service(store, registry);

  std::atomic<bool> feeding{true};
  std::atomic<std::uint64_t> answered{0};

  // Writer: replays the whole year, week by week.
  std::thread writer([&] {
    ReplayDriver replay(data, store);
    while (!replay.exhausted()) replay.feed_next_week();
    feeding.store(false, std::memory_order_release);
  });

  // Publisher: hot-swaps the model while queries are in flight.
  std::thread publisher([&] {
    while (feeding.load(std::memory_order_acquire)) {
      registry.publish(predictor.kernel());
      std::this_thread::yield();
    }
  });

  // Readers: point queries through the micro-batcher against whatever
  // state and model version are current.
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng = util::Rng::stream(cfg.seed, 100 + r);
      for (int q = 0; q < 200; ++q) {
        const auto line = static_cast<dslsim::LineId>(
            rng.uniform_index(data.n_lines()));
        const ServeScore s = service.score(line);
        EXPECT_EQ(s.line, line);
        if (s.valid) {
          EXPECT_GE(s.probability, 0.0);
          EXPECT_LE(s.probability, 1.0);
          EXPECT_GE(s.model_version, 1U);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& t : readers) t.join();
  writer.join();
  publisher.join();

  EXPECT_EQ(answered.load(), 800U);
  EXPECT_EQ(store.measurements_ingested(),
            static_cast<std::uint64_t>(data.n_lines()) *
                static_cast<std::uint64_t>(data.n_weeks()));
  const auto stats = service.batch_stats();
  EXPECT_EQ(stats.requests, 800U);
  EXPECT_GE(registry.swap_count(), 1U);

  // After the dust settles the store serves the final week everywhere.
  const auto top = service.top_n(5);
  ASSERT_EQ(top.size(), 5U);
  for (const auto& s : top) {
    EXPECT_TRUE(s.valid);
    EXPECT_EQ(s.week, data.n_weeks() - 1);
  }
}

/// Every line's exported state, in line-id order over [0, n_lines).
std::vector<ExportedLine> export_all(const LineStateStore& store,
                                     std::size_t n_lines) {
  std::vector<ExportedLine> out;
  for (std::size_t u = 0; u < n_lines; ++u) {
    const auto e = store.export_line(static_cast<dslsim::LineId>(u));
    EXPECT_TRUE(e.has_value()) << "line " << u;
    if (e.has_value()) out.push_back(*e);
  }
  return out;
}

TEST(ServeConcurrency, ParallelReplayMatchesSerialReplay) {
  dslsim::SimConfig cfg;
  cfg.seed = 78;
  cfg.topology.n_lines = 300;
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();
  constexpr int kThrough = 30;

  // Reference: one shard, every measurement through the wire-style
  // per-line ingest(), tickets fed the way ReplayDriver feeds them.
  LineStateStore reference(1);
  std::vector<std::pair<util::Day, dslsim::LineId>> tickets;
  for (const auto& t : data.tickets()) {
    if (t.category == dslsim::TicketCategory::kCustomerEdge) {
      tickets.emplace_back(t.reported, t.line);
    }
  }
  std::stable_sort(tickets.begin(), tickets.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::size_t cursor = 0;
  for (int week = 0; week <= kThrough; ++week) {
    const util::Day saturday = util::saturday_of_week(week);
    for (; cursor < tickets.size() && tickets[cursor].first <= saturday;
         ++cursor) {
      reference.ingest_ticket(tickets[cursor].second, tickets[cursor].first);
    }
    for (std::size_t u = 0; u < data.n_lines(); ++u) {
      const auto line = static_cast<dslsim::LineId>(u);
      reference.ingest({line, week, data.plant(line).profile,
                        data.measurement(week, line)});
    }
  }
  const std::vector<ExportedLine> want = export_all(reference, data.n_lines());
  ASSERT_EQ(want.size(), data.n_lines());

  for (const std::size_t shards : {1U, 3U, 16U}) {
    for (const std::size_t threads : {1U, 4U}) {
      const std::string what = "shards=" + std::to_string(shards) +
                               " threads=" + std::to_string(threads);
      const exec::ExecContext exec =
          threads > 1 ? exec::ExecContext(threads) : exec::ExecContext();
      LineStateStore store(shards);
      ReplayDriver replay(data, store);
      replay.feed_through(kThrough, exec);
      EXPECT_EQ(store.line_ids(), reference.line_ids()) << what;
      EXPECT_EQ(store.measurements_ingested(),
                reference.measurements_ingested())
          << what;
      const std::vector<ExportedLine> got = export_all(store, data.n_lines());
      ASSERT_EQ(got.size(), want.size()) << what;
      for (std::size_t i = 0; i < got.size(); ++i) {
        nevermind::testing::expect_bit_identical(got[i], want[i], what);
      }
    }
  }
}

TEST(ServeConcurrency, BulkReplayRacesWireIngestSnapshotsAndTopN) {
  dslsim::SimConfig cfg;
  cfg.seed = 79;
  cfg.topology.n_lines = 300;
  const dslsim::SimDataset data = dslsim::Simulator(cfg).run();
  const auto n_lines = static_cast<dslsim::LineId>(data.n_lines());

  core::PredictorConfig pcfg;
  pcfg.top_n = 10;
  pcfg.boost_iterations = 8;
  pcfg.use_derived_features = false;
  core::TicketPredictor predictor(pcfg);
  predictor.train(data, 20, 30);

  LineStateStore store(8);
  ModelRegistry registry;
  registry.publish(predictor.kernel());
  const ScoringService service(store, registry);
  const exec::ExecContext pool(4);

  std::atomic<bool> feeding{true};
  std::atomic<int> racers{0};  // the replay starts once both are running
  // Bulk path: whole weeks, one shard task per lock, on a 4-lane pool.
  std::thread replayer([&] {
    while (racers.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    ReplayDriver replay(data, store);
    for (int week = 0; week < data.n_weeks(); ++week) {
      replay.feed_week_chunk({week, util::saturday_of_week(week),
                              data.week_measurements(week)},
                             pool);
    }
    feeding.store(false, std::memory_order_release);
  });

  // Wire path: single measurements for lines the replay does not own,
  // dense neighbours and hostile ids near 2^32, sharing its shards.
  const std::vector<dslsim::LineId> wire_lines = {
      n_lines, n_lines + 1, n_lines + 17, 0xFFFFFFFFU, 0xFFFFFFF0U};
  std::uint64_t wire_ingests = 0;
  std::thread wire([&] {
    racers.fetch_add(1, std::memory_order_release);
    for (int week = 0; feeding.load(std::memory_order_acquire) || week < 3;
         ++week) {
      for (const dslsim::LineId line : wire_lines) {
        store.ingest({line, week, 1, data.measurement(0, 0)});
        ++wire_ingests;
      }
      std::this_thread::yield();
    }
  });

  // Readers: point snapshots, id listings and full rankings against
  // whatever state is current.
  std::thread reader([&] {
    racers.fetch_add(1, std::memory_order_release);
    util::Rng rng = util::Rng::stream(cfg.seed, 7);
    while (feeding.load(std::memory_order_acquire)) {
      const auto line = static_cast<dslsim::LineId>(
          rng.uniform_index(data.n_lines()));
      const auto snap = store.snapshot(line);
      if (snap.has_value()) {
        EXPECT_GE(snap->week, 0);
      }
      const auto ids = store.line_ids();
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      for (const ServeScore& s : service.top_n(10)) {
        EXPECT_TRUE(s.valid);
      }
    }
  });

  replayer.join();
  wire.join();
  reader.join();

  EXPECT_EQ(store.measurements_ingested(),
            static_cast<std::uint64_t>(data.n_lines()) *
                    static_cast<std::uint64_t>(data.n_weeks()) +
                wire_ingests);
  EXPECT_EQ(store.n_lines(), data.n_lines() + wire_lines.size());

  // The racing traffic touched other lines only: the replayed state is
  // the serial replay's, bit for bit.
  LineStateStore serial(8);
  ReplayDriver(data, serial).feed_through(data.n_weeks() - 1);
  const auto got = export_all(store, data.n_lines());
  const auto want = export_all(serial, data.n_lines());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    nevermind::testing::expect_bit_identical(got[i], want[i]);
  }
}

}  // namespace
}  // namespace nevermind::serve
