// Closed-loop replay: streams a SimDataset's weekly measurements and
// customer-edge tickets through a LineStateStore in arrival order, as a
// live deployment's feed handlers would. After feed_through(w) the
// store holds exactly the state the offline encoder has when it emits
// week w's rows — which is what the byte-identity tests and the serve
// bench replay against.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dslsim/simulator.hpp"
#include "exec/exec.hpp"
#include "serve/line_state_store.hpp"

namespace nevermind::serve {

class ReplayDriver {
 public:
  /// Borrows both; they must outlive the driver.
  ReplayDriver(const dslsim::SimDataset& data, LineStateStore& store);

  /// Feed the next week: first every customer-edge ticket reported at
  /// or before that week's Saturday (the offline encoder's ticket
  /// horizon), then every line's Saturday measurement, folded in bulk
  /// by LineStateStore::ingest_week under `exec` (one task per shard,
  /// so the store contents are independent of the thread count).
  /// Returns the week index just fed, or -1 when the dataset is
  /// exhausted.
  int feed_next_week(
      const exec::ExecContext& exec = exec::ExecContext::serial());

  /// Feed weeks [next_week(), week] inclusive.
  void feed_through(int week, const exec::ExecContext& exec =
                                  exec::ExecContext::serial());

  /// Ingest a week chunk from Simulator::stream_weeks — the one ingest
  /// body; feed_next_week is this call over the dataset's own week.
  /// Tickets come from the (possibly tables-only) dataset, measurements
  /// from the chunk, so a streamed and a materialized replay end in the
  /// same store state. chunk.week must equal next_week() (throws
  /// std::logic_error otherwise) and the chunk must hold one measurement
  /// per line (throws std::invalid_argument). Use as the streamed
  /// pipeline's tap: `[&](const dslsim::WeekChunk& c) {
  /// driver.feed_week_chunk(c, exec); }`.
  void feed_week_chunk(const dslsim::WeekChunk& chunk,
                       const exec::ExecContext& exec =
                           exec::ExecContext::serial());

  /// The week the next feed_next_week() call will ingest.
  [[nodiscard]] int next_week() const noexcept { return next_week_; }
  [[nodiscard]] bool exhausted() const noexcept {
    return next_week_ >= data_.n_weeks();
  }
  [[nodiscard]] std::size_t measurements_fed() const noexcept {
    return measurements_fed_;
  }

 private:
  const dslsim::SimDataset& data_;
  LineStateStore& store_;
  /// Every line's service profile, by line id — fixed by the plant.
  std::vector<dslsim::ProfileId> profile_of_;
  /// Customer-edge tickets as (reported day, line), sorted by day.
  std::vector<std::pair<util::Day, dslsim::LineId>> tickets_;
  std::size_t ticket_cursor_ = 0;
  int next_week_ = 0;
  std::size_t measurements_fed_ = 0;
};

}  // namespace nevermind::serve
