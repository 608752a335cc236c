// Sharded per-line state store — the online half of the feature
// encoder. The offline pipeline walks a whole SimDataset and advances
// one features::LineWindow per line, week by week; this store keeps the
// same LineWindow per line and folds measurements in as they arrive,
// one at a time through ingest() or a whole week at once through
// ingest_week(). Both run the same fold, and the window update is the
// shared implementation, so a store fed a dataset's measurements in
// week order holds bit-identical encoder state to the offline pass —
// which is what makes served scores byte-identical to batch scores.
//
// Layout: line u lives on shard u % n_shards at local index
// u / n_shards; each shard owns a mutex, a dense vector of entries and
// a paged slot table (local index -> entry). ingest() and snapshot()
// take one shard lock; ingest_week() takes each shard's lock once per
// week. Aggregate counters are relaxed atomics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "dslsim/profile.hpp"
#include "dslsim/records.hpp"
#include "exec/exec.hpp"
#include "features/encoder.hpp"
#include "util/calendar.hpp"

namespace nevermind::serve {

/// One line-test result arriving at the service — the online equivalent
/// of one (line, week) cell of a SimDataset, plus the profile field the
/// encoder's customer features need.
struct LineMeasurement {
  dslsim::LineId line = 0;
  int week = 0;
  dslsim::ProfileId profile = 1;
  dslsim::MetricVector metrics{};
};

/// Consistent copy of one line's serving state, taken under the shard
/// lock and encoded outside it. `window` holds history folded through
/// week-1; `current` is week's Saturday test, not yet folded — exactly
/// the (state, current) pair the offline encoder sees when it emits the
/// row for `week`.
struct LineSnapshot {
  features::LineWindow window;
  dslsim::MetricVector current{};
  int week = -1;
  dslsim::ProfileId profile = 1;
  std::optional<util::Day> last_ticket;
};

/// One line's full serving state — the store's own per-line entry, in
/// a public shape the cluster handoff can serialize. The
/// export_line/import_line round trip is bit-exact: an imported line
/// scores byte-identically to the original, which is the determinism
/// contract a rejoining replica relies on.
struct ExportedLine {
  dslsim::LineId line = 0;
  features::LineWindow window;
  dslsim::MetricVector current{};
  int week = -1;  // week of `current`; -1 = no measurement yet
  dslsim::ProfileId profile = 1;
  bool has_ticket = false;
  util::Day last_ticket = 0;
};

class LineStateStore {
 public:
  explicit LineStateStore(std::size_t n_shards = 16);

  /// Fold a measurement in. Weeks must arrive in non-decreasing order
  /// per line (the weekly test schedule guarantees this); a stale week
  /// older than the line's current one is dropped. Takes one shard
  /// lock.
  void ingest(const LineMeasurement& m);

  /// Fold one week for lines 0..by_line.size()-1: line u's measurement
  /// is by_line[u] and its profile profile_of[u]. Same per-line fold as
  /// ingest(), but each shard is one parallel task that takes its lock
  /// once and walks its lines, so the result is independent of the
  /// thread count. Throws std::invalid_argument when profile_of is
  /// shorter than by_line.
  void ingest_week(int week, std::span<const dslsim::MetricVector> by_line,
                   std::span<const dslsim::ProfileId> profile_of,
                   const exec::ExecContext& exec =
                       exec::ExecContext::serial());

  /// Record a customer-edge ticket for the line's recency feature. Only
  /// feed tickets up to the scoring horizon (the replay driver feeds
  /// tickets reported at or before the Saturday being scored).
  void ingest_ticket(dslsim::LineId line, util::Day day);

  /// Consistent snapshot of one line, or nullopt when the line has no
  /// measurement yet.
  [[nodiscard]] std::optional<LineSnapshot> snapshot(
      dslsim::LineId line) const;

  /// Every line with at least one measurement, ascending — the serving
  /// equivalent of the offline encoder's line iteration order, which is
  /// what keeps top_n rankings byte-identical to predict_week.
  [[nodiscard]] std::vector<dslsim::LineId> line_ids() const;

  /// Full state of one line for the cluster handoff, or nullopt when
  /// the line is unknown. Ticket-only lines (week still -1) export too.
  [[nodiscard]] std::optional<ExportedLine> export_line(
      dslsim::LineId line) const;

  /// Install exported state, overwriting any existing entry for the
  /// line. Does not count as ingest (the measurement/ticket counters
  /// track traffic, not replication). Takes one shard lock.
  void import_line(const ExportedLine& e);

  [[nodiscard]] std::size_t n_lines() const;
  [[nodiscard]] std::uint64_t measurements_ingested() const noexcept {
    return n_measurements_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t tickets_ingested() const noexcept {
    return n_tickets_.load(std::memory_order_relaxed);
  }

 private:
  using Entry = ExportedLine;

  /// Shard-local index -> 1 + position in Shard::entries (0 = absent),
  /// in 4096-slot pages under 1024-page directories allocated on first
  /// touch: dense ids fill whole pages, and an id near 2^32 costs one
  /// directory and one page, never a table sized to the id.
  class SlotTable {
   public:
    [[nodiscard]] std::uint32_t get(std::uint32_t local) const noexcept;
    [[nodiscard]] std::uint32_t& at(std::uint32_t local);

   private:
    // Indexed by local & 4095, (local >> 12) & 1023 and local >> 22.
    using Page = std::array<std::uint32_t, 4096>;
    using Dir = std::array<std::unique_ptr<Page>, 1024>;
    std::array<std::unique_ptr<Dir>, 1024> dirs_;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<Entry> entries;
    SlotTable slots;
  };

  [[nodiscard]] std::size_t shard_of(dslsim::LineId line) const noexcept {
    return line % shards_.size();
  }
  /// The line's entry, or nullptr; the caller holds the shard lock.
  [[nodiscard]] const Entry* find(const Shard& shard,
                                  dslsim::LineId line) const noexcept;
  /// The line's entry, created empty if absent; the caller holds the
  /// shard lock.
  [[nodiscard]] Entry& entry(Shard& shard, dslsim::LineId line);
  /// The one ingest body behind ingest() and ingest_week().
  static void fold(Entry& entry, int week, dslsim::ProfileId profile,
                   const dslsim::MetricVector& metrics);

  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> n_measurements_{0};
  std::atomic<std::uint64_t> n_tickets_{0};
};

}  // namespace nevermind::serve
