#include "serve/line_state_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace nevermind::serve {

std::uint32_t LineStateStore::SlotTable::get(
    std::uint32_t local) const noexcept {
  const auto& dir = dirs_[local >> 22];
  if (!dir) return 0;
  const auto& page = (*dir)[(local >> 12) & 1023];
  return page ? (*page)[local & 4095] : 0;
}

std::uint32_t& LineStateStore::SlotTable::at(std::uint32_t local) {
  auto& dir = dirs_[local >> 22];
  if (!dir) dir = std::make_unique<Dir>();
  auto& page = (*dir)[(local >> 12) & 1023];
  if (!page) page = std::make_unique<Page>();  // value-initialised: all 0
  return (*page)[local & 4095];
}

LineStateStore::LineStateStore(std::size_t n_shards)
    : shards_(std::max<std::size_t>(n_shards, 1)) {}

const LineStateStore::Entry* LineStateStore::find(
    const Shard& shard, dslsim::LineId line) const noexcept {
  const auto slot = shard.slots.get(
      static_cast<std::uint32_t>(line / shards_.size()));
  return slot == 0 ? nullptr : &shard.entries[slot - 1];
}

LineStateStore::Entry& LineStateStore::entry(Shard& shard,
                                             dslsim::LineId line) {
  std::uint32_t& slot =
      shard.slots.at(static_cast<std::uint32_t>(line / shards_.size()));
  if (slot == 0) {
    shard.entries.emplace_back().line = line;
    slot = static_cast<std::uint32_t>(shard.entries.size());
  }
  return shard.entries[slot - 1];
}

void LineStateStore::fold(Entry& entry, int week, dslsim::ProfileId profile,
                          const dslsim::MetricVector& metrics) {
  if (week < entry.week) return;  // stale delivery: drop
  if (week > entry.week && entry.week >= 0) {
    // The previously current Saturday test is now history: fold it
    // into the window exactly when the offline encoder would (after
    // emitting that week's row, before seeing the next week's).
    entry.window.update(entry.current);
  }
  entry.current = metrics;
  entry.week = week;
  entry.profile = profile;
}

void LineStateStore::ingest(const LineMeasurement& m) {
  Shard& shard = shards_[shard_of(m.line)];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    fold(entry(shard, m.line), m.week, m.profile, m.metrics);
  }
  n_measurements_.fetch_add(1, std::memory_order_relaxed);
}

void LineStateStore::ingest_week(
    int week, std::span<const dslsim::MetricVector> by_line,
    std::span<const dslsim::ProfileId> profile_of,
    const exec::ExecContext& exec) {
  if (profile_of.size() < by_line.size()) {
    throw std::invalid_argument(
        "LineStateStore::ingest_week: fewer profiles than lines");
  }
  const std::size_t n = by_line.size();
  const std::size_t n_shards = shards_.size();
  exec.parallel_for(0, n_shards, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t s = b; s < e; ++s) {
      Shard& shard = shards_[s];
      const std::lock_guard<std::mutex> lock(shard.mutex);
      // A no-op after the first week: the shard's lines are all in.
      shard.entries.reserve(n > s ? (n - s + n_shards - 1) / n_shards : 0);
      for (std::size_t u = s; u < n; u += n_shards) {
        const auto line = static_cast<dslsim::LineId>(u);
        fold(entry(shard, line), week, profile_of[u], by_line[u]);
      }
    }
  });
  n_measurements_.fetch_add(n, std::memory_order_relaxed);
}

void LineStateStore::ingest_ticket(dslsim::LineId line, util::Day day) {
  Shard& shard = shards_[shard_of(line)];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    Entry& target = entry(shard, line);
    if (!target.has_ticket || day > target.last_ticket) {
      target.has_ticket = true;
      target.last_ticket = day;
    }
  }
  n_tickets_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<LineSnapshot> LineStateStore::snapshot(
    dslsim::LineId line) const {
  const Shard& shard = shards_[shard_of(line)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const Entry* entry = find(shard, line);
  if (entry == nullptr || entry->week < 0) return std::nullopt;
  LineSnapshot snap;
  snap.window = entry->window;
  snap.current = entry->current;
  snap.week = entry->week;
  snap.profile = entry->profile;
  if (entry->has_ticket) snap.last_ticket = entry->last_ticket;
  return snap;
}

std::optional<ExportedLine> LineStateStore::export_line(
    dslsim::LineId line) const {
  const Shard& shard = shards_[shard_of(line)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const Entry* entry = find(shard, line);
  if (entry == nullptr) return std::nullopt;
  return *entry;
}

void LineStateStore::import_line(const ExportedLine& e) {
  Shard& shard = shards_[shard_of(e.line)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  entry(shard, e.line) = e;
}

std::vector<dslsim::LineId> LineStateStore::line_ids() const {
  std::vector<dslsim::LineId> out;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& entry : shard.entries) {
      if (entry.week >= 0) out.push_back(entry.line);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t LineStateStore::n_lines() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Entry& entry : shard.entries) {
      if (entry.week >= 0) ++n;
    }
  }
  return n;
}

}  // namespace nevermind::serve
