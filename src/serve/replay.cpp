#include "serve/replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/calendar.hpp"

namespace nevermind::serve {

ReplayDriver::ReplayDriver(const dslsim::SimDataset& data,
                           LineStateStore& store)
    : data_(data), store_(store) {
  profile_of_.reserve(data.n_lines());
  for (std::size_t u = 0; u < data.n_lines(); ++u) {
    profile_of_.push_back(
        data.plant(static_cast<dslsim::LineId>(u)).profile);
  }
  tickets_.reserve(data.tickets().size());
  for (const auto& ticket : data.tickets()) {
    if (ticket.category == dslsim::TicketCategory::kCustomerEdge) {
      tickets_.emplace_back(ticket.reported, ticket.line);
    }
  }
  std::stable_sort(tickets_.begin(), tickets_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
}

int ReplayDriver::feed_next_week(const exec::ExecContext& exec) {
  if (exhausted()) return -1;
  const int week = next_week_;
  feed_week_chunk({week, util::saturday_of_week(week),
                   data_.week_measurements(week)},
                  exec);
  return week;
}

void ReplayDriver::feed_week_chunk(const dslsim::WeekChunk& chunk,
                                   const exec::ExecContext& exec) {
  if (chunk.week != next_week_) {
    throw std::logic_error("ReplayDriver: expected week " +
                           std::to_string(next_week_) + ", got chunk for " +
                           std::to_string(chunk.week));
  }
  const std::size_t n_lines = data_.n_lines();
  if (chunk.measurements.size() != n_lines) {
    throw std::invalid_argument("ReplayDriver: chunk has " +
                                std::to_string(chunk.measurements.size()) +
                                " lines, dataset has " +
                                std::to_string(n_lines));
  }

  // Tickets first: week w's feature row sees every ticket reported at
  // or before w's Saturday.
  while (ticket_cursor_ < tickets_.size() &&
         tickets_[ticket_cursor_].first <= chunk.day) {
    store_.ingest_ticket(tickets_[ticket_cursor_].second,
                         tickets_[ticket_cursor_].first);
    ++ticket_cursor_;
  }

  store_.ingest_week(chunk.week, chunk.measurements, profile_of_, exec);
  measurements_fed_ += n_lines;
  ++next_week_;
}

void ReplayDriver::feed_through(int week, const exec::ExecContext& exec) {
  while (!exhausted() && next_week_ <= week) feed_next_week(exec);
}

}  // namespace nevermind::serve
