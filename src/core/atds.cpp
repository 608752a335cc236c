#include "core/atds.hpp"

#include <algorithm>

#include "util/calendar.hpp"

namespace nevermind::core {

AtdsWeekReport run_proactive_week(const dslsim::SimDataset& data,
                                  const std::vector<Prediction>& ranked,
                                  const TroubleLocator& locator,
                                  const AtdsConfig& config, int week,
                                  int horizon_days) {
  AtdsWeekReport report;
  report.week = week;
  const util::Day test_day = util::saturday_of_week(week);
  const util::Day fix_day = test_day + config.days_to_fix;

  // Feature rows for dispatch-time ranking: one encode of the week.
  const features::TicketLabeler labeler{horizon_days};
  const features::EncodedBlock block = features::encode_weeks(
      data, week, week, locator.encoder_config(), labeler,
      locator.config().exec);
  // Map line -> row explicitly rather than assuming emission order.
  std::vector<std::size_t> row_of_line(data.n_lines(), 0);
  for (std::size_t r = 0; r < block.line_of_row.size(); ++r) {
    row_of_line[block.line_of_row[r]] = r;
  }

  const std::size_t take = std::min(config.weekly_capacity, ranked.size());
  const std::size_t full_sweep = locator.covered().size();

  std::vector<float> row(block.dataset.n_cols());
  for (std::size_t i = 0; i < take; ++i) {
    const dslsim::LineId line = ranked[i].line;
    ++report.submitted;

    // Ground truth: the active fault closest to the end host (what the
    // technician would ultimately blame).
    const dslsim::FaultEpisode* found = nullptr;
    int best_prox = 1000;
    for (std::uint32_t idx : data.line_episode_indices(line)) {
      const auto& e = data.episodes()[idx];
      if (fix_day >= e.onset && fix_day < e.cleared) {
        const int prox = dslsim::end_host_proximity(
            data.catalog().signature(e.disposition).location);
        if (prox < best_prox) {
          best_prox = prox;
          found = &e;
        }
      }
    }

    const auto next_ticket = data.next_edge_ticket_after(line, test_day);
    const bool would_ticket =
        next_ticket.has_value() && *next_ticket <= test_day + horizon_days;
    if (would_ticket) ++report.would_ticket;

    if (found == nullptr) {
      ++report.clean_dispatches;
      // Nothing to find: the technician sweeps every location.
      const double sweep = config.dispatch_overhead_minutes +
                           static_cast<double>(full_sweep) *
                               config.minutes_per_test;
      report.locator_minutes += sweep;
      report.experience_minutes += sweep;
      continue;
    }

    ++report.with_live_fault;
    if (would_ticket && *next_ticket > fix_day) {
      ++report.tickets_prevented;
    } else if (!would_ticket) {
      ++report.silent_fixed;
    }

    for (std::size_t j = 0; j < row.size(); ++j) {
      row[j] = block.dataset.at(row_of_line[line], j);
    }
    const std::size_t tests_locator =
        locator.rank_of(row, found->disposition, LocatorModelKind::kCombined);
    const std::size_t tests_prior = locator.rank_of(
        row, found->disposition, LocatorModelKind::kExperience);
    report.locator_minutes +=
        config.dispatch_overhead_minutes +
        static_cast<double>(tests_locator) * config.minutes_per_test;
    report.experience_minutes +=
        config.dispatch_overhead_minutes +
        static_cast<double>(tests_prior) * config.minutes_per_test;
  }
  return report;
}

}  // namespace nevermind::core
