// The online week after a Saturday job: one net::Server over the job's
// ScoringService, driven by an open-loop load generator.
//
// The generator is one process-internal sender thread and one receiver
// thread over at most `connections` pipelined TCP connections. Every
// request has a due time fixed before the phase starts; the sender
// sends each request when it is due whatever the replies are doing, and
// latency runs from the due time to the reply, so a stall is charged to
// every request that queued behind it.
//
// Phases:
//   nominal — SCORE (uniformly random lines) and INGEST (the next
//             week's measurements, lines in a seeded order) 1:1 at a
//             fixed SCORE rate, plus TOP_N(200) once a second;
//   ladder  — SCORE + INGEST 1:1 at rising rates; a step passes when
//             SCORE p99 and INGEST p99 are both within the latency
//             limit in all but at most one quarter-second window,
//             nothing failed and the backlog did not grow. The search
//             climbs by 2x from twice the nominal rate, then bisects
//             until the last passing and first failing rates are at
//             most 5% apart.
//
// Output gates: every SCORE reply must equal the in-process
// ScoringService::score_lines value for the (line, week) it reports,
// and a TOP_N over the wire after the load must equal
// ScoringService::top_n.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "saturday.hpp"
#include "trace.hpp"

namespace perfbench {

struct OnlineSpec {
  std::uint64_t seed = 1;
  /// SCORE requests per second of the nominal phase (INGEST runs at the
  /// same rate, so twice as many requests are sent).
  double nominal_score_rate = 0.0;
  double nominal_seconds = 5.0;
  double topn_per_second = 1.0;
  std::uint32_t topn = 200;
  std::size_t connections = 4;
  /// Run the rate ladder after the nominal phase.
  bool ladder = true;
  /// Latency limit of the ladder, on SCORE p99 and INGEST p99.
  double limit_ms = 2.0;
  double ladder_step_seconds = 0.5;
  /// Perturb one SCORE reply before the gate (its negative case).
  bool perturb_score = false;
};

struct PhaseCounts {
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;  // error reply, no reply, or wrong reply
};

struct OnlineResult {
  double score_p50_ms = 0.0;
  double score_p999_ms = 0.0;
  double ingest_p999_ms = 0.0;
  double topn_p50_ms = 0.0;
  std::size_t score_samples = 0;
  std::size_t ingest_samples = 0;
  std::size_t topn_samples = 0;
  double max_score_rate = 0.0;
  std::size_t ladder_steps = 0;
  /// How late the sender ran (send time minus due time), p99 over the
  /// nominal phase.
  double gen_late_p99_ms = 0.0;
  PhaseCounts nominal;
  PhaseCounts ladder;
  /// SCORE replies that did not match the in-process value.
  std::uint64_t wrong_scores = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t replies_out = 0;
  std::uint64_t protocol_errors = 0;
};

/// Serve `state` for one online week and measure it. Throws GateError
/// when a reply is wrong or the final TOP_N differs.
[[nodiscard]] OnlineResult run_online_week(ServingState& state,
                                           const OnlineSpec& spec,
                                           const exec::ExecContext& exec,
                                           Tracer& tracer);

/// p in [0, 1], nearest rank; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Bitwise equality of two scores of the same line and week.
[[nodiscard]] bool same_score(const serve::ServeScore& a,
                              const serve::ServeScore& b);

}  // namespace perfbench
