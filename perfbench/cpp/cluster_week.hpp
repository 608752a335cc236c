// The cluster leg of the traced run: the job's store handed to three
// in-process ClusterNodes (replication 2) and driven through one
// ShardRouter, open loop. The router is a blocking client with one
// request in flight, so its requests are issued from one thread at
// their due times and a slow reply makes the requests behind it late;
// latency runs from the due time, as in the single-node week.
//
// Output gates: every SCORE reply must equal the in-process value of
// the job's store for the (line, week) it reports, and the router's
// merged TOPN_SHARDS ranking must equal the single-node
// ScoringService::top_n_of over the same lines.
#pragma once

#include <cstdint>

#include "exec/exec.hpp"
#include "saturday.hpp"
#include "trace.hpp"

namespace perfbench {

struct ClusterSpec {
  std::uint64_t seed = 1;
  /// The cluster serves the first `max_lines` lines of the store.
  std::uint32_t max_lines = 20000;
  double score_rate = 1000.0;  // SCORE/s; INGEST runs at the same rate
  double seconds = 3.0;
  double topn_per_second = 1.0;
  std::uint32_t topn = 200;
  /// Swap two entries of the merged ranking before its gate (the
  /// gate's negative case).
  bool perturb_topn = false;
};

struct ClusterResult {
  std::uint32_t lines = 0;
  double score_p50_ms = 0.0;
  double score_p99_ms = 0.0;
  double ingest_p99_ms = 0.0;
  double topn_merge_ms = 0.0;  // p50 of the router's TOP_N
  double replica_writes_per_ingest = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::uint64_t failovers = 0;
  std::uint64_t retries = 0;
};

/// Runs the cluster leg over `state` (the store after its online week;
/// INGESTs the cluster receives are applied to it too, so it stays the
/// reference). Throws GateError on a wrong reply or ranking.
[[nodiscard]] ClusterResult run_cluster_week(ServingState& state,
                                             const ClusterSpec& spec,
                                             const exec::ExecContext& exec,
                                             Tracer& tracer);

}  // namespace perfbench
