#include "cluster_week.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "cluster/node.hpp"
#include "cluster/router.hpp"
#include "cluster/types.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "online.hpp"
#include "serve/scoring_service.hpp"

namespace perfbench {

namespace cluster = nevermind::cluster;
namespace net = nevermind::net;

namespace {

constexpr std::size_t kNodes = 3;
constexpr std::uint32_t kReplication = 2;
constexpr std::uint32_t kShards = 12;
constexpr std::size_t kHandoffPage = 256;

/// Push every line of `lines` (ascending) from `store` into each
/// replica of its shard with HANDOFF push pages.
void seed_nodes(const serve::LineStateStore& store,
                const std::vector<dslsim::LineId>& lines,
                const cluster::ShardMap& map) {
  std::vector<net::Client> clients;
  for (const auto& node : map.nodes) {
    clients.emplace_back(net::ClientOptions{std::chrono::milliseconds(1000),
                                            std::chrono::milliseconds(10000),
                                            8U << 20});
    if (!clients.back().connect(node.host, node.port)) {
      throw std::runtime_error("handoff connect: " +
                               clients.back().last_error());
    }
  }
  std::vector<std::vector<dslsim::LineId>> by_shard(kShards);
  for (const dslsim::LineId line : lines) {
    by_shard[cluster::shard_of_line(line, kShards)].push_back(line);
  }
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    const auto& shard_lines = by_shard[shard];
    for (std::size_t b = 0; b < shard_lines.size(); b += kHandoffPage) {
      const std::size_t e = std::min(shard_lines.size(), b + kHandoffPage);
      cluster::HandoffRequest push;
      push.push = 1;
      push.shard = shard;
      push.n_shards = kShards;
      push.max_lines = static_cast<std::uint32_t>(e - b);
      net::PayloadWriter w;
      cluster::write_handoff_request(w, push);
      w.u32(static_cast<std::uint32_t>(e - b));
      for (std::size_t i = b; i < e; ++i) {
        const auto exported = store.export_line(shard_lines[i]);
        if (!exported.has_value()) {
          throw std::runtime_error("line missing from the job's store");
        }
        cluster::write_exported_line(w, *exported);
      }
      for (const std::uint16_t replica : map.replicas[shard]) {
        if (!clients[replica].request(net::Op::kHandoff, w.data())) {
          throw std::runtime_error("handoff push: " +
                                   clients[replica].last_error());
        }
      }
    }
  }
}

/// Three started nodes; stopped (and their threads joined) on scope
/// exit, on the error paths too.
class Nodes {
 public:
  Nodes() {
    for (std::size_t i = 0; i < kNodes; ++i) {
      cluster::ClusterNodeConfig cfg;
      cfg.node_id = static_cast<cluster::NodeId>(i);
      nodes_.push_back(std::make_unique<cluster::ClusterNode>(cfg));
      std::string error;
      if (!nodes_.back()->start(&error)) {
        throw std::runtime_error("cluster node start: " + error);
      }
    }
  }
  ~Nodes() {
    for (auto& node : nodes_) node->stop();
  }
  Nodes(const Nodes&) = delete;
  Nodes& operator=(const Nodes&) = delete;

  [[nodiscard]] std::vector<cluster::Endpoint> endpoints() const {
    std::vector<cluster::Endpoint> out;
    for (const auto& node : nodes_) {
      cluster::Endpoint ep;
      ep.node = node->config().node_id;
      ep.port = node->port();
      out.push_back(ep);
    }
    return out;
  }

 private:
  std::vector<std::unique_ptr<cluster::ClusterNode>> nodes_;
};

std::uint64_t replica_measurements(cluster::ShardRouter& router) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto health = router.health(static_cast<cluster::NodeId>(i));
    if (!health.has_value()) {
      throw std::runtime_error("HEALTH failed: " + router.last_error());
    }
    total += health->measurements;
  }
  return total;
}

}  // namespace

ClusterResult run_cluster_week(ServingState& state, const ClusterSpec& spec,
                               const exec::ExecContext& exec,
                               Tracer& tracer) {
  ClusterResult r;
  const dslsim::SimDataset& tables = *state.tables;
  r.lines = std::min<std::uint32_t>(
      spec.max_lines, static_cast<std::uint32_t>(tables.n_lines()));
  std::vector<dslsim::LineId> lines(r.lines);
  std::iota(lines.begin(), lines.end(), dslsim::LineId{0});
  serve::ServiceConfig service_cfg;
  service_cfg.exec = exec;
  const serve::ScoringService service(*state.store, *state.registry,
                                      service_cfg);
  const std::vector<serve::ServeScore> before = service.score_lines(lines);

  Nodes nodes;
  cluster::ShardRouter router(
      cluster::make_shard_map(nodes.endpoints(), kShards, kReplication));
  {
    const Span span(tracer, "cluster.seed");
    if (!router.connect_all() || !router.broadcast_map() ||
        !router.push_model(state.registry->acquire()->kernel)) {
      throw std::runtime_error("cluster set-up: " + router.last_error());
    }
    seed_nodes(*state.store, lines, router.map());
  }
  const std::uint64_t measurements0 = replica_measurements(router);

  // The schedule: SCORE on uniformly random lines and INGEST of the
  // next week in a seeded line order, 1:1, plus TOP_N once a second.
  std::mt19937_64 rng(spec.seed ^ 0xC2B2AE3D27D4EB4FULL);
  std::vector<dslsim::LineId> order = lines;
  std::shuffle(order.begin(), order.end(), rng);
  std::uniform_int_distribution<dslsim::LineId> pick(0, r.lines - 1);
  const int next_week = JobWeeks{}.score_week + 1;
  const auto n_pairs =
      static_cast<std::size_t>(spec.score_rate * spec.seconds);
  const double gap_s = 1.0 / spec.score_rate;
  const double topn_gap_s = 1.0 / spec.topn_per_second;
  std::vector<double> score_ms;
  std::vector<double> ingest_ms;
  std::vector<double> topn_ms;
  std::vector<serve::ServeScore> replies;
  std::vector<dslsim::LineId> asked;  // the line each reply was asked for
  std::uint64_t ingests = 0;
  std::size_t next_topn = 0;
  const auto start = Clock::now();
  const auto since_due = [&](double due_s) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(due_s));
    std::this_thread::sleep_until(due);
    return due;
  };
  const auto ms_since = [](Clock::time_point due) {
    return seconds_between(due, Clock::now()) * 1e3;
  };
  {
    const Span span(tracer, "cluster.open_loop");
    for (std::size_t p = 0; p < n_pairs; ++p) {
      const double t = static_cast<double>(p) * gap_s;
      if ((static_cast<double>(next_topn) + 0.5) * topn_gap_s <= t) {
        const auto due =
            since_due((static_cast<double>(next_topn) + 0.5) * topn_gap_s);
        ++next_topn;
        ++r.sent;
        if (router.top_n(spec.topn).has_value()) {
          topn_ms.push_back(ms_since(due));
        } else {
          ++r.failed;
        }
      }
      {
        const auto due = since_due(t);
        ++r.sent;
        const dslsim::LineId line = pick(rng);
        const auto s = router.score(line);
        if (s.has_value() && s->valid) {
          score_ms.push_back(ms_since(due));
          asked.push_back(line);
          replies.push_back(*s);
        } else {
          ++r.failed;
        }
      }
      {
        const auto due = since_due(t + gap_s / 2);
        serve::LineMeasurement m;
        m.line = order[p % order.size()];
        m.week = next_week;
        m.profile = tables.plant(m.line).profile;
        m.metrics = state.next_week[m.line];
        ++r.sent;
        if (router.ingest(m)) {
          ingest_ms.push_back(ms_since(due));
          ++ingests;
        } else {
          ++r.failed;
        }
        state.store->ingest(m);  // keep the reference in step
      }
    }
  }
  std::optional<std::vector<serve::ServeScore>> merged;
  {
    const Span span(tracer, "cluster.final_top_n");
    merged = router.top_n(spec.topn);
  }
  r.replica_writes_per_ingest =
      ingests > 0 ? static_cast<double>(replica_measurements(router) -
                                        measurements0) /
                        static_cast<double>(ingests)
                  : 0.0;
  r.failovers = router.stats().failovers;
  r.retries = router.stats().retries;

  // Gates, against the job's store (which saw the same INGESTs).
  const std::vector<serve::ServeScore> after = service.score_lines(lines);
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const serve::ServeScore& s = replies[i];
    const bool ok = s.line == asked[i] &&
                    ((s.week == next_week - 1 && same_score(s, before[s.line])) ||
                     (s.week == next_week && same_score(s, after[s.line])));
    if (!ok) ++wrong;
  }
  if (wrong > 0) {
    throw GateError(std::to_string(wrong) +
                    " cluster SCORE replies differ from score_lines");
  }
  if (!merged.has_value()) {
    throw GateError("cluster TOP_N failed: " + router.last_error());
  }
  if (spec.perturb_topn && merged->size() > 1) {
    std::swap((*merged)[0], (*merged)[1]);
  }
  const std::vector<serve::ServeScore> single =
      service.top_n_of(spec.topn, lines);
  bool same = merged->size() == single.size();
  for (std::size_t i = 0; same && i < single.size(); ++i) {
    same = same_score((*merged)[i], single[i]);
  }
  if (!same) {
    throw GateError("merged TOPN_SHARDS ranking != single-node top_n");
  }
  r.score_p50_ms = percentile(score_ms, 0.5);
  r.score_p99_ms = percentile(score_ms, 0.99);
  r.ingest_p99_ms = percentile(ingest_ms, 0.99);
  r.topn_merge_ms = percentile(topn_ms, 0.5);
  return r;
}

}  // namespace perfbench
