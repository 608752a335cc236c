#include "cluster/types.hpp"

#include <algorithm>

namespace nevermind::cluster {

namespace {

/// splitmix64 finalizer — line ids are dense sequential integers, so a
/// plain modulo would put contiguous ranges on one shard; the mix
/// spreads neighbours uniformly. Deliberately independent of
/// LineStateStore's internal (modulo) sharding: cluster shards are a
/// routing concept.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Cap for count-prefixed reserves so a garbage count cannot force a
/// huge allocation before the bounds-checked reads catch it.
constexpr std::size_t kReserveCap = 4096;

}  // namespace

std::uint32_t shard_of_line(dslsim::LineId line,
                            std::uint32_t n_shards) noexcept {
  if (n_shards == 0) return 0;
  return static_cast<std::uint32_t>(mix64(line) % n_shards);
}

bool ShardMap::valid() const noexcept {
  if (n_shards == 0 || replication == 0 || nodes.empty()) return false;
  if (replicas.size() != n_shards) return false;
  if (nodes.size() > 0xFFFF) return false;
  for (const auto& set : replicas) {
    if (set.empty() || set.size() > nodes.size()) return false;
    for (const std::uint16_t idx : set) {
      if (idx >= nodes.size()) return false;
    }
  }
  return true;
}

std::optional<std::size_t> ShardMap::index_of(NodeId node) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].node == node) return i;
  }
  return std::nullopt;
}

std::optional<std::size_t> ShardMap::primary_of(std::uint32_t shard) const {
  if (shard >= replicas.size()) return std::nullopt;
  for (const std::uint16_t idx : replicas[shard]) {
    if (nodes[idx].alive) return idx;
  }
  return std::nullopt;
}

ShardMap make_shard_map(std::vector<Endpoint> nodes, std::uint32_t n_shards,
                        std::uint32_t replication) {
  ShardMap map;
  map.epoch = 1;
  map.n_shards = n_shards;
  map.replication = std::min<std::uint32_t>(
      std::max<std::uint32_t>(replication, 1),
      static_cast<std::uint32_t>(nodes.size()));
  map.nodes = std::move(nodes);
  map.replicas.resize(n_shards);
  for (std::uint32_t s = 0; s < n_shards; ++s) {
    map.replicas[s].reserve(map.replication);
    for (std::uint32_t r = 0; r < map.replication; ++r) {
      map.replicas[s].push_back(
          static_cast<std::uint16_t>((s + r) % map.nodes.size()));
    }
  }
  return map;
}

ShardMap rebuild_shard_map(const ShardMap& base,
                           const std::vector<NodeId>& dead) {
  ShardMap next = base;
  next.epoch = base.epoch + 1;
  for (Endpoint& node : next.nodes) {
    node.alive =
        std::find(dead.begin(), dead.end(), node.node) == dead.end();
  }
  for (auto& set : next.replicas) {
    // Minimal rotation: move the first alive replica to the front,
    // everything else keeps its relative order. A shard whose whole
    // replica set is dead keeps its order (primary_of reports nullopt).
    const auto alive_it =
        std::find_if(set.begin(), set.end(), [&](std::uint16_t idx) {
          return next.nodes[idx].alive;
        });
    if (alive_it != set.end() && alive_it != set.begin()) {
      std::rotate(set.begin(), alive_it, alive_it + 1);
    }
  }
  return next;
}

void write_shard_map(net::PayloadWriter& w, const ShardMap& map) {
  w.u64(map.epoch);
  w.u32(map.n_shards);
  w.u32(map.replication);
  w.u16(static_cast<std::uint16_t>(map.nodes.size()));
  for (const Endpoint& node : map.nodes) {
    w.u32(node.node);
    w.u16(node.port);
    w.u8(node.alive ? 1 : 0);
    w.u16(static_cast<std::uint16_t>(node.host.size()));
    w.bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(node.host.data()),
        node.host.size()));
  }
  for (const auto& set : map.replicas) {
    w.u8(static_cast<std::uint8_t>(set.size()));
    for (const std::uint16_t idx : set) w.u16(idx);
  }
}

bool read_shard_map(net::PayloadReader& r, ShardMap& map) {
  map = ShardMap{};
  map.epoch = r.u64();
  map.n_shards = r.u32();
  map.replication = r.u32();
  const std::uint16_t n_nodes = r.u16();
  map.nodes.reserve(std::min<std::size_t>(n_nodes, kReserveCap));
  for (std::uint16_t i = 0; i < n_nodes && r.ok(); ++i) {
    Endpoint node;
    node.node = r.u32();
    node.port = r.u16();
    node.alive = r.u8() != 0;
    const std::uint16_t host_len = r.u16();
    if (!r.ok() || r.remaining() < host_len) return false;
    node.host.resize(host_len);
    for (std::uint16_t b = 0; b < host_len; ++b) {
      node.host[b] = static_cast<char>(r.u8());
    }
    map.nodes.push_back(std::move(node));
  }
  if (!r.ok() || map.n_shards > net::kDefaultMaxPayload) return false;
  map.replicas.reserve(std::min<std::size_t>(map.n_shards, kReserveCap));
  for (std::uint32_t s = 0; s < map.n_shards && r.ok(); ++s) {
    const std::uint8_t count = r.u8();
    std::vector<std::uint16_t> set;
    set.reserve(count);
    for (std::uint8_t i = 0; i < count; ++i) set.push_back(r.u16());
    map.replicas.push_back(std::move(set));
  }
  return r.ok() && map.valid();
}

void write_heartbeat(net::PayloadWriter& w, const Heartbeat& hb) {
  w.u32(hb.from);
  w.u64(hb.map_epoch);
  w.u64(hb.seq);
}

bool read_heartbeat(net::PayloadReader& r, Heartbeat& hb) {
  hb.from = r.u32();
  hb.map_epoch = r.u64();
  hb.seq = r.u64();
  return r.ok();
}

const char* peer_state_name(PeerState s) noexcept {
  switch (s) {
    case PeerState::kUp:
      return "up";
    case PeerState::kSuspect:
      return "suspect";
    case PeerState::kDead:
      return "dead";
  }
  return "unknown";
}

void write_node_health(net::PayloadWriter& w, const NodeHealth& h) {
  w.u32(h.node);
  w.u64(h.map_epoch);
  w.u64(h.model_version);
  w.u64(h.n_lines);
  w.u64(h.measurements);
  w.u64(h.tickets);
  w.u16(static_cast<std::uint16_t>(h.peers.size()));
  for (const PeerHealth& p : h.peers) {
    w.u32(p.node);
    w.u8(static_cast<std::uint8_t>(p.state));
  }
}

bool read_node_health(net::PayloadReader& r, NodeHealth& h) {
  h = NodeHealth{};
  h.node = r.u32();
  h.map_epoch = r.u64();
  h.model_version = r.u64();
  h.n_lines = r.u64();
  h.measurements = r.u64();
  h.tickets = r.u64();
  const std::uint16_t n_peers = r.u16();
  h.peers.reserve(std::min<std::size_t>(n_peers, kReserveCap));
  for (std::uint16_t i = 0; i < n_peers && r.ok(); ++i) {
    PeerHealth p;
    p.node = r.u32();
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(PeerState::kDead)) return false;
    p.state = static_cast<PeerState>(state);
    h.peers.push_back(p);
  }
  return r.ok();
}

void write_handoff_request(net::PayloadWriter& w, const HandoffRequest& req) {
  w.u8(req.push);
  w.u32(req.shard);
  w.u32(req.n_shards);
  w.u32(req.cursor);
  w.u32(req.max_lines);
}

bool read_handoff_request(net::PayloadReader& r, HandoffRequest& req) {
  req.push = r.u8();
  req.shard = r.u32();
  req.n_shards = r.u32();
  req.cursor = r.u32();
  req.max_lines = r.u32();
  return r.ok() && req.push <= 1;
}

void write_exported_line(net::PayloadWriter& w, const serve::ExportedLine& e) {
  w.u32(e.line);
  w.i32(e.week);
  w.u8(e.profile);
  w.u8(e.has_ticket ? 1 : 0);
  w.i32(e.last_ticket);
  w.u8(e.window.has_prev ? 1 : 0);
  w.u32(e.window.tests_seen);
  w.u32(e.window.tests_off);
  for (const float v : e.window.prev) w.f32(v);
  for (const float v : e.current) w.f32(v);
  // Welford accumulators travel as their raw fields — restore() on the
  // far side reproduces each one bit for bit.
  for (const util::RunningStats& s : e.window.history) {
    w.u64(s.count());
    w.f64(s.raw_mean());
    w.f64(s.sum_sq_dev());
    w.f64(s.raw_min());
    w.f64(s.raw_max());
  }
  // Former raw-measurement ring: always empty now (DESIGN.md §13).
  w.u16(0);
}

bool read_exported_line(net::PayloadReader& r, serve::ExportedLine& e) {
  e = serve::ExportedLine{};
  e.line = r.u32();
  e.week = r.i32();
  e.profile = r.u8();
  e.has_ticket = r.u8() != 0;
  e.last_ticket = r.i32();
  e.window.has_prev = r.u8() != 0;
  e.window.tests_seen = r.u32();
  e.window.tests_off = r.u32();
  for (float& v : e.window.prev) v = r.f32();
  for (float& v : e.current) v = r.f32();
  for (util::RunningStats& s : e.window.history) {
    const std::uint64_t n = r.u64();
    const double mean = r.f64();
    const double m2 = r.f64();
    const double min = r.f64();
    const double max = r.f64();
    s = util::RunningStats::restore(static_cast<std::size_t>(n), mean, m2,
                                    min, max);
  }
  // A peer from before the ring was dropped may still send (week,
  // metrics) entries: parse them so the page stays framed, then discard.
  const std::uint16_t ring_count = r.u16();
  for (std::uint16_t i = 0; i < ring_count && r.ok(); ++i) {
    (void)r.i32();
    for (std::size_t m = 0; m < dslsim::kNumLineMetrics; ++m) (void)r.f32();
  }
  return r.ok();
}

void write_handoff_page(net::PayloadWriter& w, const HandoffPage& page) {
  w.u32(page.next_cursor);
  w.u8(page.done);
  w.u32(static_cast<std::uint32_t>(page.lines.size()));
  for (const serve::ExportedLine& e : page.lines) write_exported_line(w, e);
}

bool read_handoff_page(net::PayloadReader& r, HandoffPage& page) {
  page = HandoffPage{};
  page.next_cursor = r.u32();
  page.done = r.u8();
  const std::uint32_t count = r.u32();
  page.lines.reserve(std::min<std::size_t>(count, kReserveCap));
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    serve::ExportedLine e;
    if (!read_exported_line(r, e)) return false;
    page.lines.push_back(std::move(e));
  }
  return r.ok() && page.lines.size() == count && page.done <= 1;
}

void write_top_n_shards(net::PayloadWriter& w, const TopNShardsRequest& req) {
  w.u32(req.n);
  w.u32(req.n_shards);
  w.u16(static_cast<std::uint16_t>(req.shards.size()));
  for (const std::uint32_t s : req.shards) w.u32(s);
}

bool read_top_n_shards(net::PayloadReader& r, TopNShardsRequest& req) {
  req = TopNShardsRequest{};
  req.n = r.u32();
  req.n_shards = r.u32();
  const std::uint16_t count = r.u16();
  req.shards.reserve(std::min<std::size_t>(count, kReserveCap));
  for (std::uint16_t i = 0; i < count; ++i) req.shards.push_back(r.u32());
  return r.ok();
}

}  // namespace nevermind::cluster
