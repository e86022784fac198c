// Workload dist-waf: dist::distributed_waf_cds on the serial runtime,
// repeated on one graph built during set-up.

#include <algorithm>
#include <iostream>
#include <limits>
#include <numeric>

#include "bench.hpp"
#include "dist/distributed_cds.hpp"
#include "udg/builder.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kMinReps = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Reference {
  RefGraph graph;
  std::vector<std::uint32_t> level;  ///< hop distance from node 0
  std::vector<NodeId> mis;           ///< first-fit in (level, id) order
  std::size_t twice_edges = 0;
};

Reference make_reference(const Field& field) {
  Reference ref;
  ref.graph = reference_udg(field.points, field.side);
  ref.level = hop_distances(ref.graph, 0);
  ref.twice_edges = ref.graph.adj.size();
  std::vector<NodeId> order(ref.graph.n());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return ref.level[a] < ref.level[b];
  });
  std::vector<std::uint8_t> in(order.size(), 0);
  for (const NodeId v : order) {
    const auto nb = ref.graph.nbrs(v);
    if (std::none_of(nb.begin(), nb.end(), [&](NodeId u) { return in[u]; })) {
      in[v] = 1;
      ref.mis.push_back(v);
    }
  }
  std::sort(ref.mis.begin(), ref.mis.end());
  return ref;
}

std::string check(const Reference& ref, const dist::DistributedCdsResult& d) {
  if (!d.complete) return "a phase did not complete";
  if (d.leader != 0) return "leader is not the minimum id";
  if (!std::equal(d.tree.level.begin(), d.tree.level.end(), ref.level.begin(),
                  ref.level.end())) {
    return "BFS levels differ from hop distances";
  }
  for (NodeId v = 1; v < ref.graph.n(); ++v) {
    const NodeId p = d.tree.parent[v];
    const auto nb = ref.graph.nbrs(v);
    if (!std::binary_search(nb.begin(), nb.end(), p) ||
        ref.level[p] + 1 != ref.level[v]) {
      return "BFS parent of node " + std::to_string(v) + " is not one level up";
    }
  }
  if (d.mis.mis != ref.mis) return "elected MIS differs from (level, id) first-fit";
  if (d.tree.stats.messages != ref.twice_edges ||
      d.mis.stats.messages != ref.twice_edges) {
    return "BFS-tree or MIS phase did not deliver exactly 2m messages";
  }
  return check_cds_forest(ref.graph, {}, d.cds);
}

/// The four phases called one by one, each timed.
struct Phases {
  double leader = 0, tree = 0, mis = 0, connectors = 0, total = 0;
};

Phases run_phases(const graph::Graph& g, dist::DistributedCdsResult& d) {
  const auto t0 = Clock::now();
  const dist::LeaderResult leader = dist::elect_leader(g);
  const auto t1 = Clock::now();
  d.tree = dist::build_bfs_tree(g, leader.leader);
  const auto t2 = Clock::now();
  d.mis = dist::elect_mis(g, d.tree.level);
  const auto t3 = Clock::now();
  d.connectors =
      dist::select_connectors(g, leader.leader, d.tree.parent, d.mis.in_mis);
  const auto t4 = Clock::now();
  d.leader = leader.leader;
  d.leader_stats = leader.stats;
  d.cds = d.connectors.cds;
  d.complete = leader.complete && d.tree.complete && d.mis.complete &&
               d.connectors.complete;
  d.total = leader.stats;
  d.total += d.tree.stats;
  d.total += d.mis.stats;
  d.total += d.connectors.stats;
  return {ms_between(t0, t1), ms_between(t1, t2), ms_between(t2, t3),
          ms_between(t3, t4), ms_between(t0, t4)};
}

}  // namespace

Result run_dist_waf(const Options& opt) {
  const Field field = draw_field(opt.seed, kCachedNodes);
  const graph::Graph g = udg::build_udg(field.points);
  const Reference ref = make_reference(field);
  const double setup_s = setup_seconds(opt);

  Result r;
  const auto verify = [&](const dist::DistributedCdsResult& d) {
    ++r.attempted;
    if (const auto e = check(ref, d); !e.empty()) {
      if (r.failed++ == 0) std::cerr << "dist-waf: " << e << "\n";
    }
  };

  double best = kInf;
  Phases phase{kInf, kInf, kInf, kInf, kInf};  // of the fastest traced run
  dist::DistributedCdsResult last;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::size_t rep = 0; rep < kMinReps || Clock::now() < deadline;
       ++rep) {
    if (!opt.probe) {
      const auto t0 = Clock::now();
      dist::DistributedCdsResult d = dist::distributed_waf_cds(g);
      best = std::min(best, ms_between(t0, Clock::now()));
      verify(d);
      last = std::move(d);
    }
    if (opt.trace) {
      dist::DistributedCdsResult d;
      const Phases p = run_phases(g, d);
      if (p.total < phase.total) phase = p;
      verify(d);
      if (opt.probe) last = std::move(d);
    }
  }

  if (!opt.trace) {
    add_end_to_end(r, setup_s, {best}, static_cast<double>(last.cds.size()));
    return r;
  }
  const auto stats = [&](const std::string& name, const dist::RunStats& s) {
    r.add("dist." + name + ".rounds", static_cast<double>(s.rounds), "rounds");
    r.add("dist." + name + ".messages", static_cast<double>(s.messages),
          "messages");
  };
  r.add("dist.leader_ms", phase.leader, "ms");
  r.add("dist.bfs_tree_ms", phase.tree, "ms");
  r.add("dist.mis_election_ms", phase.mis, "ms");
  r.add("dist.connectors_ms", phase.connectors, "ms");
  stats("leader", last.leader_stats);
  stats("bfs_tree", last.tree.stats);
  stats("mis_election", last.mis.stats);
  stats("connectors", last.connectors.stats);
  r.add("dist.mis_election.us_per_round",
        1000.0 * phase.mis / static_cast<double>(last.mis.stats.rounds), "us");
  const double layers =
      phase.leader + phase.tree + phase.mis + phase.connectors;
  r.add("trace.overhead_pct", 100.0 * (phase.total / best - 1.0), "%");
  r.add("trace.attribution_pct", 100.0 * layers / best, "%");
  return r;
}

}  // namespace perfbench
