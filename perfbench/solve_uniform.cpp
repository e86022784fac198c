// Workload solve-uniform: points -> udg::build_udg -> core::bfs_first_fit_mis
// -> core::greedy_connectors -> core::check_cds, repeated on one field.

#include <algorithm>
#include <iostream>
#include <limits>
#include <tuple>

#include "bench.hpp"
#include "core/greedy_connect.hpp"
#include "core/mis.hpp"
#include "core/validate.hpp"
#include "udg/builder.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSampledNodes = 64;
constexpr std::size_t kMinReps = 5;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Solve {
  graph::Graph g;
  core::MisResult mis;
  std::vector<graph::NodeId> connectors;
  std::vector<core::GreedyStep> steps;
  std::vector<graph::NodeId> cds;
  core::CdsCheck verdict;
};

/// Wall times of one solve: the four layers and the whole.
struct Times {
  double build = 0, phase1 = 0, phase2 = 0, check = 0, total = 0;
};

Times solve(std::span<const geom::Vec2> points, Solve& s) {
  const auto t0 = Clock::now();
  s.g = udg::build_udg(points);
  const auto t1 = Clock::now();
  s.mis = core::bfs_first_fit_mis(s.g);
  const auto t2 = Clock::now();
  std::tie(s.connectors, s.steps) = core::greedy_connectors(s.g, s.mis.mis);
  s.cds = s.mis.mis;
  s.cds.insert(s.cds.end(), s.connectors.begin(), s.connectors.end());
  std::sort(s.cds.begin(), s.cds.end());
  const auto t3 = Clock::now();
  s.verdict = core::check_cds(s.g, s.cds);
  const auto t4 = Clock::now();
  return {ms_between(t0, t1), ms_between(t1, t2), ms_between(t2, t3),
          ms_between(t3, t4), ms_between(t0, t4)};
}

struct Reference {
  RefGraph graph;
  std::vector<std::pair<NodeId, std::vector<NodeId>>> sample;
};

std::string check(const Reference& ref, const Solve& s) {
  const auto off = s.g.offsets();
  const auto adj = s.g.flat_neighbors();
  if (!std::equal(off.begin(), off.end(), ref.graph.off.begin(),
                  ref.graph.off.end()) ||
      !std::equal(adj.begin(), adj.end(), ref.graph.adj.begin(),
                  ref.graph.adj.end())) {
    return "build_udg adjacency differs from the reference grid";
  }
  for (const auto& [u, expect] : ref.sample) {
    const auto got = s.g.neighbors(u);
    if (!std::equal(got.begin(), got.end(), expect.begin(), expect.end())) {
      return "adjacency of node " + std::to_string(u) +
             " differs from brute force";
    }
  }
  if (auto e = check_mis(ref.graph, {}, s.mis.mis); !e.empty()) return e;
  if (auto e = check_cds_forest(ref.graph, {}, s.cds); !e.empty()) return e;
  const std::size_t mis = s.mis.mis.size();
  std::size_t gains = 0;
  for (const auto& step : s.steps) gains += step.gain;
  if (gains != mis - 1) {
    return "phase-2 gains sum to " + std::to_string(gains) + ", not |I|-1 = " +
           std::to_string(mis - 1);
  }
  if (s.connectors.size() > mis - 1) return "|C| exceeds |I|-1";
  if (std::adjacent_find(s.cds.begin(), s.cds.end()) != s.cds.end()) {
    return "a connector is also a dominator";
  }
  if (!s.verdict.ok) return "check_cds rejected the set";
  return {};
}

}  // namespace

Result run_solve_uniform(const Options& opt) {
  const Field field = draw_field(opt.seed, kSolveNodes);
  Reference ref;
  ref.graph = reference_udg(field.points, field.side);
  Rand pick(opt.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  for (std::size_t i = 0; i < kSampledNodes; ++i) {
    const auto u = static_cast<NodeId>(pick.below(field.points.size()));
    ref.sample.emplace_back(u, brute_force_neighbours(field.points, u));
  }
  const double setup_s = setup_seconds(opt);

  Result r;
  const auto verify = [&](const Solve& s) {
    ++r.attempted;
    if (const auto e = check(ref, s); !e.empty()) {
      if (r.failed++ == 0) std::cerr << "solve-uniform: " << e << "\n";
    }
  };

  double best = kInf;
  Times layer{kInf, kInf, kInf, kInf, kInf};  // of the fastest traced solve
  std::size_t mis_size = 0, connectors = 0, cds_size = 0, edges = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  for (std::size_t rep = 0; rep < kMinReps || Clock::now() < deadline;
       ++rep) {
    const auto count = [&](const Solve& s) {
      mis_size = s.mis.mis.size();
      connectors = s.connectors.size();
      cds_size = s.cds.size();
      edges = s.g.num_edges();
    };
    if (!opt.probe) {
      Solve s;
      best = std::min(best, solve(field.points, s).total);
      verify(s);
      count(s);
    }
    if (opt.trace) {
      Solve s;
      const Times t = solve(field.points, s);
      if (t.total < layer.total) layer = t;
      verify(s);
      count(s);
    }
  }

  if (!opt.trace) {
    add_end_to_end(r, setup_s, {best}, static_cast<double>(cds_size));
    return r;
  }
  r.add("udg.build_udg_ms", layer.build, "ms");
  r.add("core.phase1_mis_ms", layer.phase1, "ms");
  r.add("core.phase2_connectors_ms", layer.phase2, "ms");
  r.add("core.check_cds_ms", layer.check, "ms");
  r.add("core.mis_size", static_cast<double>(mis_size), "nodes");
  r.add("core.connectors", static_cast<double>(connectors), "nodes");
  r.add("graph.edges", static_cast<double>(edges), "edges");
  const double layers = layer.build + layer.phase1 + layer.phase2 + layer.check;
  r.add("trace.overhead_pct", 100.0 * (layer.total / best - 1.0), "%");
  r.add("trace.attribution_pct", 100.0 * layers / best, "%");
  return r;
}

}  // namespace perfbench
