#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geom/vec2.hpp"

/// \file bench.hpp
/// Shared pieces of the hot-path benchmark: options, the result record,
/// the seeded field draw, and the benchmark's own reference topology and
/// checks. Nothing here calls a validator of the library; the checks
/// recompute every property from positions.

namespace mcds::core {}
namespace mcds::dist {}
namespace mcds::dyn {}
namespace mcds::udg {}
namespace mcds::graph {}

namespace perfbench {

namespace core = mcds::core;
namespace dist = mcds::dist;
namespace dyn = mcds::dyn;
namespace geom = mcds::geom;
namespace graph = mcds::graph;
namespace udg = mcds::udg;

using Clock = std::chrono::steady_clock;
using NodeId = std::uint32_t;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Profile the layers only (with trace): skip the untraced repetitions.
  bool probe = false;
  Clock::time_point process_start;  ///< taken first thing in main()
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

Result run_solve_uniform(const Options& opt);
Result run_dist_waf(const Options& opt);
Result run_churn(const Options& opt);

/// The end-to-end metrics, the same on every workload. An operation is
/// one solve, one distributed construction or one churn event;
/// \p op_ms holds each distinct operation's time (its fastest
/// repetition). Adds setup_s, peak_rss_mb, latency_p50_ms and
/// latency_p99_ms (percentiles over the operations), throughput_per_s
/// (operations over their summed time) and cds_size.
void add_end_to_end(Result& r, double setup_s, std::vector<double> op_ms,
                    double cds_size);

/// Seconds from process start to now: the cold set-up time.
double setup_seconds(const Options& opt);
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Linear-interpolated quantile of \p sorted (ascending), q in [0, 1].
double quantile(const std::vector<double>& sorted, double q);

/// SplitMix64: the benchmark's own generator, so inputs do not depend on
/// the library's RNG.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform01() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform01(); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Workload fields: uniform squares of this density, radius 1.
inline constexpr double kDensity = 3.3;
/// Nodes drawn for solve-uniform, whose bulk build is the path at scale.
inline constexpr std::size_t kSolveNodes = 20000;
/// Nodes drawn for dist-waf and for each churn lane. At this size their
/// working sets fit a core's L2 cache; at 2*10^4 nodes they read 20-60%
/// slower whenever the shared host's last-level cache is busy, and the
/// slow phases outlast whole runs (perfbench/README.md, "Field sizes").
inline constexpr std::size_t kCachedNodes = 5000;

/// The largest connected component of one seeded draw. Node 0 of the
/// draw sits at the centre of the square, so the minimum-id node (BFS
/// root, elected leader) has the same eccentricity on every seed.
struct Field {
  std::vector<geom::Vec2> points;  ///< component, ascending draw id
  double side = 0.0;               ///< side of the square
};

/// One draw of \p nodes points, one udg::build_udg, one
/// graph::connected_components pass.
Field draw_field(std::uint64_t seed, std::size_t nodes);

/// Adjacency computed by the benchmark (its own cell grid, closed unit
/// disk), CSR with ascending lists. Nodes with alive[v] == 0 are
/// isolated.
struct RefGraph {
  std::vector<std::uint32_t> off;
  std::vector<NodeId> adj;
  [[nodiscard]] std::size_t n() const { return off.size() - 1; }
  [[nodiscard]] std::span<const NodeId> nbrs(NodeId u) const {
    return {adj.data() + off[u], off[u + 1] - off[u]};
  }
};
RefGraph reference_udg(std::span<const geom::Vec2> pts, double side,
                       std::span<const std::uint8_t> alive = {});

/// Neighbours of \p u within distance 1, by brute force over all points.
std::vector<NodeId> brute_force_neighbours(std::span<const geom::Vec2> pts,
                                           NodeId u);

/// BFS hop distances from \p src (UINT32_MAX when unreachable).
std::vector<std::uint32_t> hop_distances(const RefGraph& g, NodeId src);

/// Component label of every node with alive[v] != 0 (all when empty);
/// returns the number of components.
std::size_t components(const RefGraph& g, std::span<const std::uint8_t> alive,
                       std::vector<std::uint32_t>& label);

/// "" when \p set is a CDS of every component of the alive part of \p g
/// (all nodes when \p alive is empty), else a description of the defect.
std::string check_cds_forest(const RefGraph& g,
                             std::span<const std::uint8_t> alive,
                             std::span<const NodeId> set);

/// "" when \p set is a maximal independent set of the alive part of
/// \p g, else a description of the defect.
std::string check_mis(const RefGraph& g, std::span<const std::uint8_t> alive,
                      std::span<const NodeId> set);

}  // namespace perfbench
