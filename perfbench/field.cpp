#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "bench.hpp"
#include "graph/traversal.hpp"
#include "udg/builder.hpp"

namespace perfbench {

namespace {
constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();

double d2(geom::Vec2 a, geom::Vec2 b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

bool is_alive(std::span<const std::uint8_t> alive, NodeId v) {
  return alive.empty() || alive[v] != 0;
}
}  // namespace

double setup_seconds(const Options& opt) {
  return std::chrono::duration<double>(Clock::now() - opt.process_start)
      .count();
}

double peak_rss_mb() {
  // VmHWM belongs to this image alone; getrusage's ru_maxrss would also
  // carry the high-water mark of the parent that forked and exec'd us.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void add_end_to_end(Result& r, double setup_s, std::vector<double> op_ms,
                    double cds_size) {
  std::sort(op_ms.begin(), op_ms.end());
  double total_ms = 0.0;
  for (const double t : op_ms) total_ms += t;
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("latency_p50_ms", quantile(op_ms, 0.5), "ms");
  r.add("latency_p99_ms", quantile(op_ms, 0.99), "ms");
  r.add("throughput_per_s",
        1000.0 * static_cast<double>(op_ms.size()) / total_ms, "1/s");
  r.add("cds_size", cds_size, "nodes");
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

Field draw_field(std::uint64_t seed, std::size_t nodes) {
  Field f;
  f.side = std::sqrt(static_cast<double>(nodes) / kDensity);
  Rand rng(seed);
  std::vector<geom::Vec2> pts(nodes);
  pts[0] = {f.side / 2.0, f.side / 2.0};
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double x = rng.uniform(0.0, f.side);
    pts[i] = {x, rng.uniform(0.0, f.side)};
  }
  const graph::Graph g = udg::build_udg(pts);
  const auto [label, count] = graph::connected_components(g);
  std::vector<std::size_t> size(count, 0);
  for (const auto l : label) ++size[l];
  const auto largest = static_cast<std::uint32_t>(
      std::max_element(size.begin(), size.end()) - size.begin());
  for (std::size_t v = 0; v < pts.size(); ++v) {
    if (label[v] == largest) f.points.push_back(pts[v]);
  }
  return f;
}

RefGraph reference_udg(std::span<const geom::Vec2> pts, double side,
                       std::span<const std::uint8_t> alive) {
  const std::size_t n = pts.size();
  const auto w = static_cast<std::size_t>(std::floor(side)) + 1;
  const auto cell = [&](geom::Vec2 p) {
    const auto c = [&](double x) {
      return std::min(w - 1, static_cast<std::size_t>(std::max(0.0, x)));
    };
    return c(p.y) * w + c(p.x);
  };
  // Counting sort of the alive points into unit cells.
  std::vector<std::uint32_t> start(w * w + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (is_alive(alive, v)) ++start[cell(pts[v]) + 1];
  }
  for (std::size_t c = 0; c < w * w; ++c) start[c + 1] += start[c];
  std::vector<NodeId> members(start.back());
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (is_alive(alive, v)) members[fill[cell(pts[v])]++] = v;
  }

  RefGraph g;
  g.off.assign(n + 1, 0);
  std::vector<NodeId> row;
  for (NodeId u = 0; u < n; ++u) {
    row.clear();
    if (is_alive(alive, u)) {
      const std::size_t c = cell(pts[u]);
      const std::size_t cx = c % w;
      const std::size_t cy = c / w;
      for (std::size_t y = cy == 0 ? 0 : cy - 1; y <= std::min(cy + 1, w - 1);
           ++y) {
        for (std::size_t x = cx == 0 ? 0 : cx - 1;
             x <= std::min(cx + 1, w - 1); ++x) {
          const std::size_t k = y * w + x;
          for (std::uint32_t i = start[k]; i < start[k + 1]; ++i) {
            const NodeId v = members[i];
            if (v != u && d2(pts[u], pts[v]) <= 1.0) row.push_back(v);
          }
        }
      }
      std::sort(row.begin(), row.end());
    }
    g.adj.insert(g.adj.end(), row.begin(), row.end());
    g.off[u + 1] = static_cast<std::uint32_t>(g.adj.size());
  }
  return g;
}

std::vector<NodeId> brute_force_neighbours(std::span<const geom::Vec2> pts,
                                           NodeId u) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < pts.size(); ++v) {
    if (v != u && d2(pts[u], pts[v]) <= 1.0) out.push_back(v);
  }
  return out;
}

std::vector<std::uint32_t> hop_distances(const RefGraph& g, NodeId src) {
  std::vector<std::uint32_t> dist(g.n(), kUnset);
  std::vector<NodeId> queue{src};
  dist[src] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (const NodeId v : g.nbrs(u)) {
      if (dist[v] == kUnset) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::size_t components(const RefGraph& g, std::span<const std::uint8_t> alive,
                       std::vector<std::uint32_t>& label) {
  label.assign(g.n(), kUnset);
  std::vector<NodeId> queue;
  std::uint32_t count = 0;
  for (NodeId s = 0; s < g.n(); ++s) {
    if (!is_alive(alive, s) || label[s] != kUnset) continue;
    label[s] = count;
    queue.assign(1, s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (const NodeId v : g.nbrs(queue[head])) {
        if (is_alive(alive, v) && label[v] == kUnset) {
          label[v] = count;
          queue.push_back(v);
        }
      }
    }
    ++count;
  }
  return count;
}

std::string check_cds_forest(const RefGraph& g,
                             std::span<const std::uint8_t> alive,
                             std::span<const NodeId> set) {
  std::vector<std::uint8_t> in(g.n(), 0);
  for (const NodeId v : set) {
    if (v >= g.n() || !is_alive(alive, v)) {
      return "member " + std::to_string(v) + " is not a live node";
    }
    if (in[v]) return "member " + std::to_string(v) + " is listed twice";
    in[v] = 1;
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    if (!is_alive(alive, v) || in[v]) continue;
    const auto nb = g.nbrs(v);
    if (std::none_of(nb.begin(), nb.end(), [&](NodeId u) { return in[u]; })) {
      return "node " + std::to_string(v) + " is undominated";
    }
  }
  // Every topology component holds a member (domination), and members
  // of one G[set] component share a topology component, so G[set] is
  // connected inside each topology component iff the counts agree.
  std::vector<std::uint32_t> label;
  const std::size_t topo = components(g, alive, label);
  const std::size_t backbone = components(g, in, label);
  if (backbone != topo) {
    return "backbone has " + std::to_string(backbone) + " components over " +
           std::to_string(topo) + " topology components";
  }
  return {};
}

std::string check_mis(const RefGraph& g, std::span<const std::uint8_t> alive,
                      std::span<const NodeId> set) {
  std::vector<std::uint8_t> in(g.n(), 0);
  for (const NodeId v : set) {
    if (v >= g.n() || !is_alive(alive, v) || in[v]) {
      return "MIS member " + std::to_string(v) + " is dead or repeated";
    }
    in[v] = 1;
  }
  for (NodeId v = 0; v < g.n(); ++v) {
    if (!is_alive(alive, v)) continue;
    const auto nb = g.nbrs(v);
    const bool covered =
        std::any_of(nb.begin(), nb.end(), [&](NodeId u) { return in[u]; });
    if (in[v] && covered) {
      return "MIS member " + std::to_string(v) + " has an MIS neighbour";
    }
    if (!in[v] && !covered) {
      return "node " + std::to_string(v) + " has no MIS neighbour";
    }
  }
  return {};
}

}  // namespace perfbench
