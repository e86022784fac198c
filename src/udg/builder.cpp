#include "udg/builder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"

namespace mcds::udg {

using geom::Vec2;
using graph::Graph;
using graph::NodeId;

namespace {

// A cell packed as (row << col_bits) | col, row and column counted from
// the lowest occupied ones, so keys order cells row-major. Each index
// spans up to 2^63 cells, hence 128 bits.
__extension__ using CellKey = unsigned __int128;

// Cell indices are kept within ±2^62: spans then fit in 64 bits, and
// the cast from double is defined.
constexpr double kMaxCell = 0x1p62;

// The counting sort uses digits of at most 11 bits (2048 buckets).
constexpr unsigned kMaxDigitBits = 11;

[[noreturn]] void reject(Vec2 p, NodeId v, const char* who) {
  const bool finite = std::isfinite(p.x) && std::isfinite(p.y);
  throw std::invalid_argument(
      std::string(who) + ": node " + std::to_string(v) +
      (finite ? " lies too far out for the radius (cell index beyond 2^62)"
              : " has a non-finite coordinate"));
}

// The points in cell order.
struct SortedCells {
  std::vector<NodeId> order;  // slot -> node id; ids ascend within a cell
  std::vector<Vec2> pos;      // slot -> position
  std::vector<CellKey> key;   // occupied cells, ascending
  std::vector<std::uint32_t> first;  // cell -> first slot; size cells + 1
  unsigned col_bits = 0;
};

// Steps 1-2: each point's cell, exactly floor(p / radius) per axis (the
// coordinate check rides in the same pass), then an LSD counting sort on
// the packed key over only the bits that vary. The sort is stable, so
// ids ascend within each cell.
SortedCells sort_into_cells(std::span<const Vec2> points, double radius,
                            std::span<const std::uint8_t> alive) {
  std::vector<NodeId> ids;
  std::vector<CellKey> keys;
  ids.reserve(points.size());
  keys.reserve(points.size());
  std::int64_t min_x = std::numeric_limits<std::int64_t>::max();
  std::int64_t min_y = min_x;
  std::int64_t max_x = std::numeric_limits<std::int64_t>::min();
  std::int64_t max_y = max_x;
  for (NodeId v = 0; v < points.size(); ++v) {
    if (!alive.empty() && alive[v] == 0) continue;
    const double fx = std::floor(points[v].x / radius);
    const double fy = std::floor(points[v].y / radius);
    if (!(std::abs(fx) <= kMaxCell && std::abs(fy) <= kMaxCell)) {
      reject(points[v], v, "build_udg");
    }
    const auto x = static_cast<std::int64_t>(fx);
    const auto y = static_cast<std::int64_t>(fy);
    min_x = std::min(min_x, x);
    max_x = std::max(max_x, x);
    min_y = std::min(min_y, y);
    max_y = std::max(max_y, y);
    ids.push_back(v);
    keys.push_back((CellKey{static_cast<std::uint64_t>(y)} << 64) |
                   static_cast<std::uint64_t>(x));
  }
  SortedCells sc;
  const std::size_t k = ids.size();
  if (k == 0) return sc;

  // One spare column value, so that col + 1 never carries into the row.
  const auto span_x = static_cast<std::uint64_t>(max_x) -
                      static_cast<std::uint64_t>(min_x);
  const auto span_y = static_cast<std::uint64_t>(max_y) -
                      static_cast<std::uint64_t>(min_y);
  sc.col_bits = static_cast<unsigned>(std::bit_width(span_x + 1));
  const unsigned bits =
      sc.col_bits + static_cast<unsigned>(std::bit_width(span_y));
  for (CellKey& key : keys) {
    const auto x = static_cast<std::uint64_t>(key) -
                   static_cast<std::uint64_t>(min_x);
    const auto y = static_cast<std::uint64_t>(key >> 64) -
                   static_cast<std::uint64_t>(min_y);
    key = (CellKey{y} << sc.col_bits) | x;
  }

  const unsigned passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned width = (bits + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  std::vector<std::size_t> count(std::size_t{1} << width);
  {
    std::vector<NodeId> ids_out(k);
    std::vector<CellKey> keys_out(k);
    for (unsigned pass = 0; pass < passes; ++pass) {
      const unsigned shift = pass * width;
      const auto digit = [shift, mask](CellKey key) {
        return static_cast<std::size_t>(
            static_cast<std::uint64_t>(key >> shift) & mask);
      };
      std::fill(count.begin(), count.end(), 0);
      for (const CellKey key : keys) ++count[digit(key)];
      std::exclusive_scan(count.begin(), count.end(), count.begin(),
                          std::size_t{0});
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t at = count[digit(keys[i])]++;
        keys_out[at] = keys[i];
        ids_out[at] = ids[i];
      }
      keys.swap(keys_out);
      ids.swap(ids_out);
    }
  }

  for (std::size_t s = 0; s < k; ++s) {
    if (s == 0 || keys[s] != keys[s - 1]) {
      sc.key.push_back(keys[s]);
      sc.first.push_back(static_cast<std::uint32_t>(s));
    }
  }
  sc.first.push_back(static_cast<std::uint32_t>(k));
  sc.pos.resize(k);
  for (std::size_t s = 0; s < k; ++s) sc.pos[s] = points[ids[s]];
  sc.order = std::move(ids);
  return sc;
}

// Every slot's neighbour ids (unordered), slot after slot.
struct SlotRows {
  std::vector<NodeId> order;         // slot -> node id
  std::vector<NodeId> nbrs;
  std::vector<std::uint32_t> begin;  // slot -> first entry; size slots + 1
};

// Steps 3-4: for each occupied cell, find the cells of its 3×3 block in
// the sorted keys and test its points against theirs. A pooled build
// fans out over ranges of cells; each range fills its own rows, and the
// ranges are joined in cell order.
SlotRows sweep(const SortedCells& sc, double radius, par::ThreadPool* pool) {
  const std::size_t cells = sc.key.size();
  const std::size_t k = sc.order.size();
  const double r2 = radius * radius;
  const unsigned col_bits = sc.col_bits;
  const CellKey col_mask = (CellKey{1} << col_bits) - 1;
  // Serial: one range. Pooled: about eight ranges per worker, of at
  // least 64 cells each.
  const std::size_t grain =
      pool == nullptr
          ? cells
          : std::max<std::size_t>(64, (cells - 1) / (pool->size() * 8) + 1);
  const std::size_t chunks = (cells - 1) / grain + 1;

  std::vector<std::vector<NodeId>> part_rows(chunks);
  std::vector<std::uint32_t> degree(k + 1);
  par::parallel_for(pool, cells, grain, [&](std::size_t c_begin,
                                            std::size_t c_end,
                                            std::size_t chunk) {
    auto& out = part_rows[chunk];
    std::size_t len = 0;
    // key[lo[d] .. hi[d]) are the occupied cells of row y + d - 1 with
    // column in [x - 1, x + 1]. Both bounds only move forward as the
    // cells (x, y) are visited in key order; they start at row y - 1 of
    // the range's first cell.
    const CellKey y0 = sc.key[c_begin] >> col_bits;
    const auto start = static_cast<std::size_t>(
        std::lower_bound(sc.key.begin(), sc.key.end(),
                         y0 == 0 ? CellKey{0} : (y0 - 1) << col_bits) -
        sc.key.begin());
    std::array<std::size_t, 3> lo{start, start, start};
    std::array<std::size_t, 3> hi = lo;
    for (std::size_t c = c_begin; c < c_end; ++c) {
      const CellKey y = sc.key[c] >> col_bits;
      const CellKey x = sc.key[c] & col_mask;
      std::array<std::pair<std::uint32_t, std::uint32_t>, 3> slots{};
      std::size_t candidates = 0;
      for (std::size_t d = 0; d < 3; ++d) {
        if (y + d == 0) continue;  // no row below the lowest one
        const CellKey row = (y + d - 1) << col_bits;
        const CellKey from = row + (x == 0 ? 0 : x - 1);
        const CellKey to = row + x + 2;
        while (lo[d] < cells && sc.key[lo[d]] < from) ++lo[d];
        hi[d] = std::max(hi[d], lo[d]);
        while (hi[d] < cells && sc.key[hi[d]] < to) ++hi[d];
        slots[d] = {sc.first[lo[d]], sc.first[hi[d]]};
        candidates += slots[d].second - slots[d].first;
      }
      for (std::uint32_t s = sc.first[c]; s < sc.first[c + 1]; ++s) {
        if (out.size() < len + candidates) {
          out.resize(std::max(len + candidates, 2 * out.size()));
        }
        const Vec2 p = sc.pos[s];
        const std::size_t row_start = len;
        for (const auto& [a, b] : slots) {
          for (std::uint32_t t = a; t < b; ++t) {
            out[len] = sc.order[t];
            len += static_cast<std::size_t>(
                t != s && geom::dist2(p, sc.pos[t]) <= r2);
          }
        }
        degree[s] = static_cast<std::uint32_t>(len - row_start);
      }
    }
    out.resize(len);
  });

  std::size_t total = 0;
  for (const auto& rows : part_rows) total += rows.size();
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("build_udg: adjacency exceeds 32-bit CSR");
  }
  SlotRows out;
  if (chunks == 1) {
    out.nbrs = std::move(part_rows.front());
  } else {
    out.nbrs.reserve(total);
    for (auto& rows : part_rows) {
      out.nbrs.insert(out.nbrs.end(), rows.begin(), rows.end());
      rows = {};
    }
  }
  std::exclusive_scan(degree.begin(), degree.end(), degree.begin(),
                      std::uint32_t{0});
  out.begin = std::move(degree);
  return out;
}

// Step 5: one transpose pass. Visiting v in ascending id order and
// appending v to the row of each of its neighbours leaves every row
// ascending, with no sort.
Graph transpose(std::size_t n, const SlotRows& rows) {
  std::vector<std::uint32_t> rank(n);
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (std::size_t s = 0; s < rows.order.size(); ++s) {
    rank[rows.order[s]] = static_cast<std::uint32_t>(s);
    offsets[rows.order[s] + 1] = rows.begin[s + 1] - rows.begin[s];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<NodeId> nbrs(offsets[n]);
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (offsets[v] == offsets[v + 1]) continue;  // isolated or dead
    const std::uint32_t s = rank[v];
    for (std::uint32_t e = rows.begin[s]; e < rows.begin[s + 1]; ++e) {
      nbrs[cursor[rows.nbrs[e]]++] = v;
    }
  }
  return Graph(n, std::move(offsets), std::move(nbrs));
}

}  // namespace

void detail::check_position(Vec2 p, double radius, NodeId v,
                            const char* who) {
  if (!(std::abs(std::floor(p.x / radius)) <= kMaxCell &&
        std::abs(std::floor(p.y / radius)) <= kMaxCell)) {
    reject(p, v, who);
  }
}

Graph detail::build_udg(std::span<const Vec2> points, double radius,
                        std::span<const std::uint8_t> alive,
                        par::ThreadPool* pool) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("build_udg: radius must be positive");
  }
  if (points.size() > std::numeric_limits<NodeId>::max()) {
    throw std::length_error("build_udg: too many points for 32-bit ids");
  }
  SlotRows rows;
  {
    SortedCells sc = sort_into_cells(points, radius, alive);
    if (sc.order.size() < 2) return Graph(points.size());
    rows = sweep(sc, radius, pool);
    rows.order = std::move(sc.order);
  }  // positions and the cell index are freed before the transpose
  return transpose(points.size(), rows);
}

Graph build_udg(std::span<const Vec2> points, double radius) {
  return detail::build_udg(points, radius, {}, nullptr);
}

Graph build_udg(std::span<const Vec2> points, double radius,
                par::ThreadPool& pool) {
  return detail::build_udg(points, radius, {}, &pool);
}

Graph build_udg_naive(std::span<const Vec2> points, double radius) {
  if (!(radius > 0.0)) {
    throw std::invalid_argument("build_udg_naive: radius must be positive");
  }
  for (NodeId i = 0; i < points.size(); ++i) {
    if (!std::isfinite(points[i].x) || !std::isfinite(points[i].y)) {
      reject(points[i], i, "build_udg_naive");
    }
  }
  Graph g(points.size());
  const double r2 = radius * radius;
  for (NodeId i = 0; i < points.size(); ++i) {
    for (NodeId j = i + 1; j < points.size(); ++j) {
      if (geom::dist2(points[i], points[j]) <= r2) g.add_edge(i, j);
    }
  }
  g.finalize();
  return g;
}

}  // namespace mcds::udg
