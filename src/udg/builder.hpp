#pragma once

#include <cstdint>
#include <span>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"

/// \file builder.hpp
/// Unit-disk graph construction: nodes are points; {u, v} is an edge iff
/// |uv| <= radius. Points are counting-sorted into radius-sized cells,
/// each point is tested only against the 3×3 block of cells around its
/// own, and the adjacency is written straight into the CSR arrays — O(n)
/// expected for bounded densities (vs the naive O(n^2)).

namespace mcds::par {
class ThreadPool;
}  // namespace mcds::par

namespace mcds::udg {

/// Builds the unit-disk graph over \p points with communication radius
/// \p radius (default 1, the paper's normalization). Points exactly at
/// distance `radius` are connected (closed-disk model, matching the
/// paper's "distance at most one"). Throws std::invalid_argument naming
/// the node if a coordinate is NaN or ±inf, or so large that
/// floor(coordinate / radius) leaves ±2^62.
[[nodiscard]] graph::Graph build_udg(std::span<const geom::Vec2> points,
                                     double radius = 1.0);

/// build_udg with the candidate sweep fanned over \p pool in ranges of
/// occupied cells. Each range writes its own rows, which are joined in
/// cell order before the one transpose pass, so the CSR is bit-identical
/// to the serial builder at every thread count.
[[nodiscard]] graph::Graph build_udg(std::span<const geom::Vec2> points,
                                     double radius, par::ThreadPool& pool);

/// Reference quadratic implementation, used to cross-check build_udg in
/// tests. Throws std::invalid_argument naming the node if a coordinate
/// is NaN or ±inf.
[[nodiscard]] graph::Graph build_udg_naive(std::span<const geom::Vec2> points,
                                           double radius = 1.0);

namespace detail {

/// Throws std::invalid_argument ("<who>: node <v> ...") unless both
/// coordinates of \p p are finite and floor(p / radius) lies within
/// ±2^62, the range the cell grids index.
void check_position(geom::Vec2 p, double radius, graph::NodeId v,
                    const char* who);

/// The one builder body behind both build_udg overloads and
/// GridIndex::build_graph(). Nodes whose \p alive flag is 0 stay isolated
/// (an empty span means every node is alive); \p pool may be null.
[[nodiscard]] graph::Graph build_udg(std::span<const geom::Vec2> points,
                                     double radius,
                                     std::span<const std::uint8_t> alive,
                                     par::ThreadPool* pool);

}  // namespace detail

}  // namespace mcds::udg
