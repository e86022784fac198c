#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/vec2.hpp"
#include "graph/graph.hpp"
#include "sim/rng.hpp"
#include "udg/deployment.hpp"

/// \file instance.hpp
/// A generated UDG workload instance: the deployed points plus the
/// induced unit-disk graph, with helpers to obtain *connected* instances
/// (all CDS algorithms and all of the paper's bounds assume a connected
/// topology).

namespace mcds::udg {

/// A unit-disk graph instance.
struct UdgInstance {
  std::vector<geom::Vec2> points;  ///< node positions
  graph::Graph graph;              ///< induced UDG (radius below)
  double radius = 1.0;             ///< communication radius
  std::uint64_t seed = 0;          ///< seed that produced this instance
};

/// Parameters for random instance generation.
struct InstanceParams {
  DeploymentModel model = DeploymentModel::kUniformSquare;
  std::size_t nodes = 100;
  double side = 10.0;     ///< dominant extent of the deployment region
  double radius = 1.0;    ///< communication radius
  std::size_t max_retries = 200;  ///< attempts to hit a connected topology
};

/// Generates one instance from \p params and \p seed (no connectivity
/// requirement).
[[nodiscard]] UdgInstance generate_instance(const InstanceParams& params,
                                            std::uint64_t seed);

/// Generates a *connected* instance: redraws (up to max_retries) until
/// the topology is connected. Returns std::nullopt if no connected
/// topology was found — callers decide whether that is an error.
[[nodiscard]] std::optional<UdgInstance> generate_connected_instance(
    const InstanceParams& params, std::uint64_t seed);

/// Like generate_connected_instance but, when full connectivity cannot
/// be reached, keeps only the largest connected component of the seed's
/// own draw (generate_instance(params, seed)), in draw order; never fails
/// for nodes >= 1. The returned instance's points/graph are the
/// component.
[[nodiscard]] UdgInstance generate_largest_component_instance(
    const InstanceParams& params, std::uint64_t seed);

}  // namespace mcds::udg
