#include "udg/instance.hpp"

#include <gtest/gtest.h>

#include "graph/traversal.hpp"
#include "udg/builder.hpp"

namespace mcds::udg {
namespace {

TEST(Instance, GenerateBasics) {
  InstanceParams params;
  params.nodes = 80;
  params.side = 8.0;
  const auto inst = generate_instance(params, 11);
  EXPECT_EQ(inst.points.size(), 80u);
  EXPECT_EQ(inst.graph.num_nodes(), 80u);
  EXPECT_EQ(inst.seed, 11u);
  EXPECT_DOUBLE_EQ(inst.radius, 1.0);
  // Graph matches a rebuild from the points.
  EXPECT_EQ(inst.graph.edges(), build_udg(inst.points).edges());
}

TEST(Instance, ZeroNodesThrows) {
  InstanceParams params;
  params.nodes = 0;
  EXPECT_THROW((void)generate_instance(params, 1), std::invalid_argument);
}

TEST(Instance, DeterministicForSeed) {
  InstanceParams params;
  params.nodes = 40;
  const auto a = generate_instance(params, 5);
  const auto b = generate_instance(params, 5);
  EXPECT_EQ(a.graph.edges(), b.graph.edges());
  const auto c = generate_instance(params, 6);
  EXPECT_NE(a.graph.edges(), c.graph.edges());
}

TEST(Instance, ConnectedInstanceIsConnected) {
  InstanceParams params;
  params.nodes = 60;
  params.side = 6.0;  // dense enough to be connectable
  const auto inst = generate_connected_instance(params, 3);
  ASSERT_TRUE(inst.has_value());
  EXPECT_TRUE(graph::is_connected(inst->graph));
  EXPECT_EQ(inst->seed, 3u);
}

TEST(Instance, HopelessDensityReturnsNullopt) {
  InstanceParams params;
  params.nodes = 10;
  params.side = 500.0;  // virtually never connected
  params.max_retries = 3;
  EXPECT_FALSE(generate_connected_instance(params, 1).has_value());
}

TEST(Instance, LargestComponentAlwaysConnected) {
  InstanceParams params;
  params.nodes = 30;
  params.side = 40.0;  // sparse: many components
  params.max_retries = 2;
  const auto inst = generate_largest_component_instance(params, 7);
  EXPECT_GE(inst.points.size(), 1u);
  EXPECT_LE(inst.points.size(), 30u);
  EXPECT_TRUE(graph::is_connected(inst.graph));
  EXPECT_EQ(inst.points.size(), inst.graph.num_nodes());
}

TEST(Instance, LargestComponentFallbackComesFromTheSeedsOwnDraw) {
  // Too sparse to connect, so every redraw fails and the fallback runs.
  // Its points must be an order-preserving subset of the seed's own draw
  // (generate_instance with the same seed), not of the last redraw.
  InstanceParams params;
  params.nodes = 40;
  params.side = 30.0;
  params.max_retries = 3;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ASSERT_FALSE(generate_connected_instance(params, seed).has_value());
    const auto drawn = generate_instance(params, seed).points;
    const auto kept = generate_largest_component_instance(params, seed);
    ASSERT_LT(kept.points.size(), drawn.size());
    std::size_t next = 0;  // greedy subsequence match, exact coordinates
    for (const auto& p : kept.points) {
      while (next < drawn.size() &&
             !(drawn[next].x == p.x && drawn[next].y == p.y)) {
        ++next;
      }
      ASSERT_LT(next, drawn.size()) << "seed " << seed;
      ++next;
    }
    EXPECT_TRUE(graph::is_connected(kept.graph));
  }
}

TEST(Instance, LargestComponentKeepsDenseInstancesWhole) {
  InstanceParams params;
  params.nodes = 60;
  params.side = 6.0;
  const auto inst = generate_largest_component_instance(params, 3);
  EXPECT_EQ(inst.points.size(), 60u);
}

}  // namespace
}  // namespace mcds::udg
