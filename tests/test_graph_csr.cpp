// Differential tests for the CSR graph storage: the flat
// offsets_/neighbors_ layout must present exactly the adjacency the
// historical vector-of-vectors representation (NestedGraph) holds, on
// random unit-disk graphs and on the degenerate shapes where an
// off-by-one in the row boundaries would hide (isolated nodes, complete
// graphs, a single node, the empty graph).

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/graph.hpp"
#include "graph/traversal.hpp"
#include "udg/instance.hpp"

namespace {

using mcds::graph::FrozenGraph;
using mcds::graph::Graph;
using mcds::graph::NestedGraph;
using mcds::graph::NestedView;
using mcds::graph::NodeId;

std::vector<NodeId> sorted(std::span<const NodeId> xs) {
  std::vector<NodeId> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}

// The CSR view and the nested oracle must agree node-by-node on degree
// and neighbor set, and the CSR must keep each row sorted ascending.
void expect_layouts_agree(const Graph& g) {
  ASSERT_TRUE(g.finalized());
  const FrozenGraph fg(g);
  const NestedGraph nested(g);
  ASSERT_EQ(fg.num_nodes(), g.num_nodes());
  ASSERT_EQ(nested.num_nodes(), g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(fg.degree(u), nested.degree(u)) << "node " << u;
    const auto row = fg.neighbors(u);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "node " << u;
    EXPECT_EQ(sorted(row), sorted(nested.neighbors(u))) << "node " << u;
  }
}

TEST(GraphCsr, OffsetsInvariants) {
  const auto inst = mcds::udg::generate_instance({.nodes = 300}, 7);
  const Graph& g = inst.graph;
  const auto offsets = g.offsets();
  ASSERT_EQ(offsets.size(), g.num_nodes() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end()));
  EXPECT_EQ(offsets.back(), 2 * g.num_edges());
  EXPECT_EQ(g.flat_neighbors().size(), 2 * g.num_edges());
}

TEST(GraphCsr, DifferentialRandomUdg) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = mcds::udg::generate_instance(
        {.nodes = 200, .side = 12.0}, seed);
    expect_layouts_agree(inst.graph);
  }
}

TEST(GraphCsr, DifferentialBfsOrders) {
  // BFS order exercises row boundaries in visit order; nested-replay
  // graphs and CSR graphs must induce the same traversal.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = mcds::udg::generate_instance(
        {.nodes = 150, .side = 9.0}, seed);
    const auto& g = inst.graph;
    const NestedGraph nested(g);
    // Rebuild a Graph from the nested layout's edges and compare BFS.
    Graph rebuilt(g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (const NodeId v : nested.neighbors(u)) {
        if (u < v) rebuilt.add_edge(u, v);
      }
    }
    rebuilt.finalize();
    const auto a = mcds::graph::bfs(g, 0);
    const auto b = mcds::graph::bfs(rebuilt, 0);
    EXPECT_EQ(a.order, b.order) << "seed " << seed;
    EXPECT_EQ(a.parent, b.parent) << "seed " << seed;
    EXPECT_EQ(a.level, b.level) << "seed " << seed;
  }
}

TEST(GraphCsr, IsolatedNodesHaveEmptyRows) {
  Graph g(5);
  g.add_edge(1, 3);
  g.finalize();
  expect_layouts_agree(g);
  const FrozenGraph fg(g);
  for (const NodeId u : {0u, 2u, 4u}) {
    EXPECT_EQ(fg.degree(u), 0u);
    EXPECT_TRUE(fg.neighbors(u).empty());
  }
  EXPECT_EQ(fg.degree(1), 1u);
  EXPECT_EQ(fg.neighbors(3).front(), 1u);
}

TEST(GraphCsr, CompleteGraph) {
  constexpr std::size_t n = 17;
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.finalize();
  EXPECT_EQ(g.num_edges(), n * (n - 1) / 2);
  expect_layouts_agree(g);
  const FrozenGraph fg(g);
  for (NodeId u = 0; u < n; ++u) {
    EXPECT_EQ(fg.degree(u), n - 1);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(fg.has_edge(u, v), u != v);
    }
  }
}

TEST(GraphCsr, SingleNodeAndEmptyGraph) {
  Graph one(1);
  one.finalize();
  expect_layouts_agree(one);
  EXPECT_EQ(FrozenGraph(one).degree(0), 0u);

  Graph empty;
  empty.finalize();
  const FrozenGraph fg(empty);
  EXPECT_EQ(fg.num_nodes(), 0u);
  expect_layouts_agree(empty);
}

TEST(GraphCsr, ThawRefreezeRoundTrip) {
  // add_edge on a finalized graph must re-stage the CSR and finalize()
  // must rebuild it with the new edge merged in sorted position.
  Graph g(4);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  g.finalize();
  ASSERT_TRUE(g.finalized());
  g.add_edge(0, 1);
  EXPECT_FALSE(g.finalized());
  g.finalize();
  EXPECT_EQ(g.num_edges(), 3u);
  const std::vector<NodeId> expected{1, 2};
  EXPECT_EQ(sorted(g.neighbors(0)), expected);
  expect_layouts_agree(g);
}

TEST(GraphCsr, FailedAddEdgeLeavesFinalizedStateIntact) {
  // Argument validation happens before the thaw: a rejected add_edge on
  // a finalized graph must not drop the CSR or flip the thaw state.
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  EXPECT_THROW(g.add_edge(0, 7), std::invalid_argument);
  EXPECT_THROW(g.add_edge(2, 2), std::invalid_argument);
  EXPECT_TRUE(g.finalized());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphCsr, ThawedAdjacencyStaysSymmetric) {
  // Every committed edge must appear in both endpoint lists — add_edge
  // pre-grows both before inserting, so there is no state in which an
  // edge exists in one direction only. Verify by replaying a random
  // graph through repeated thaw/refreeze cycles and diffing against a
  // one-shot build.
  const auto inst = mcds::udg::generate_instance({.nodes = 120}, 11);
  const auto all = inst.graph.edges();
  Graph cycled(inst.graph.num_nodes());
  std::size_t next = 0;
  // Feed edges in four chunks, finalizing between chunks so chunks 2-4
  // go through the thaw path.
  for (int chunk = 0; chunk < 4; ++chunk) {
    const std::size_t stop =
        chunk == 3 ? all.size() : (all.size() * (chunk + 1)) / 4;
    for (; next < stop; ++next) cycled.add_edge(all[next].first, all[next].second);
    cycled.finalize();
    ASSERT_TRUE(cycled.finalized());
    for (NodeId u = 0; u < cycled.num_nodes(); ++u) {
      for (const NodeId v : cycled.neighbors(u)) {
        EXPECT_TRUE(cycled.has_edge(v, u)) << u << "-" << v;
      }
    }
  }
  const auto co = cycled.offsets();
  const auto io = inst.graph.offsets();
  EXPECT_TRUE(std::equal(co.begin(), co.end(), io.begin(), io.end()));
  const auto cn = cycled.flat_neighbors();
  const auto in = inst.graph.flat_neighbors();
  EXPECT_TRUE(std::equal(cn.begin(), cn.end(), in.begin(), in.end()));
}

TEST(GraphCsr, DuplicateEdgesCollapse) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 1u);
}

TEST(GraphCsr, FrozenViewRequiresFinalized) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.finalized());
  EXPECT_THROW(FrozenGraph{g}, std::logic_error);
  g.finalize();
  EXPECT_NO_THROW(FrozenGraph{g});
}

TEST(GraphCsr, NestedViewMirrorsNestedGraph) {
  const auto inst = mcds::udg::generate_instance({.nodes = 80}, 3);
  const NestedGraph nested(inst.graph);
  const NestedView view(nested);
  ASSERT_EQ(view.num_nodes(), nested.num_nodes());
  for (NodeId u = 0; u < view.num_nodes(); ++u) {
    EXPECT_EQ(view.degree(u), nested.degree(u));
    EXPECT_EQ(sorted(view.neighbors(u)), sorted(nested.neighbors(u)));
  }
}

TEST(GraphCsr, EdgeListConstructorMatchesIncremental) {
  const std::vector<std::pair<NodeId, NodeId>> edges{
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Graph from_list(4, edges);
  Graph incremental(4);
  for (const auto& [u, v] : edges) incremental.add_edge(u, v);
  incremental.finalize();
  EXPECT_EQ(from_list.edges(), incremental.edges());
  expect_layouts_agree(from_list);
}

TEST(GraphCsr, AdoptedCsrEqualsFinalizedBuild) {
  // The adopting constructor must yield the graph add_edge + finalize()
  // builds from the same edges: same arrays, same counts, same queries.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = mcds::udg::generate_instance(
        {.nodes = 150, .side = 8.0}, seed);
    Graph built(inst.graph.num_nodes());
    for (const auto& [u, v] : inst.graph.edges()) built.add_edge(v, u);
    built.finalize();
    const auto off = built.offsets();
    const auto adj = built.flat_neighbors();
    const Graph adopted(built.num_nodes(),
                        std::vector<std::uint32_t>(off.begin(), off.end()),
                        std::vector<NodeId>(adj.begin(), adj.end()));
    EXPECT_TRUE(adopted.finalized());
    EXPECT_EQ(adopted.num_edges(), built.num_edges());
    EXPECT_EQ(adopted.edges(), built.edges());
    EXPECT_TRUE(std::ranges::equal(adopted.offsets(), off));
    EXPECT_TRUE(std::ranges::equal(adopted.flat_neighbors(), adj));
    expect_layouts_agree(adopted);
  }
  const Graph empty(0, {0}, {});
  EXPECT_EQ(empty.num_nodes(), 0u);
  const Graph isolated(3, {0, 0, 0, 0}, {});
  EXPECT_EQ(isolated.num_edges(), 0u);
  EXPECT_EQ(isolated.degree(2), 0u);
}

TEST(GraphCsr, AdoptingConstructorRejectsMalformedArrays) {
  using Off = std::vector<std::uint32_t>;
  using Adj = std::vector<NodeId>;
  // The path 0 - 1 - 2 is well formed.
  EXPECT_NO_THROW(Graph(3, Off{0, 1, 3, 4}, Adj{1, 0, 2, 1}));
  // offsets size != n + 1.
  EXPECT_THROW(Graph(3, Off{0, 1, 3}, Adj{1, 0, 2}), std::invalid_argument);
  EXPECT_THROW(Graph(2, Off{0, 1, 3, 4}, Adj{1, 0, 2, 1}),
               std::invalid_argument);
  EXPECT_THROW(Graph(0, Off{}, Adj{}), std::invalid_argument);
  // offsets not monotone (the decrease comes before the end is reached).
  EXPECT_THROW(Graph(3, Off{0, 3, 1, 4}, Adj{1, 0, 2, 1}),
               std::invalid_argument);
  // offsets must start at 0.
  EXPECT_THROW(Graph(3, Off{1, 1, 3, 4}, Adj{1, 0, 2, 1}),
               std::invalid_argument);
  // offsets.back() != neighbors.size().
  EXPECT_THROW(Graph(3, Off{0, 1, 3, 3}, Adj{1, 0, 2, 1}),
               std::invalid_argument);
  EXPECT_THROW(Graph(3, Off{0, 1, 3, 5}, Adj{1, 0, 2, 1}),
               std::invalid_argument);
  // A neighbour out of range.
  EXPECT_THROW(Graph(3, Off{0, 1, 3, 4}, Adj{1, 0, 3, 1}),
               std::invalid_argument);
  EXPECT_THROW(Graph(3, Off{0, 1, 3, 4}, Adj{1, 0, 2, 7}),
               std::invalid_argument);
}

}  // namespace
