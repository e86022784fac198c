#include "udg/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "par/thread_pool.hpp"
#include "udg/deployment.hpp"

namespace mcds_test {
// Largest single allocation request seen (test_udg_builder_alloc.cpp).
extern std::atomic<std::size_t> g_largest_alloc;
}  // namespace mcds_test

namespace mcds::udg {
namespace {

using geom::Vec2;
using graph::Graph;

// Byte-identity of the two CSR arrays, not just the same edge set.
void expect_same_csr(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets()));
  EXPECT_TRUE(std::ranges::equal(got.flat_neighbors(), want.flat_neighbors()));
}

// build_udg, serial and pooled at 1, 2 and 4 threads, against the
// quadratic oracle.
void expect_matches_naive(const std::vector<Vec2>& pts, double radius) {
  const Graph naive = build_udg_naive(pts, radius);
  {
    SCOPED_TRACE("serial");
    expect_same_csr(build_udg(pts, radius), naive);
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    par::ThreadPool pool(threads);
    expect_same_csr(build_udg(pts, radius, pool), naive);
  }
}

// n points uniform in [x, x + w) × [y, y + w).
void add_box(std::vector<Vec2>& pts, sim::Rng& rng, std::size_t n, double x,
             double y, double w) {
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({x + rng.uniform(0, w), y + rng.uniform(0, w)});
  }
}

TEST(BuildUdg, TrivialSizes) {
  EXPECT_EQ(build_udg(std::vector<Vec2>{}).num_nodes(), 0u);
  const std::vector<Vec2> one{{1, 1}};
  EXPECT_EQ(build_udg(one).num_nodes(), 1u);
  EXPECT_EQ(build_udg(one).num_edges(), 0u);
}

TEST(BuildUdg, ExactDistanceOneIsAnEdge) {
  // The paper's model: edge iff distance at most one (closed disk).
  const std::vector<Vec2> pts{{0, 0}, {1, 0}, {2.0001, 0}};
  const auto g = build_udg(pts);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(BuildUdg, CustomRadius) {
  const std::vector<Vec2> pts{{0, 0}, {3, 0}};
  EXPECT_EQ(build_udg(pts, 2.9).num_edges(), 0u);
  EXPECT_EQ(build_udg(pts, 3.0).num_edges(), 1u);
  EXPECT_THROW((void)build_udg(pts, 0.0), std::invalid_argument);
  EXPECT_THROW((void)build_udg_naive(pts, -1.0), std::invalid_argument);
}

TEST(BuildUdg, NodesInSameCell) {
  const std::vector<Vec2> pts{{0.1, 0.1}, {0.2, 0.2}, {0.9, 0.9}};
  const auto g = build_udg(pts);
  // (0.1,0.1)-(0.9,0.9) is sqrt(1.28) > 1 apart; the other two pairs are
  // within 1.
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

// Property sweep: grid-hashed construction must be identical to the
// quadratic reference, including boundary-exact distances and negative
// coordinates.
class BuildUdgRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuildUdgRandom, MatchesNaive) {
  sim::Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_int(250);
  std::vector<Vec2> pts;
  pts.reserve(n);
  // Mix of scales, including negative coordinates (exercises cell
  // flooring) and duplicated positions (distance 0).
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(-6, 9), rng.uniform(-6, 9)});
  }
  if (n > 10) pts[5] = pts[3];
  const double radius = 0.5 + rng.uniform01() * 1.5;
  const auto fast = build_udg(pts, radius);
  const auto slow = build_udg_naive(pts, radius);
  ASSERT_EQ(fast.num_nodes(), slow.num_nodes());
  EXPECT_EQ(fast.num_edges(), slow.num_edges());
  expect_same_csr(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuildUdgRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(BuildUdgShapes, EmptyOneAndTwoPoints) {
  expect_matches_naive({}, 1.0);
  expect_matches_naive({{3, 4}}, 1.0);
  expect_matches_naive({{3, 4}, {3.5, 4}}, 1.0);  // adjacent
  expect_matches_naive({{3, 4}, {5, 4}}, 1.0);    // apart
}

TEST(BuildUdgShapes, FarApartClustersNeedNoBoundingBox) {
  // Two clusters 10^9 apart on both axes: a dense cell array over the
  // bounding box would need 10^18 cells. The builder's largest single
  // allocation must stay independent of that distance.
  sim::Rng rng(17);
  std::vector<Vec2> pts;
  add_box(pts, rng, 150, 0, 0, 6);
  add_box(pts, rng, 150, 1e9, 1e9, 6);
  add_box(pts, rng, 20, -1e9, 1e9, 2);
  mcds_test::g_largest_alloc = 0;
  const Graph g = build_udg(pts, 1.0);
  EXPECT_LT(mcds_test::g_largest_alloc.load(), std::size_t{1} << 20);
  EXPECT_GT(g.num_edges(), 0u);
  expect_matches_naive(pts, 1.0);
}

TEST(BuildUdgShapes, HugeCoordinatesPassThirtyTwoBitCells) {
  // Coordinates near ±10^12: at radius 1 the cell indices pass 2^32, at
  // radius 10^-3 they pass 2^48, and the two clusters span more than 64
  // bits of packed cell key.
  for (const double radius : {1.0, 1e-3}) {
    SCOPED_TRACE(::testing::Message() << "radius " << radius);
    sim::Rng rng(23);
    std::vector<Vec2> pts;
    add_box(pts, rng, 120, 1e12, -1e12, 6 * radius);
    add_box(pts, rng, 120, -1e12, 1e12, 6 * radius);
    add_box(pts, rng, 40, -1e12 - 3 * radius, -1e12, 4 * radius);
    ASSERT_GT(std::abs(std::floor(pts.front().x / radius)), 4294967296.0);
    const Graph g = build_udg(pts, radius);
    EXPECT_GT(g.num_edges(), 0u);
    expect_matches_naive(pts, radius);
  }
}

TEST(BuildUdgShapes, EveryPointInOneCell) {
  sim::Rng rng(5);
  std::vector<Vec2> pts;
  add_box(pts, rng, 200, 4.0, -7.0, 0.7);  // inside cell (4, -7)
  const Graph g = build_udg(pts, 1.0);
  EXPECT_EQ(g.num_edges(), 200u * 199u / 2);  // the box's diagonal is < 1
  expect_matches_naive(pts, 1.0);
  // Still one cell at radius 2, where the box fills most of it.
  add_box(pts, rng, 100, 4.0, -8.0, 1.99);
  expect_matches_naive(pts, 2.0);
}

TEST(BuildUdgShapes, CellBordersAndExactRadiusPairs) {
  // A lattice of spacing radius / 2 puts points on every cell border and
  // makes many pairs exactly `radius` apart across a border. 0.25 and 1
  // are exact in binary; 0.1 is not, so there cell and distance
  // rounding meet at the border.
  for (const double radius : {1.0, 0.25, 0.1}) {
    SCOPED_TRACE(::testing::Message() << "radius " << radius);
    std::vector<Vec2> pts;
    for (int i = -6; i <= 6; ++i) {
      for (int j = -6; j <= 6; ++j) {
        pts.push_back({i * radius / 2, j * radius / 2});
      }
    }
    pts.push_back({0.5 * radius, 0});   // exactly radius from the next one
    pts.push_back({1.5 * radius, 0});
    pts.push_back({-radius, -radius});  // a border corner
    expect_matches_naive(pts, radius);
  }
}

TEST(BuildUdgShapes, DuplicatePositions) {
  sim::Rng rng(9);
  std::vector<Vec2> pts;
  add_box(pts, rng, 40, 0, 0, 4);
  for (std::size_t i = 0; i < 40; ++i) pts.push_back(pts[i]);
  for (int i = 0; i < 5; ++i) pts.push_back({2, 2});
  const Graph g = build_udg(pts, 1.0);
  for (graph::NodeId i = 0; i < 40; ++i) EXPECT_TRUE(g.has_edge(i, i + 40));
  expect_matches_naive(pts, 1.0);
}

TEST(BuildUdgErrors, RejectsNonFiniteCoordinatesNamingTheNode) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Vec2 bad : {Vec2{nan, 0}, Vec2{0, nan}, Vec2{inf, 0},
                         Vec2{0, -inf}}) {
    const std::vector<Vec2> pts{{0, 0}, {0.5, 0}, bad, {1, 1}};
    for (const auto& build : {+[](std::span<const Vec2> p) {
                                return build_udg(p);
                              },
                              +[](std::span<const Vec2> p) {
                                return build_udg_naive(p);
                              },
                              +[](std::span<const Vec2> p) {
                                par::ThreadPool pool(2);
                                return build_udg(p, 1.0, pool);
                              }}) {
      try {
        (void)build(pts);
        ADD_FAILURE() << "accepted (" << bad.x << ", " << bad.y << ")";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("node 2"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(BuildUdgErrors, RejectsCellsBeyondTheGridRange) {
  // Finite, but floor(x / radius) would not fit the grid's ±2^62.
  const std::vector<Vec2> pts{{0, 0}, {1e300, 0}};
  EXPECT_THROW((void)build_udg(pts), std::invalid_argument);
  EXPECT_THROW((void)build_udg(std::vector<Vec2>{{0, 0}, {0, 1e10}}, 1e-9),
               std::invalid_argument);
  EXPECT_NO_THROW((void)build_udg(std::vector<Vec2>{{0, 0}, {0, 1e12}}, 1e-3));
}

}  // namespace
}  // namespace mcds::udg
