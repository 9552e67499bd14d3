#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"

namespace dvc {
namespace {

TEST(Orientation, StartsUnoriented) {
  Graph p = path_graph(3);
  Orientation o(p);
  EXPECT_EQ(o.num_oriented_edges(), 0);
  EXPECT_EQ(o.max_deficit(), 2);
  EXPECT_FALSE(o.is_complete());
  EXPECT_TRUE(o.is_acyclic());
  EXPECT_EQ(o.length(), 0);
}

TEST(Orientation, MirrorConsistency) {
  Graph p = path_graph(2);
  Orientation o(p);
  o.orient_out(0, 0);
  EXPECT_TRUE(o.is_out(0, 0));
  EXPECT_TRUE(o.is_in(1, 0));
  o.orient_in(0, 0);
  EXPECT_TRUE(o.is_in(0, 0));
  EXPECT_TRUE(o.is_out(1, 0));
  o.clear(0, 0);
  EXPECT_TRUE(o.is_unoriented(0, 0));
  EXPECT_TRUE(o.is_unoriented(1, 0));
}

TEST(Orientation, DegreesAndDeficit) {
  Graph s = star_graph(5);  // hub 0
  Orientation o(s);
  o.orient_out(0, 0);
  o.orient_out(0, 1);
  o.orient_in(0, 2);
  EXPECT_EQ(o.out_degree(0), 2);
  EXPECT_EQ(o.in_degree(0), 1);
  EXPECT_EQ(o.deficit(0), 1);
  EXPECT_EQ(o.max_out_degree(), 2);
}

TEST(Orientation, DetectsCycle) {
  Graph c = cycle_graph(3);
  Orientation o(c);
  o.orient_out(0, c.port_of(0, 1));
  o.orient_out(1, c.port_of(1, 2));
  o.orient_out(2, c.port_of(2, 0));
  EXPECT_FALSE(o.is_acyclic());
  EXPECT_THROW(o.topological_order_parents_first(), invariant_error);
  EXPECT_THROW(o.lengths(), invariant_error);
}

TEST(Orientation, LengthOfDirectedPath) {
  Graph p = path_graph(5);
  Orientation o(p);
  for (V v = 0; v + 1 < 5; ++v) o.orient_out(v, p.port_of(v, v + 1));
  EXPECT_TRUE(o.is_acyclic());
  EXPECT_EQ(o.length(), 4);
  const auto len = o.lengths();
  EXPECT_EQ(len[0], 4);
  EXPECT_EQ(len[4], 0);
}

TEST(Orientation, ParentsFirstOrderRespectsArrows) {
  Graph p = path_graph(4);
  Orientation o(p);
  for (V v = 0; v + 1 < 4; ++v) o.orient_out(v, p.port_of(v, v + 1));
  const auto order = o.topological_order_parents_first();
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  // Edge v -> v+1 (v+1 is v's parent): parent first.
  for (V v = 0; v + 1 < 4; ++v) EXPECT_LT(pos[static_cast<std::size_t>(v + 1)], pos[static_cast<std::size_t>(v)]);
}

TEST(Orientation, CompleteAcyclicLemma31) {
  // Partial orientation of a 4-cycle plus chords; completion must stay
  // acyclic and orient everything.
  Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  Orientation o(g);
  o.orient_out(0, g.port_of(0, 1));
  o.orient_out(2, g.port_of(2, 1));
  ASSERT_TRUE(o.is_acyclic());
  o.complete_acyclic();
  EXPECT_TRUE(o.is_complete());
  EXPECT_TRUE(o.is_acyclic());
  // Previously oriented edges keep their direction.
  EXPECT_TRUE(o.is_out(0, g.port_of(0, 1)));
  EXPECT_TRUE(o.is_out(2, g.port_of(2, 1)));
}

TEST(Orientation, CompleteAcyclicOnEmptyOrientation) {
  Graph k4 = complete_graph(4);
  Orientation o(k4);
  o.complete_acyclic();
  EXPECT_TRUE(o.is_complete());
  EXPECT_TRUE(o.is_acyclic());
  // A complete acyclic orientation of K4 has length exactly 3.
  EXPECT_EQ(o.length(), 3);
}

TEST(Orientation, AppendixALengthBoundsChromaticNumber) {
  // Appendix A: a complete acyclic orientation of length l yields a legal
  // (l+1)-coloring, hence l >= chi - 1. For K_n, chi = n, so any complete
  // acyclic orientation has length >= n-1.
  for (V n : {3, 5, 8}) {
    Graph k = complete_graph(n);
    Orientation o(k);
    o.complete_acyclic();
    EXPECT_GE(o.length(), n - 1);
  }
}

/// The two-pass lengths: a topological order first, then each vertex's
/// length from its already-placed parents.
std::vector<int> two_pass_lengths(const Graph& g, const Orientation& o) {
  std::vector<int> len(static_cast<std::size_t>(g.num_vertices()), 0);
  for (const V v : o.topological_order_parents_first()) {
    for (int p = 0; p < g.degree(v); ++p) {
      if (!o.is_out(v, p)) continue;
      len[static_cast<std::size_t>(v)] =
          std::max(len[static_cast<std::size_t>(v)],
                   1 + len[static_cast<std::size_t>(g.neighbor(v, p))]);
    }
  }
  return len;
}

TEST(Orientation, OnePassLengthsEqualTheTwoPassResult) {
  // Random partial orientations (acyclic: every arrow points down a random
  // rank), then their completions.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Graph g = random_gnm(300, 1200, seed);
    std::mt19937_64 rng(seed);
    std::vector<V> rank(static_cast<std::size_t>(g.num_vertices()));
    std::iota(rank.begin(), rank.end(), V{0});
    std::shuffle(rank.begin(), rank.end(), rng);
    const auto rank_of = [&](V v) { return rank[static_cast<std::size_t>(v)]; };
    Orientation o(g);
    for (V v = 0; v < g.num_vertices(); ++v) {
      for (int p = 0; p < g.degree(v); ++p) {
        const V u = g.neighbor(v, p);
        if (u < v || rng() % 3 == 0) continue;  // each edge once; some left
        if (rank_of(v) > rank_of(u)) {
          o.orient_out(v, p);
        } else {
          o.orient_in(v, p);
        }
      }
    }
    ASSERT_FALSE(o.is_complete());
    for (const bool complete : {false, true}) {
      SCOPED_TRACE(complete ? "complete" : "partial");
      if (complete) o.complete_acyclic();
      const std::vector<int> want = two_pass_lengths(g, o);
      EXPECT_EQ(o.lengths(), want);
      EXPECT_EQ(o.length(), *std::max_element(want.begin(), want.end()));
      EXPECT_GT(o.length(), 1);
    }
  }
}

TEST(Orientation, LengthOfADirectedCycleThrows) {
  // A directed 5-cycle hanging off an acyclic tail: no vertex of the cycle
  // can ever be placed.
  const Graph g = Graph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 0}, {6, 5}});
  Orientation o(g);
  for (V v = 0; v < 5; ++v) o.orient_out(v, g.port_of(v, (v + 1) % 5));
  o.orient_out(5, g.port_of(5, 0));
  o.orient_out(6, g.port_of(6, 5));
  EXPECT_FALSE(o.is_acyclic());
  EXPECT_THROW(o.lengths(), invariant_error);
  EXPECT_THROW(o.length(), invariant_error);
  EXPECT_THROW(o.topological_order_parents_first(), invariant_error);
}

}  // namespace
}  // namespace dvc
