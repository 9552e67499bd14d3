#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "common/prng.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"

namespace dvc {
namespace {

/// Number of connected components (BFS).
int component_count(const Graph& g) {
  const V n = g.num_vertices();
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
  int components = 0;
  for (V s = 0; s < n; ++s) {
    if (seen[static_cast<std::size_t>(s)]) continue;
    ++components;
    std::queue<V> q;
    q.push(s);
    seen[static_cast<std::size_t>(s)] = 1;
    while (!q.empty()) {
      const V v = q.front();
      q.pop();
      for (const V u : g.neighbors(v)) {
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = 1;
          q.push(u);
        }
      }
    }
  }
  return components;
}

/// Structural invariants every generator must satisfy: no self loops, no
/// duplicate edges (adjacency is strictly ordered per vertex), degree sum
/// equals 2m.
void check_simple_graph(const Graph& g) {
  std::int64_t degree_sum = 0;
  for (V v = 0; v < g.num_vertices(); ++v) {
    degree_sum += g.degree(v);
    V prev = -1;
    for (const V u : g.neighbors(v)) {
      EXPECT_NE(u, v) << "self loop at " << v;
      EXPECT_GT(u, prev) << "unsorted or duplicate neighbor of " << v;
      prev = u;
    }
  }
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

TEST(Generators, PathCycleStar) {
  Graph p = path_graph(10);
  EXPECT_EQ(p.num_edges(), 9);
  EXPECT_EQ(p.max_degree(), 2);

  Graph c = cycle_graph(10);
  EXPECT_EQ(c.num_edges(), 10);
  EXPECT_EQ(c.max_degree(), 2);
  for (V v = 0; v < 10; ++v) EXPECT_TRUE(c.has_edge(v, (v + 1) % 10));

  Graph s = star_graph(8);
  EXPECT_EQ(s.num_edges(), 7);
  EXPECT_EQ(s.max_degree(), 7);
  EXPECT_EQ(s.degree(1), 1);
}

TEST(Generators, CompleteGraphs) {
  Graph k5 = complete_graph(5);
  EXPECT_EQ(k5.num_edges(), 10);
  EXPECT_EQ(k5.max_degree(), 4);

  Graph b = complete_bipartite(3, 4);
  EXPECT_EQ(b.num_edges(), 12);
  EXPECT_EQ(b.degree(0), 4);
  EXPECT_EQ(b.degree(3), 3);
}

TEST(Generators, GridAndTorus) {
  Graph grid = grid_graph(4, 5);
  EXPECT_EQ(grid.num_vertices(), 20);
  EXPECT_EQ(grid.num_edges(), 4 * 4 + 5 * 3);  // rows*(cols-1) + cols*(rows-1)
  EXPECT_EQ(grid.max_degree(), 4);

  Graph torus = torus_graph(4, 5);
  EXPECT_EQ(torus.num_edges(), 2 * 20);
  for (V v = 0; v < torus.num_vertices(); ++v) EXPECT_EQ(torus.degree(v), 4);
}

TEST(Generators, Hypercube) {
  Graph h = hypercube_graph(4);
  EXPECT_EQ(h.num_vertices(), 16);
  EXPECT_EQ(h.num_edges(), 32);
  for (V v = 0; v < h.num_vertices(); ++v) EXPECT_EQ(h.degree(v), 4);
}

TEST(Generators, GnmHasExactEdgeCount) {
  Graph g = random_gnm(100, 250, 1);
  EXPECT_EQ(g.num_vertices(), 100);
  EXPECT_EQ(g.num_edges(), 250);
}

TEST(Generators, GnmDeterministicInSeed) {
  Graph a = random_gnm(64, 128, 7);
  Graph b = random_gnm(64, 128, 7);
  Graph c = random_gnm(64, 128, 8);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_NE(a.edges(), c.edges());
}

TEST(Generators, NearRegularRespectsDegreeCap) {
  Graph g = random_near_regular(200, 6, 3);
  EXPECT_LE(g.max_degree(), 6);
  // The pairing model loses only a few edges to dedupe.
  EXPECT_GE(g.num_edges(), 200 * 6 / 2 - 30);
}

TEST(Generators, TreesAreForests) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Graph t = random_tree(300, seed);
    EXPECT_EQ(t.num_edges(), 299);
    EXPECT_EQ(degeneracy(t), 1);  // forests have degeneracy 1
  }
}

TEST(Generators, ForestHasRequestedComponents) {
  Graph f = random_forest(100, 5, 2);
  EXPECT_EQ(f.num_edges(), 95);
  EXPECT_EQ(degeneracy(f), 1);
}

TEST(Generators, PlantedArboricityIsTight) {
  for (int a : {2, 3, 5}) {
    Graph g = planted_arboricity(200, a, 11);
    const auto [lo, hi] = arboricity_bounds(g);
    EXPECT_LE(hi, 2 * a);  // never exceeds the planted bound by much
    EXPECT_GE(lo, a - 1);  // essentially tight from below
    // Certified upper bound from the construction itself:
    EXPECT_LE(lo, a);
  }
}

TEST(Generators, BarabasiAlbertDegeneracyBound) {
  Graph g = barabasi_albert(300, 4, 5);
  EXPECT_LE(degeneracy(g), 4);
  EXPECT_GT(g.max_degree(), 8);  // hubs emerge
}

TEST(Generators, LowArbHighDegreeSeparatesParameters) {
  Graph g = low_arboricity_high_degree(2000, 3, 128, 9);
  EXPECT_GE(g.max_degree(), 128);
  const auto [lo, hi] = arboricity_bounds(g);
  EXPECT_LE(lo, 3);
  EXPECT_LE(hi, 5);
}

TEST(Generators, GeometricMatchesBruteForce) {
  const V n = 150;
  const double r = 0.15;
  Graph g = random_geometric(n, r, 13);
  // Re-derive points with the same seed and compare edge sets brute force.
  Rng rng(13);
  std::vector<double> x(n), y(n);
  for (V v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] = rng.uniform_real();
    y[static_cast<std::size_t>(v)] = rng.uniform_real();
  }
  EdgeList expect;
  for (V u = 0; u < n; ++u) {
    for (V v = u + 1; v < n; ++v) {
      const double dx = x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
      const double dy = y[static_cast<std::size_t>(u)] - y[static_cast<std::size_t>(v)];
      if (dx * dx + dy * dy <= r * r) expect.emplace_back(u, v);
    }
  }
  EXPECT_EQ(g.edges(), expect);
}

TEST(Generators, GnpEdgeCountIsPlausible) {
  Graph g = random_gnp(100, 0.1, 17);
  // Mean ~495, sd ~21; allow 6 sigma.
  EXPECT_GT(g.num_edges(), 495 - 130);
  EXPECT_LT(g.num_edges(), 495 + 130);
}

// --- Structural invariants per family, across seeds ------------------------

TEST(Generators, EveryFamilyProducesSimpleSortedGraphs) {
  for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
    check_simple_graph(random_gnp(80, 0.08, seed));
    check_simple_graph(random_gnm(80, 120, seed));
    check_simple_graph(random_near_regular(120, 5, seed));
    check_simple_graph(planted_arboricity(120, 4, seed));
    check_simple_graph(barabasi_albert(120, 4, seed));
    check_simple_graph(random_geometric(120, 0.14, seed));
    check_simple_graph(random_tree(120, seed));
    check_simple_graph(random_forest(120, 4, seed));
    check_simple_graph(low_arboricity_high_degree(300, 3, 64, seed));
  }
  check_simple_graph(grid_graph(7, 9));
  check_simple_graph(torus_graph(5, 6));
  check_simple_graph(hypercube_graph(5));
  check_simple_graph(complete_bipartite(6, 9));
}

TEST(Generators, DeterministicInSeedAcrossFamilies) {
  EXPECT_EQ(random_gnp(64, 0.1, 5).edges(), random_gnp(64, 0.1, 5).edges());
  EXPECT_EQ(random_near_regular(64, 4, 5).edges(),
            random_near_regular(64, 4, 5).edges());
  EXPECT_EQ(planted_arboricity(64, 3, 5).edges(),
            planted_arboricity(64, 3, 5).edges());
  EXPECT_EQ(barabasi_albert(64, 3, 5).edges(),
            barabasi_albert(64, 3, 5).edges());
  EXPECT_EQ(random_geometric(64, 0.2, 5).edges(),
            random_geometric(64, 0.2, 5).edges());
  EXPECT_NE(planted_arboricity(64, 3, 5).edges(),
            planted_arboricity(64, 3, 6).edges());
}

TEST(Generators, TreesAndForestsAreConnectedCorrectly) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Graph t = random_tree(200, seed);
    EXPECT_EQ(t.num_edges(), 199);
    EXPECT_EQ(component_count(t), 1);  // n-1 edges + connected = tree
    const Graph f = random_forest(200, 7, seed);
    EXPECT_EQ(f.num_edges(), 193);
    EXPECT_EQ(component_count(f), 7);
  }
}

TEST(Generators, PlantedArboricityStructure) {
  for (const std::uint64_t seed : {3ull, 8ull}) {
    for (const int a : {1, 2, 4, 6}) {
      const Graph g = planted_arboricity(150, a, seed);
      SCOPED_TRACE("a=" + std::to_string(a) + " seed=" + std::to_string(seed));
      // Union of `a` spanning trees: connected, at most a(n-1) edges (dedupe
      // can only remove), and the certified arboricity interval contains a
      // value <= a.
      EXPECT_EQ(component_count(g), 1);
      EXPECT_LE(g.num_edges(), static_cast<std::int64_t>(a) * 149);
      EXPECT_GE(g.num_edges(), 149);  // at least one spanning tree survives
      const auto [lo, hi] = arboricity_bounds(g);
      EXPECT_LE(lo, a);
      EXPECT_GE(hi, lo);
      // Nash-Williams lower bound certifies near-tightness for a >= 2.
      if (a >= 2) EXPECT_GE(lo, a - 1);
    }
  }
}

TEST(Generators, BarabasiAlbertExactEdgeCountAndDegeneracy) {
  for (const std::uint64_t seed : {2ull, 6ull}) {
    for (const int k : {1, 3, 5}) {
      const Graph g = barabasi_albert(200, k, seed);
      SCOPED_TRACE("k=" + std::to_string(k));
      // Seed star: k edges; each of the n-k-1 later vertices attaches to
      // exactly k distinct targets, none duplicated.
      EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(k) * (200 - k));
      EXPECT_LE(degeneracy(g), k);
      EXPECT_EQ(component_count(g), 1);
    }
  }
}

TEST(Generators, NearRegularDegreeCapAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 4ull, 9ull}) {
    for (const int d : {2, 6, 11}) {
      const Graph g = random_near_regular(150, d, seed);
      EXPECT_LE(g.max_degree(), d);
      // Pairing model: at most floor(n*d/2) edges.
      EXPECT_LE(g.num_edges(), static_cast<std::int64_t>(150) * d / 2);
    }
  }
}

TEST(Generators, GeometricRadiusIsRespected) {
  for (const std::uint64_t seed : {5ull, 21ull}) {
    const V n = 200;
    const double r = 0.11;
    const Graph g = random_geometric(n, r, seed);
    // Re-derive the points (generator draws x/y first, same Rng protocol).
    Rng rng(seed);
    std::vector<double> x(static_cast<std::size_t>(n)),
        y(static_cast<std::size_t>(n));
    for (V v = 0; v < n; ++v) {
      x[static_cast<std::size_t>(v)] = rng.uniform_real();
      y[static_cast<std::size_t>(v)] = rng.uniform_real();
    }
    for (const auto& [u, v] : g.edges()) {
      const double dx = x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
      const double dy = y[static_cast<std::size_t>(u)] - y[static_cast<std::size_t>(v)];
      EXPECT_LE(dx * dx + dy * dy, r * r);
    }
  }
}

TEST(Generators, LowArbHighDegreeHubsReachTarget) {
  const Graph g = low_arboricity_high_degree(1000, 3, 96, 3);
  EXPECT_GE(g.max_degree(), 96);
  // Hub 0's star is fully present.
  EXPECT_GE(g.degree(0), 96);
  EXPECT_LE(degeneracy(g), 2 * 3);  // union of <= 3 forests
}

// --- Giant-graph streaming families (R-MAT, scale-parameterized BA) --------

TEST(Generators, RmatBasicProperties) {
  const Graph g = rmat_graph(10, 8, 1);
  EXPECT_EQ(g.num_vertices(), 1 << 10);
  check_simple_graph(g);
  // edgefactor * 2^scale draws, minus self loops and duplicates.
  EXPECT_LE(g.num_edges(), std::int64_t{8} << 10);
  EXPECT_GE(g.num_edges(), (std::int64_t{8} << 10) / 2);
  // Skew: the power-law head out-degrees the average by a wide margin.
  EXPECT_GE(g.max_degree(), 4 * 16);
}

TEST(Generators, RmatDeterministicInSeedAndParams) {
  EXPECT_EQ(rmat_graph(9, 8, 3).digest(), rmat_graph(9, 8, 3).digest());
  EXPECT_NE(rmat_graph(9, 8, 3).digest(), rmat_graph(9, 8, 4).digest());
  EXPECT_NE(rmat_graph(9, 8, 3).digest(),
            rmat_graph(9, 8, 3, 0.45, 0.25, 0.15).digest());
}

TEST(Generators, RmatRejectsBadParameters) {
  EXPECT_THROW(rmat_graph(0, 8, 1), precondition_error);
  EXPECT_THROW(rmat_graph(31, 8, 1), precondition_error);
  EXPECT_THROW(rmat_graph(10, 0, 1), precondition_error);
  EXPECT_THROW(rmat_graph(10, 8, 1, 0.5, 0.3, 0.2), precondition_error);
}

TEST(Generators, EmitRmatStreamMatchesRmatGraph) {
  // The public emit_* core and the Graph-producing wrapper must describe
  // the same graph: collecting the stream into an edge list and building
  // via from_edges reproduces the streaming build bit-for-bit (digest).
  const int scale = 9;
  EdgeList collected;
  emit_rmat(scale, 8, 7, [&](V u, V v) { collected.emplace_back(u, v); });
  EXPECT_EQ(collected.size(), std::size_t{8} << scale);
  const Graph via_list = Graph::from_edges(V{1} << scale, collected);
  const Graph streamed = rmat_graph(scale, 8, 7);
  EXPECT_EQ(via_list.digest(), streamed.digest());
  EXPECT_EQ(via_list.edges(), streamed.edges());
}

TEST(Generators, EmitBarabasiAlbertStreamMatchesGraph) {
  EdgeList collected;
  emit_barabasi_albert(300, 4, 5, [&](V u, V v) { collected.emplace_back(u, v); });
  const Graph via_list = Graph::from_edges(300, collected);
  const Graph direct = barabasi_albert(300, 4, 5);
  EXPECT_EQ(via_list.digest(), direct.digest());
  EXPECT_EQ(via_list.edges(), direct.edges());
}

TEST(Generators, BarabasiAlbertScaleMatchesFlatParameterization) {
  const Graph scaled = barabasi_albert_scale(8, 4, 5);
  const Graph flat = barabasi_albert(V{1} << 8, 4, 5);
  EXPECT_EQ(scaled.num_vertices(), 1 << 8);
  EXPECT_EQ(scaled.digest(), flat.digest());
  EXPECT_LE(degeneracy(scaled), 4);
}

// --- Golden digests --------------------------------------------------------
//
// Exact digests of fixed graphs. The benchmark's graphs are its data, so a
// faster generator or builder must reproduce every one of them bit for bit.

TEST(Generators, GoldenDigestsOfBenchmarkRmatGraphs) {
  // perfbench's eight scale-11 graphs at seed 7 (graph i uses seed 7*8+i).
  const std::uint64_t golden[] = {
      0x70424ebb92958021ULL, 0x7ca2440f3721a39cULL, 0xa8758e8f8cff0621ULL,
      0xbd01da76bf6014beULL, 0x441dd799ef597d04ULL, 0x3e5ebe413f57b9deULL,
      0xee90e44bc0582a42ULL, 0x302d3a376fa7ccf5ULL,
  };
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rmat_graph(11, 8, 56 + static_cast<std::uint64_t>(i)).digest(),
              golden[i])
        << "seed " << 56 + i;
  }
  EXPECT_EQ(rmat_graph(16, 8, 3).digest(), 0x6d8f318494fc8f85ULL);
}

TEST(Generators, GoldenDigestsOfOtherFamilies) {
  EXPECT_EQ(barabasi_albert_scale(12, 4, 5).digest(), 0x804ee15cc30cd652ULL);
  EXPECT_EQ(random_gnm(2000, 8000, 3).digest(), 0x2dd8c32e91a5cd3aULL);
  EXPECT_EQ(random_geometric(2000, 0.05, 3).digest(), 0xf489fe51a8b39bfbULL);
  EXPECT_EQ(low_arboricity_high_degree(4000, 3, 64, 3).digest(),
            0x2489b64d561162d0ULL);
}

TEST(Generators, RmatQuadrantBoundariesArePinned) {
  // An empty b or c quadrant puts a + b (or a + b + c) on top of another
  // boundary, so the bit arithmetic must send every draw to the same
  // quadrant as the interval test. With b = 0 the draws in [a, a+c) are
  // (1,0) edges; with c = 0 the same draws are (0,1) edges. The graph is
  // undirected, so both give the same graph.
  EXPECT_EQ(rmat_graph(9, 8, 3, 0.6, 0.0, 0.3).digest(), 0x3063219ea2781f93ULL);
  EXPECT_EQ(rmat_graph(9, 8, 3, 0.6, 0.3, 0.0).digest(), 0x3063219ea2781f93ULL);
  EXPECT_EQ(rmat_graph(9, 8, 3, 0.45, 0.25, 0.15).digest(),
            0xb1c2a9d3e22f8b80ULL);
}

TEST(Generators, StreamingBuildRoundTripsThroughEdgeList) {
  // Every streaming-built family must equal its own edge-list rebuild:
  // the two-pass CsrBuilder path and Graph::from_edges are bit-identical
  // (digest covers n, degrees and canonical adjacency).
  const Graph graphs[] = {
      random_gnm(200, 500, 3),       random_gnp(200, 0.05, 3),
      random_near_regular(200, 6, 3), planted_arboricity(200, 4, 3),
      barabasi_albert(200, 5, 3),     random_geometric(200, 0.12, 3),
      rmat_graph(8, 8, 3),            low_arboricity_high_degree(400, 3, 64, 3),
  };
  for (const Graph& g : graphs) {
    const Graph rebuilt = Graph::from_edges(g.num_vertices(), g.edges());
    EXPECT_EQ(rebuilt.digest(), g.digest());
  }
}

}  // namespace
}  // namespace dvc
