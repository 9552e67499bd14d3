// Layout invariance of the dual-width CSR (DESIGN.md, "Memory layout &
// giant graphs"):
//   1. Compact (32-bit) and wide (64-bit) layouts agree on every observable
//      accessor -- degree, neighbors, slots, mirrors, owners, ports, edges,
//      digest -- on mixed graph families.
//   2. Every coloring preset is bit-identical (colors, RunStats, PhaseLog)
//      to the tests-only reference executor in both layouts at shard counts
//      1/2/8.
//   3. The compact layout is strictly smaller, and the owner table is gone
//      from both layouts.
//   4. The streaming CsrBuilder reproduces Graph::from_edges bit-for-bit,
//      including the digest, and the degree/port narrowing paths fail as a
//      structured invariant_error instead of silent int truncation.
//   5. The builder's CSR arrays and digest match a naive std::set
//      canonicalizer on seeded multigraph streams, in both layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "core/api.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "reference_executor.hpp"
#include "sim/runtime.hpp"
#include "test_helpers.hpp"

namespace dvc {
namespace {

using dvc_test::same_stats;

/// Rebuilds `g` from its edge list in the requested layout.
Graph rebuild(const Graph& g, Graph::Layout layout) {
  return Graph::from_edges(g.num_vertices(), g.edges(), layout);
}

/// The mixed family set the layout suite runs over, paired with a valid
/// arboricity bound for the coloring presets.
struct Workload {
  const char* family;
  Graph graph;
  int arboricity_bound;
};

std::vector<Workload> mixed_workloads() {
  std::vector<Workload> out;
  out.push_back({"planted_arboricity", planted_arboricity(512, 4, 7), 4});
  out.push_back({"barabasi_albert", barabasi_albert(512, 5, 3), 5});
  return out;
}

// --- 1. Accessor equivalence across layouts --------------------------------

void expect_accessors_agree(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_slots(), b.num_slots());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.edges(), b.edges());
  for (V v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "degree of " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (int p = 0; p < a.degree(v); ++p) {
      EXPECT_EQ(na[static_cast<std::size_t>(p)], nb[static_cast<std::size_t>(p)]);
      const std::int64_t s = a.slot(v, p);
      ASSERT_EQ(s, b.slot(v, p)) << "slot(" << v << "," << p << ")";
      EXPECT_EQ(a.mirror_slot(s), b.mirror_slot(s));
      EXPECT_EQ(a.slot_owner(s), v);
      EXPECT_EQ(b.slot_owner(s), v);
      EXPECT_EQ(a.slot_port(s), p);
      EXPECT_EQ(b.slot_port(s), p);
      // Mirror involution + endpoint consistency, both layouts.
      EXPECT_EQ(a.mirror_slot(a.mirror_slot(s)), s);
      EXPECT_EQ(a.slot_owner(a.mirror_slot(s)), a.neighbor(v, p));
    }
  }
}

TEST(GraphCompact, LayoutsAgreeOnEveryAccessor) {
  for (const Workload& w : mixed_workloads()) {
    SCOPED_TRACE(w.family);
    const Graph compact = rebuild(w.graph, Graph::Layout::kCompact);
    const Graph wide = rebuild(w.graph, Graph::Layout::kWide);
    EXPECT_TRUE(compact.compact_layout());
    EXPECT_FALSE(wide.compact_layout());
    expect_accessors_agree(compact, wide);
  }
}

TEST(GraphCompact, AutoPicksCompactForSmallGraphs) {
  const Graph g = random_near_regular(256, 6, 11);  // kAuto
  EXPECT_TRUE(g.compact_layout());
  expect_accessors_agree(g, rebuild(g, Graph::Layout::kWide));
}

TEST(GraphCompact, SlotOwnerHandlesIsolatedVerticesAndBoundaries) {
  // Empty adjacency rows exercise the upper_bound owner derivation: slots
  // must skip degree-0 vertices in both layouts.
  const EdgeList edges = {{0, 1}, {5, 6}, {5, 9}};
  for (const Graph::Layout layout :
       {Graph::Layout::kCompact, Graph::Layout::kWide}) {
    const Graph g = Graph::from_edges(10, edges, layout);
    ASSERT_EQ(g.num_slots(), 6);
    for (V v = 0; v < g.num_vertices(); ++v) {
      for (int p = 0; p < g.degree(v); ++p) {
        EXPECT_EQ(g.slot_owner(g.slot(v, p)), v);
        EXPECT_EQ(g.slot_port(g.slot(v, p)), p);
      }
    }
    // First and last slots belong to the first/last non-isolated vertices.
    EXPECT_EQ(g.slot_owner(0), 0);
    EXPECT_EQ(g.slot_owner(g.num_slots() - 1), 9);
  }
}

TEST(GraphCompact, EmptyAndEdgelessGraphsDigestConsistently) {
  const Graph def;
  EXPECT_TRUE(def.compact_layout());
  EXPECT_EQ(def.digest(), Graph::from_edges(0, {}).digest());
  const Graph iso = Graph::from_edges(5, {});
  EXPECT_EQ(iso.num_slots(), 0);
  EXPECT_EQ(iso.degree(4), 0);
  EXPECT_NE(iso.digest(), def.digest());  // n participates in the digest
}

// --- 2. Preset bit-identity across layouts and shard counts ----------------

TEST(GraphCompact, AllPresetsBitIdenticalAcrossLayoutsAndShards) {
  constexpr Preset kPresets[] = {
      Preset::LinearColors,     Preset::NearLinearColors,
      Preset::PolylogTime,      Preset::FastSubquadratic,
      Preset::TradeoffAT,       Preset::DeltaPlusOneLowArb};
  for (const Workload& w : mixed_workloads()) {
    const Graph compact = rebuild(w.graph, Graph::Layout::kCompact);
    const Graph wide = rebuild(w.graph, Graph::Layout::kWide);
    for (const Preset preset : kPresets) {
      const LegalColoringResult base =
          dvc_test::reference_coloring(compact, w.arboricity_bound, preset);
      for (const int shards : {1, 2, 8}) {
        Knobs knobs;
        knobs.shards = shards;
        for (const Graph* g : {&compact, &wide}) {
          SCOPED_TRACE(std::string(w.family) + " / " + preset_name(preset) +
                       " / shards=" + std::to_string(shards) +
                       (g == &wide ? " / wide" : " / compact"));
          const LegalColoringResult res =
              color_graph(*g, w.arboricity_bound, preset, knobs);
          EXPECT_EQ(res.colors, base.colors);
          EXPECT_EQ(res.distinct, base.distinct);
          EXPECT_TRUE(same_stats(res.total, base.total));
          EXPECT_TRUE(res.phases == base.phases);
        }
      }
    }
  }
}

// --- 3. Memory accounting --------------------------------------------------

TEST(GraphCompact, CompactLayoutIsStrictlySmaller) {
  for (const Workload& w : mixed_workloads()) {
    SCOPED_TRACE(w.family);
    const Graph compact = rebuild(w.graph, Graph::Layout::kCompact);
    const Graph wide = rebuild(w.graph, Graph::Layout::kWide);
    const auto cb = compact.memory_breakdown();
    const auto wb = wide.memory_breakdown();
    // Owner table eliminated in BOTH layouts.
    EXPECT_EQ(cb.owner_bytes, 0u);
    EXPECT_EQ(wb.owner_bytes, 0u);
    // Offsets and mirrors halve; adjacency is V-width either way.
    EXPECT_LT(cb.offsets_bytes, wb.offsets_bytes);
    EXPECT_LT(cb.mirror_bytes, wb.mirror_bytes);
    EXPECT_EQ(cb.adjacency_bytes, wb.adjacency_bytes);
    EXPECT_LT(compact.memory_bytes(), wide.memory_bytes());
    EXPECT_EQ(compact.memory_bytes(), cb.total());
    // Compact: 4B offset/vertex + 4B adj + 4B mirror per slot; capacity
    // slack from vector growth stays within 2x of the exact size.
    const auto slots = static_cast<std::uint64_t>(compact.num_slots());
    const std::uint64_t exact =
        4 * (static_cast<std::uint64_t>(compact.num_vertices()) + 1) +
        8 * slots;
    EXPECT_GE(compact.memory_bytes(), exact);
    EXPECT_LE(compact.memory_bytes(), 2 * exact);
  }
}

TEST(GraphCompact, RuntimeMemoryBytesIsPositiveAndSized) {
  const Graph g = planted_arboricity(512, 4, 7);
  sim::Runtime rt(g, 2);
  const std::uint64_t bytes = rt.memory_bytes();
  // Two arenas at 12 bytes per slot is the floor of the accounting.
  EXPECT_GE(bytes, 24u * static_cast<std::uint64_t>(g.num_slots()));
  EXPECT_LT(bytes, 1u << 30);
}

// --- 4. Streaming builder equivalence + checked narrowing ------------------

TEST(GraphCompact, CsrBuilderMatchesFromEdgesBitForBit) {
  // A stream with self loops, duplicates and unordered endpoints: finish()
  // must canonicalize to exactly what from_edges produces, digest included.
  const EdgeList stream = {{3, 1}, {1, 3}, {2, 2}, {0, 4}, {4, 0},
                          {1, 0}, {4, 3}, {3, 4}, {2, 0}};
  CsrBuilder b(5);
  for (const auto& [u, v] : stream) b.add(u, v);
  b.next_pass();
  for (const auto& [u, v] : stream) b.add(u, v);
  const Graph streamed = b.finish();
  const Graph reference = Graph::from_edges(5, stream);
  EXPECT_EQ(streamed.digest(), reference.digest());
  EXPECT_EQ(streamed.edges(), reference.edges());
  expect_accessors_agree(streamed, reference);

  // Forcing the wide layout through the builder preserves the digest too.
  CsrBuilder bw(5);
  for (const auto& [u, v] : stream) bw.add(u, v);
  bw.next_pass();
  for (const auto& [u, v] : stream) bw.add(u, v);
  const Graph wide = bw.finish(Graph::Layout::kWide);
  EXPECT_FALSE(wide.compact_layout());
  EXPECT_EQ(wide.digest(), reference.digest());
}

TEST(GraphCompact, CsrBuilderRejectsBadInput) {
  CsrBuilder b(4);
  EXPECT_THROW(b.add(0, 4), precondition_error);
  EXPECT_THROW(b.add(-1, 2), precondition_error);
  // Forcing kCompact on a graph that fits is fine.
  b.add(0, 1);
  b.next_pass();
  b.add(0, 1);
  const Graph g = b.finish(Graph::Layout::kCompact);
  EXPECT_TRUE(g.compact_layout());
  EXPECT_EQ(g.num_edges(), 1);
  // A fill pass with more edges than the count pass throws before it can
  // write past a row or past the raw array.
  CsrBuilder extra(2);
  extra.add(0, 1);
  extra.next_pass();
  extra.add(0, 1);
  EXPECT_THROW(extra.add(0, 1), invariant_error);
  CsrBuilder last(3);  // the last row ends where the raw array ends
  last.add(0, 1);
  last.add(1, 2);
  last.next_pass();
  last.add(1, 2);
  EXPECT_THROW(last.add(0, 2), invariant_error);
}

// --- 5. Independent oracle for the streaming builder -----------------------
//
// Graph::from_edges is itself a CsrBuilder client, so comparing the two only
// checks the builder against itself. This oracle canonicalizes a stream
// with a std::set of sorted endpoint pairs and checks every CSR array and
// the digest against it, sharing no code with the builder.

/// Canonical rows of a multigraph stream: self loops dropped, duplicates
/// merged, each row ascending.
std::vector<std::vector<V>> naive_rows(V n, const EdgeList& stream) {
  std::set<std::pair<V, V>> edges;
  for (const auto& [u, v] : stream) {
    if (u != v) edges.emplace(std::min(u, v), std::max(u, v));
  }
  std::vector<std::vector<V>> rows(static_cast<std::size_t>(n));
  for (const auto& [u, v] : edges) {
    rows[static_cast<std::size_t>(u)].push_back(v);
    rows[static_cast<std::size_t>(v)].push_back(u);
  }
  for (auto& row : rows) std::sort(row.begin(), row.end());
  return rows;
}

/// Digest of canonical rows, by the formula documented at Graph::digest().
std::uint64_t naive_digest(const std::vector<std::vector<V>>& rows) {
  std::uint64_t slots = 0;
  for (const auto& row : rows) slots += row.size();
  std::uint64_t h = detail::digest_mix(
      detail::digest_mix(0x64766367ULL /* "dvcg" */, rows.size()), slots / 2);
  for (const auto& row : rows) {
    h = detail::digest_mix(h, row.size());
    for (const V u : row) h = detail::digest_mix(h, static_cast<std::uint64_t>(u));
  }
  return h;
}

void expect_matches_oracle(const Graph& g, V n, const EdgeList& stream) {
  const auto rows = naive_rows(n, stream);
  ASSERT_EQ(g.num_vertices(), n);
  std::int64_t offset = 0;
  int max_deg = 0;
  for (V v = 0; v < n; ++v) {
    const auto& row = rows[static_cast<std::size_t>(v)];
    ASSERT_EQ(g.slot(v, 0), offset) << "offset of " << v;
    const auto nb = g.neighbors(v);
    ASSERT_EQ(std::vector<V>(nb.begin(), nb.end()), row) << "row of " << v;
    for (std::size_t p = 1; p < nb.size(); ++p) {
      ASSERT_LT(nb[p - 1], nb[p]) << "row of " << v << " not strictly sorted";
    }
    for (int p = 0; p < g.degree(v); ++p) {
      const std::int64_t s = g.slot(v, p);
      const std::int64_t t = g.mirror_slot(s);
      const V u = nb[static_cast<std::size_t>(p)];
      ASSERT_EQ(g.mirror_slot(t), s);
      ASSERT_GE(t, g.slot(u, 0));
      ASSERT_LT(t, g.slot(u, 0) + g.degree(u));
      ASSERT_EQ(g.neighbor(u, static_cast<int>(t - g.slot(u, 0))), v);
    }
    offset += static_cast<std::int64_t>(row.size());
    max_deg = std::max(max_deg, static_cast<int>(row.size()));
  }
  EXPECT_EQ(g.num_slots(), offset);
  EXPECT_EQ(g.num_edges(), offset / 2);
  EXPECT_EQ(g.max_degree(), max_deg);
  EXPECT_EQ(g.digest(), naive_digest(rows));
}

/// Seeded multigraph stream over n vertices: uniform pairs (self loops and
/// repeats included) on the lower half of the ids, so the upper half stays
/// isolated, plus a hub (vertex 0) with 1200 raw entries over at most 16
/// neighbors, shuffled into the rest.
EdgeList multigraph_stream(V n, std::uint64_t seed) {
  EdgeList stream;
  if (n == 0) return stream;
  Rng rng(seed);
  const auto active = static_cast<std::uint64_t>(std::max<V>(1, n / 2));
  const auto pick = [&] { return static_cast<V>(rng.uniform(active)); };
  for (V i = 0; i < 4 * n; ++i) stream.emplace_back(pick(), pick());
  const std::uint64_t hub_span = std::min<std::uint64_t>(active, 16);
  for (int i = 0; i < 1200; ++i) {
    const V x = static_cast<V>(rng.uniform(hub_span));
    if (i % 2 == 0) {
      stream.emplace_back(0, x);
    } else {
      stream.emplace_back(x, 0);
    }
  }
  rng.shuffle(stream);
  return stream;
}

Graph build_two_pass(V n, const EdgeList& stream, Graph::Layout layout) {
  CsrBuilder b(n);
  for (const auto& [u, v] : stream) b.add(u, v);
  b.next_pass();
  for (const auto& [u, v] : stream) b.add(u, v);
  return b.finish(layout);
}

TEST(GraphCompact, CsrBuilderMatchesNaiveOracle) {
  for (const V n : {0, 1, 2, 7, 64, 300}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const EdgeList stream = multigraph_stream(n, seed);
      for (const Graph::Layout layout :
           {Graph::Layout::kCompact, Graph::Layout::kWide}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " seed=" +
                     std::to_string(seed) +
                     (layout == Graph::Layout::kWide ? " wide" : " compact"));
        const Graph built = build_two_pass(n, stream, layout);
        EXPECT_EQ(built.compact_layout(), layout == Graph::Layout::kCompact);
        expect_matches_oracle(built, n, stream);
        expect_matches_oracle(Graph::from_edges(n, stream, layout), n, stream);
      }
    }
  }
}

TEST(GraphCompact, RmatStreamMatchesNaiveOracle) {
  const int scale = 9;
  EdgeList stream;
  emit_rmat(scale, 8, 7, [&](V u, V v) { stream.emplace_back(u, v); });
  expect_matches_oracle(rmat_graph(scale, 8, 7), V{1} << scale, stream);
}

TEST(GraphCompact, CheckedPortCastGuardsTheIntCap) {
  EXPECT_EQ(detail::checked_port_cast(0), 0);
  EXPECT_EQ(detail::checked_port_cast(detail::kMaxDegree),
            static_cast<int>(detail::kMaxDegree));
  // Past the documented cap (or negative): a structured invariant_error,
  // never a silent narrowing.
  EXPECT_THROW(detail::checked_port_cast(detail::kMaxDegree + 1),
               invariant_error);
  EXPECT_THROW(detail::checked_port_cast(std::int64_t{1} << 40),
               invariant_error);
  EXPECT_THROW(detail::checked_port_cast(-1), invariant_error);
}

}  // namespace
}  // namespace dvc
