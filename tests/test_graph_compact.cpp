// Invariants of the 32-bit CSR (DESIGN.md, "Memory layout & giant graphs"):
//   1. Mirrors are an involution between the two endpoints of every edge,
//      and slot_owner/slot_port invert slot() on mixed graph families,
//      isolated vertices included.
//   2. Every coloring preset is bit-identical (colors, RunStats, PhaseLog)
//      to the tests-only reference executor at shard counts 1/2/8.
//   3. The CSR holds 4 bytes per vertex plus 8 per slot and no owner
//      table: its measured bytes sit between that exact size and twice it.
//   4. The streaming CsrBuilder reproduces Graph::from_edges bit-for-bit,
//      including the digest, and the degree/port narrowing paths fail as a
//      structured invariant_error instead of silent int truncation.
//   5. The builder's CSR arrays and digest match a naive std::set
//      canonicalizer on seeded multigraph streams.
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

/// The mixed family set the suite runs over, paired with a valid
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

// --- 1. Slot, mirror and owner invariants -----------------------------------

TEST(GraphCompact, MirrorIsAnInvolutionBetweenEndpoints) {
  for (const Workload& w : mixed_workloads()) {
    SCOPED_TRACE(w.family);
    const Graph& g = w.graph;
    for (V v = 0; v < g.num_vertices(); ++v) {
      for (int p = 0; p < g.degree(v); ++p) {
        const std::int64_t s = g.slot(v, p);
        const std::int64_t t = g.mirror_slot(s);
        ASSERT_NE(t, s);
        ASSERT_EQ(g.mirror_slot(t), s) << "slot " << s;
        const V u = g.neighbor(v, p);
        ASSERT_EQ(g.slot_owner(t), u);
        ASSERT_EQ(g.neighbor(u, g.slot_port(t)), v);
      }
    }
  }
}

void expect_owner_port_round_trip(const Graph& g) {
  std::int64_t next = 0;  // slots are dense and ascending in (v, port)
  for (V v = 0; v < g.num_vertices(); ++v) {
    for (int p = 0; p < g.degree(v); ++p) {
      const std::int64_t s = g.slot(v, p);
      ASSERT_EQ(s, next++);
      ASSERT_EQ(g.slot_owner(s), v) << "slot " << s;
      ASSERT_EQ(g.slot_port(s), p) << "slot " << s;
    }
  }
  EXPECT_EQ(next, g.num_slots());
}

TEST(GraphCompact, SlotOwnerAndPortInvertSlotOnMixedWorkloads) {
  for (const Workload& w : mixed_workloads()) {
    SCOPED_TRACE(w.family);
    expect_owner_port_round_trip(w.graph);
  }
}

TEST(GraphCompact, SlotOwnerHandlesIsolatedVerticesAndBoundaries) {
  // Empty adjacency rows exercise the upper_bound owner derivation: slots
  // must skip degree-0 vertices.
  const Graph g = Graph::from_edges(10, {{0, 1}, {5, 6}, {5, 9}});
  ASSERT_EQ(g.num_slots(), 6);
  expect_owner_port_round_trip(g);
  // First and last slots belong to the first/last non-isolated vertices.
  EXPECT_EQ(g.slot_owner(0), 0);
  EXPECT_EQ(g.slot_owner(g.num_slots() - 1), 9);
  EXPECT_THROW(g.slot_owner(g.num_slots()), precondition_error);
  EXPECT_THROW(g.slot_owner(-1), precondition_error);
}

TEST(GraphCompact, EmptyAndEdgelessGraphsDigestConsistently) {
  const Graph def;
  EXPECT_EQ(def.digest(), Graph::from_edges(0, {}).digest());
  EXPECT_EQ(def.memory_bytes(), 0u);
  const Graph iso = Graph::from_edges(5, {});
  EXPECT_EQ(iso.num_slots(), 0);
  EXPECT_EQ(iso.degree(4), 0);
  EXPECT_NE(iso.digest(), def.digest());  // n participates in the digest
}

// --- 2. Preset bit-identity across shard counts ----------------------------

TEST(GraphCompact, AllPresetsBitIdenticalToReferenceAcrossShards) {
  constexpr Preset kPresets[] = {
      Preset::LinearColors,     Preset::NearLinearColors,
      Preset::PolylogTime,      Preset::FastSubquadratic,
      Preset::TradeoffAT,       Preset::DeltaPlusOneLowArb};
  for (const Workload& w : mixed_workloads()) {
    for (const Preset preset : kPresets) {
      const LegalColoringResult base =
          dvc_test::reference_coloring(w.graph, w.arboricity_bound, preset);
      for (const int shards : {1, 2, 8}) {
        SCOPED_TRACE(std::string(w.family) + " / " + preset_name(preset) +
                     " / shards=" + std::to_string(shards));
        Knobs knobs;
        knobs.shards = shards;
        const LegalColoringResult res =
            color_graph(w.graph, w.arboricity_bound, preset, knobs);
        EXPECT_EQ(res.colors, base.colors);
        EXPECT_EQ(res.distinct, base.distinct);
        EXPECT_TRUE(same_stats(res.total, base.total));
        EXPECT_TRUE(res.phases == base.phases);
      }
    }
  }
}

// --- 3. Memory accounting --------------------------------------------------

TEST(GraphCompact, CsrBytesWithinTwiceTheExactFootprint) {
  for (const Workload& w : mixed_workloads()) {
    SCOPED_TRACE(w.family);
    const Graph& g = w.graph;
    const auto mb = g.memory_breakdown();
    EXPECT_EQ(g.memory_bytes(), mb.total());
    // 4 B offset per vertex (plus the sentinel) and 4 B adjacency + 4 B
    // mirror per slot; capacity slack from vector growth stays within 2x.
    const auto vertices = static_cast<std::uint64_t>(g.num_vertices()) + 1;
    const auto slots = static_cast<std::uint64_t>(g.num_slots());
    EXPECT_EQ(mb.offsets_bytes, 4 * vertices);
    EXPECT_GE(mb.adjacency_bytes, 4 * slots);
    EXPECT_GE(mb.mirror_bytes, 4 * slots);
    const std::uint64_t exact = 4 * vertices + 8 * slots;
    EXPECT_GE(g.memory_bytes(), exact);
    EXPECT_LE(g.memory_bytes(), 2 * exact);
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
  ASSERT_EQ(streamed.num_slots(), reference.num_slots());
  EXPECT_EQ(streamed.max_degree(), reference.max_degree());
  EXPECT_EQ(streamed.digest(), reference.digest());
  EXPECT_EQ(streamed.edges(), reference.edges());
  for (std::int64_t s = 0; s < streamed.num_slots(); ++s) {
    EXPECT_EQ(streamed.mirror_slot(s), reference.mirror_slot(s));
    EXPECT_EQ(streamed.slot_owner(s), reference.slot_owner(s));
  }
}

TEST(GraphCompact, CsrBuilderRejectsBadInput) {
  CsrBuilder b(4);
  EXPECT_THROW(b.add(0, 4), precondition_error);
  EXPECT_THROW(b.add(-1, 2), precondition_error);
  b.add(0, 1);
  b.next_pass();
  b.add(0, 1);
  const Graph g = b.finish();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_THROW(b.finish(), precondition_error);  // finish is one-shot
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

Graph build_two_pass(V n, const EdgeList& stream) {
  CsrBuilder b(n);
  for (const auto& [u, v] : stream) b.add(u, v);
  b.next_pass();
  for (const auto& [u, v] : stream) b.add(u, v);
  return b.finish();
}

TEST(GraphCompact, CsrBuilderMatchesNaiveOracle) {
  for (const V n : {0, 1, 2, 7, 64, 300}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      const EdgeList stream = multigraph_stream(n, seed);
      SCOPED_TRACE("n=" + std::to_string(n) + " seed=" + std::to_string(seed));
      expect_matches_oracle(build_two_pass(n, stream), n, stream);
      expect_matches_oracle(Graph::from_edges(n, stream), n, stream);
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
