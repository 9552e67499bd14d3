// Partial and complete edge orientations (Section 2.1 of the paper).
//
// Module ownership note: THIS file (src/graph/) owns the Orientation *data
// structure* -- the per-slot direction store and its centralized queries
// (degrees, acyclicity, topological order, lengths). The similarly named
// src/decomp/orientations.hpp owns the paper's *distributed procedures*
// that construct orientations (orient_by_ids, Complete-/Partial-
// Orientation). See DESIGN.md, "Orientation naming".
//
// An orientation assigns each undirected edge a direction (or leaves it
// unoriented, for partial orientations). Key quantities, matching the
// paper's definitions:
//   * out-degree of v: edges oriented out of v (v's "parents" are the heads
//     of those edges -- note the paper's convention: u is a parent of v when
//     the edge (v,u) is oriented towards u);
//   * deficit of v: unoriented edges incident to v;
//   * length: the longest consistently-directed path.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dvc {

enum class EdgeDir : std::int8_t {
  Unoriented = 0,
  Out = 1,  // oriented away from the slot owner (towards the neighbor)
  In = 2,   // oriented towards the slot owner
};

class Orientation {
 public:
  explicit Orientation(const Graph& g);

  const Graph& graph() const { return *g_; }

  /// Orients the edge at (v, port) away from v. Keeps both slots consistent.
  void orient_out(V v, int port);
  /// Orients the edge at (v, port) towards v.
  void orient_in(V v, int port);
  /// Single-slot variants: write only v's own slot, leaving the mirror to
  /// the neighbor. Used by symmetric LOCAL programs where both endpoints of
  /// an edge decide its direction in the same round -- under the engine's
  /// sharded executor each endpoint may live on a different shard, so a
  /// vertex must never write a slot it does not own.
  void orient_out_local(V v, int port);
  void orient_in_local(V v, int port);
  /// Clears the orientation of the edge at (v, port).
  void clear(V v, int port);

  EdgeDir dir(V v, int port) const {
    return static_cast<EdgeDir>(dir_[static_cast<std::size_t>(g_->slot(v, port))]);
  }
  bool is_out(V v, int port) const { return dir(v, port) == EdgeDir::Out; }
  bool is_in(V v, int port) const { return dir(v, port) == EdgeDir::In; }
  bool is_unoriented(V v, int port) const {
    return dir(v, port) == EdgeDir::Unoriented;
  }

  int out_degree(V v) const;
  int in_degree(V v) const;
  int deficit(V v) const;

  int max_out_degree() const;
  int max_deficit() const;
  std::int64_t num_oriented_edges() const;

  bool is_complete() const { return num_oriented_edges() == g_->num_edges(); }

  /// True iff the oriented part is a DAG.
  bool is_acyclic() const;

  /// Topological order of all vertices w.r.t. the oriented part, children
  /// before parents... precisely: if edge v->u (u parent of v), then u
  /// appears BEFORE v (parents first, as Procedure Simple-Arbdefective
  /// consumes colors parents-first). Throws invariant_error on a cycle.
  std::vector<V> topological_order_parents_first() const;

  /// len(v): longest directed path emanating from v (following out-edges).
  /// Throws on cyclic orientations.
  std::vector<int> lengths() const;

  /// len(sigma): max over v of len(v).
  int length() const;

  /// Lemma 3.1: completes the partial orientation into a complete acyclic
  /// orientation by directing every unoriented edge towards the endpoint
  /// that appears later in a (deterministic) topological sort of the
  /// oriented part. Throws if the oriented part is cyclic.
  void complete_acyclic();

 private:
  /// Kahn's algorithm, parents first: calls visit(v) for every vertex that
  /// can be placed, in FIFO order, and returns how many were (n iff the
  /// oriented part is acyclic).
  template <typename Visit>
  V kahn_parents_first(Visit&& visit) const;

  const Graph* g_;
  std::vector<std::int8_t> dir_;  // indexed by slot
};

}  // namespace dvc
