#include "graph/orientation.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"

namespace dvc {

Orientation::Orientation(const Graph& g)
    : g_(&g), dir_(static_cast<std::size_t>(g.num_slots()), 0) {}

void Orientation::orient_out(V v, int port) {
  const std::int64_t s = g_->slot(v, port);
  dir_[static_cast<std::size_t>(s)] = static_cast<std::int8_t>(EdgeDir::Out);
  dir_[static_cast<std::size_t>(g_->mirror_slot(s))] =
      static_cast<std::int8_t>(EdgeDir::In);
}

void Orientation::orient_in(V v, int port) {
  const std::int64_t s = g_->slot(v, port);
  dir_[static_cast<std::size_t>(s)] = static_cast<std::int8_t>(EdgeDir::In);
  dir_[static_cast<std::size_t>(g_->mirror_slot(s))] =
      static_cast<std::int8_t>(EdgeDir::Out);
}

void Orientation::orient_out_local(V v, int port) {
  dir_[static_cast<std::size_t>(g_->slot(v, port))] =
      static_cast<std::int8_t>(EdgeDir::Out);
}

void Orientation::orient_in_local(V v, int port) {
  dir_[static_cast<std::size_t>(g_->slot(v, port))] =
      static_cast<std::int8_t>(EdgeDir::In);
}

void Orientation::clear(V v, int port) {
  const std::int64_t s = g_->slot(v, port);
  dir_[static_cast<std::size_t>(s)] = 0;
  dir_[static_cast<std::size_t>(g_->mirror_slot(s))] = 0;
}

int Orientation::out_degree(V v) const {
  int d = 0;
  const int deg = g_->degree(v);
  for (int p = 0; p < deg; ++p) d += is_out(v, p);
  return d;
}

int Orientation::in_degree(V v) const {
  int d = 0;
  const int deg = g_->degree(v);
  for (int p = 0; p < deg; ++p) d += is_in(v, p);
  return d;
}

int Orientation::deficit(V v) const {
  int d = 0;
  const int deg = g_->degree(v);
  for (int p = 0; p < deg; ++p) d += is_unoriented(v, p);
  return d;
}

int Orientation::max_out_degree() const {
  int best = 0;
  for (V v = 0; v < g_->num_vertices(); ++v) best = std::max(best, out_degree(v));
  return best;
}

int Orientation::max_deficit() const {
  int best = 0;
  for (V v = 0; v < g_->num_vertices(); ++v) best = std::max(best, deficit(v));
  return best;
}

std::int64_t Orientation::num_oriented_edges() const {
  std::int64_t oriented = 0;
  for (std::size_t s = 0; s < dir_.size(); ++s) {
    oriented += dir_[s] == static_cast<std::int8_t>(EdgeDir::Out);
  }
  return oriented;
}

template <typename Visit>
V Orientation::kahn_parents_first(Visit&& visit) const {
  // Kahn's algorithm on the reversed arrows: a vertex is ready when all its
  // parents (out-neighbors) are already placed. Equivalently, process
  // vertices whose remaining out-degree is zero. `ready` is a flat FIFO:
  // every vertex enters it at most once, so a head index replaces popping.
  const V n = g_->num_vertices();
  std::vector<int> remaining(static_cast<std::size_t>(n));
  std::vector<V> ready;
  ready.reserve(static_cast<std::size_t>(n));
  for (V v = 0; v < n; ++v) {
    remaining[static_cast<std::size_t>(v)] = out_degree(v);
    if (remaining[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const V u = ready[head];
    visit(u);
    // Every child of u (in-neighbor) loses one pending parent.
    const int deg = g_->degree(u);
    for (int p = 0; p < deg; ++p) {
      if (!is_in(u, p)) continue;
      const V child = g_->neighbor(u, p);
      if (--remaining[static_cast<std::size_t>(child)] == 0) ready.push_back(child);
    }
  }
  return static_cast<V>(ready.size());
}

std::vector<V> Orientation::topological_order_parents_first() const {
  std::vector<V> order;
  order.reserve(static_cast<std::size_t>(g_->num_vertices()));
  const V placed = kahn_parents_first([&](V u) { order.push_back(u); });
  DVC_ENSURE(placed == g_->num_vertices(), "orientation has a directed cycle");
  return order;
}

bool Orientation::is_acyclic() const {
  return kahn_parents_first([](V) {}) == g_->num_vertices();
}

std::vector<int> Orientation::lengths() const {
  // One pass: a vertex is visited only after all of its parents, so its
  // length is final the moment it leaves the queue.
  std::vector<int> len(static_cast<std::size_t>(g_->num_vertices()), 0);
  const V placed = kahn_parents_first([&](V v) {
    const int deg = g_->degree(v);
    int best = 0;
    for (int p = 0; p < deg; ++p) {
      if (!is_out(v, p)) continue;
      best = std::max(best, 1 + len[static_cast<std::size_t>(g_->neighbor(v, p))]);
    }
    len[static_cast<std::size_t>(v)] = best;
  });
  DVC_ENSURE(placed == g_->num_vertices(), "orientation has a directed cycle");
  return len;
}

int Orientation::length() const {
  const auto len = lengths();
  return len.empty() ? 0 : *std::max_element(len.begin(), len.end());
}

void Orientation::complete_acyclic() {
  const std::vector<V> order = topological_order_parents_first();
  std::vector<std::int64_t> pos(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = static_cast<std::int64_t>(i);
  }
  // All existing arrows v->u point towards strictly smaller pos (parents are
  // placed first). Orient every unoriented edge towards the endpoint with
  // the smaller pos; the unified orientation then strictly decreases pos
  // along arrows, hence stays acyclic.
  const V n = g_->num_vertices();
  for (V v = 0; v < n; ++v) {
    const int deg = g_->degree(v);
    for (int p = 0; p < deg; ++p) {
      if (!is_unoriented(v, p)) continue;
      const V u = g_->neighbor(v, p);
      if (pos[static_cast<std::size_t>(u)] < pos[static_cast<std::size_t>(v)]) {
        orient_out(v, p);
      } else {
        orient_in(v, p);
      }
    }
  }
  DVC_ENSURE(is_complete(), "completion must orient every edge");
}

}  // namespace dvc
