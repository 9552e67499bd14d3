#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

namespace dvc {

namespace {

// Two-pass streaming build: `emit` is invoked once for the degree-counting
// pass and once for the adjacency fill, and must produce the identical edge
// stream both times (generators that draw randomness construct their Rng
// INSIDE the emitter so each pass replays the same draws). No EdgeList is
// ever materialized; the price is running the generator twice, which for
// R-MAT is most of the build.
template <class Emit>
Graph build_stream(V n, Emit&& emit) {
  CsrBuilder b(n);
  const auto sink = [&b](V u, V v) { b.add(u, v); };
  emit(sink);
  b.next_pass();
  emit(sink);
  return b.finish();
}

// Planted-arboricity edge stream (union of `a` random spanning trees),
// shared by planted_arboricity and low_arboricity_high_degree.
template <class Sink>
void emit_planted(V n, int a, std::uint64_t seed, Sink&& sink) {
  Rng rng(seed);
  std::vector<V> perm(static_cast<std::size_t>(n));
  for (int forest = 0; forest < a; ++forest) {
    // Random spanning tree via random attachment over a random permutation.
    for (V v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    rng.shuffle(perm);
    for (V i = 1; i < n; ++i) {
      const V j = static_cast<V>(rng.uniform(static_cast<std::uint64_t>(i)));
      sink(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
    }
  }
}

}  // namespace

Graph path_graph(V n) {
  return build_stream(n, [n](auto sink) {
    for (V v = 0; v + 1 < n; ++v) sink(v, v + 1);
  });
}

Graph cycle_graph(V n) {
  DVC_REQUIRE(n >= 3, "cycle needs >= 3 vertices");
  return build_stream(n, [n](auto sink) {
    for (V v = 0; v < n; ++v) sink(v, (v + 1) % n);
  });
}

Graph complete_graph(V n) {
  return build_stream(n, [n](auto sink) {
    for (V u = 0; u < n; ++u) {
      for (V v = u + 1; v < n; ++v) sink(u, v);
    }
  });
}

Graph complete_bipartite(V n1, V n2) {
  return build_stream(n1 + n2, [n1, n2](auto sink) {
    for (V u = 0; u < n1; ++u) {
      for (V v = 0; v < n2; ++v) sink(u, n1 + v);
    }
  });
}

Graph star_graph(V n) {
  DVC_REQUIRE(n >= 1, "star needs >= 1 vertex");
  return build_stream(n, [n](auto sink) {
    for (V v = 1; v < n; ++v) sink(0, v);
  });
}

Graph grid_graph(V rows, V cols) {
  DVC_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  return build_stream(rows * cols, [rows, cols](auto sink) {
    auto id = [cols](V r, V c) { return r * cols + c; };
    for (V r = 0; r < rows; ++r) {
      for (V c = 0; c < cols; ++c) {
        if (c + 1 < cols) sink(id(r, c), id(r, c + 1));
        if (r + 1 < rows) sink(id(r, c), id(r + 1, c));
      }
    }
  });
}

Graph torus_graph(V rows, V cols) {
  DVC_REQUIRE(rows >= 3 && cols >= 3, "torus needs dimensions >= 3");
  return build_stream(rows * cols, [rows, cols](auto sink) {
    auto id = [cols](V r, V c) { return r * cols + c; };
    for (V r = 0; r < rows; ++r) {
      for (V c = 0; c < cols; ++c) {
        sink(id(r, c), id(r, (c + 1) % cols));
        sink(id(r, c), id((r + 1) % rows, c));
      }
    }
  });
}

Graph hypercube_graph(int dim) {
  DVC_REQUIRE(dim >= 1 && dim <= 24, "hypercube dimension out of range");
  const V n = V{1} << dim;
  return build_stream(n, [n, dim](auto sink) {
    for (V v = 0; v < n; ++v) {
      for (int b = 0; b < dim; ++b) {
        const V u = v ^ (V{1} << b);
        if (v < u) sink(v, u);
      }
    }
  });
}

Graph random_gnm(V n, std::int64_t m, std::uint64_t seed) {
  DVC_REQUIRE(n >= 2, "gnm needs >= 2 vertices");
  const std::int64_t max_m = static_cast<std::int64_t>(n) * (n - 1) / 2;
  DVC_REQUIRE(m >= 0 && m <= max_m, "gnm edge count out of range");
  // The distinct-edge set is inherent state (rejection sampling needs it);
  // both passes then stream it without an EdgeList copy.
  Rng rng(seed);
  std::set<std::pair<V, V>> chosen;
  while (static_cast<std::int64_t>(chosen.size()) < m) {
    V u = static_cast<V>(rng.uniform(static_cast<std::uint64_t>(n)));
    V v = static_cast<V>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    chosen.emplace(u, v);
  }
  return build_stream(n, [&chosen](auto sink) {
    for (const auto& [u, v] : chosen) sink(u, v);
  });
}

Graph random_gnp(V n, double p, std::uint64_t seed) {
  DVC_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
  return build_stream(n, [n, p, seed](auto sink) {
    Rng rng(seed);
    for (V u = 0; u < n; ++u) {
      for (V v = u + 1; v < n; ++v) {
        if (rng.bernoulli(p)) sink(u, v);
      }
    }
  });
}

Graph random_near_regular(V n, int d, std::uint64_t seed) {
  DVC_REQUIRE(n >= 2 && d >= 1 && d < n, "bad near-regular parameters");
  Rng rng(seed);
  std::vector<V> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (V v = 0; v < n; ++v) {
    for (int i = 0; i < d; ++i) stubs.push_back(v);
  }
  rng.shuffle(stubs);
  return build_stream(n, [&stubs](auto sink) {
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      sink(stubs[i], stubs[i + 1]);  // builder drops loops, finish dedupes
    }
  });
}

Graph random_tree(V n, std::uint64_t seed) {
  DVC_REQUIRE(n >= 1, "tree needs >= 1 vertex");
  return build_stream(n, [n, seed](auto sink) {
    Rng rng(seed);
    for (V v = 1; v < n; ++v) {
      const V parent = static_cast<V>(rng.uniform(static_cast<std::uint64_t>(v)));
      sink(parent, v);
    }
  });
}

Graph random_forest(V n, int trees, std::uint64_t seed) {
  DVC_REQUIRE(n >= trees && trees >= 1, "forest needs n >= trees >= 1");
  return build_stream(n, [n, trees, seed](auto sink) {
    Rng rng(seed);
    // First `trees` vertices are roots; each later vertex attaches to a
    // random earlier vertex of its own component (v mod trees).
    for (V v = trees; v < n; ++v) {
      V parent = v;
      while (parent >= v || parent % trees != v % trees) {
        parent = static_cast<V>(rng.uniform(static_cast<std::uint64_t>(v)));
        if (parent % trees == v % trees && parent < v) break;
      }
      sink(parent, v);
    }
  });
}

Graph planted_arboricity(V n, int a, std::uint64_t seed) {
  DVC_REQUIRE(n >= 2 && a >= 1, "bad planted-arboricity parameters");
  return build_stream(n, [n, a, seed](auto sink) {
    emit_planted(n, a, seed, sink);
  });
}

Graph barabasi_albert(V n, int k, std::uint64_t seed) {
  return build_stream(n, [n, k, seed](auto sink) {
    emit_barabasi_albert(n, k, seed, sink);
  });
}

Graph low_arboricity_high_degree(V n, int a, int hub_degree, std::uint64_t seed) {
  DVC_REQUIRE(a >= 2 && hub_degree >= 1 && n > hub_degree,
              "bad low-arboricity/high-degree parameters");
  return build_stream(n, [n, a, hub_degree, seed](auto sink) {
    emit_planted(n, a - 1, seed, sink);
    // Star forest: hubs 0, hub_degree+1, 2(hub_degree+1), ... each adjacent
    // to the following hub_degree vertices. A star forest is a single
    // forest, so the union has arboricity <= a.
    for (V hub = 0; hub < n; hub += hub_degree + 1) {
      for (V leaf = hub + 1; leaf <= hub + hub_degree && leaf < n; ++leaf) {
        sink(hub, leaf);
      }
    }
  });
}

Graph random_geometric(V n, double radius, std::uint64_t seed) {
  DVC_REQUIRE(n >= 1 && radius > 0.0 && radius <= 1.0, "bad geometric parameters");
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  for (V v = 0; v < n; ++v) {
    x[static_cast<std::size_t>(v)] = rng.uniform_real();
    y[static_cast<std::size_t>(v)] = rng.uniform_real();
  }
  // Grid hash with cell size = radius; point/grid state is computed once and
  // the neighborhood scan streams twice.
  const int cells = std::max(1, static_cast<int>(1.0 / radius));
  std::vector<std::vector<V>> grid(static_cast<std::size_t>(cells) * cells);
  auto cell_x = [&](V v) {
    return std::min(cells - 1, static_cast<int>(x[static_cast<std::size_t>(v)] * cells));
  };
  auto cell_y = [&](V v) {
    return std::min(cells - 1, static_cast<int>(y[static_cast<std::size_t>(v)] * cells));
  };
  for (V v = 0; v < n; ++v) {
    grid[static_cast<std::size_t>(cell_y(v) * cells + cell_x(v))].push_back(v);
  }
  const double r2 = radius * radius;
  return build_stream(n, [&](auto sink) {
    for (V v = 0; v < n; ++v) {
      const int cx = cell_x(v), cy = cell_y(v);
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nx = cx + dx, ny = cy + dy;
          if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
          for (V u : grid[static_cast<std::size_t>(ny * cells + nx)]) {
            if (u <= v) continue;
            const double ddx = x[static_cast<std::size_t>(u)] - x[static_cast<std::size_t>(v)];
            const double ddy = y[static_cast<std::size_t>(u)] - y[static_cast<std::size_t>(v)];
            if (ddx * ddx + ddy * ddy <= r2) sink(v, u);
          }
        }
      }
    }
  });
}

Graph rmat_graph(int scale, int edgefactor, std::uint64_t seed,
                 double a, double b, double c) {
  const V n = V{1} << scale;
  return build_stream(n, [=](auto sink) {
    emit_rmat(scale, edgefactor, seed, sink, a, b, c);
  });
}

Graph barabasi_albert_scale(int scale, int edgefactor, std::uint64_t seed) {
  DVC_REQUIRE(scale >= 1 && scale <= 30, "BA scale out of range [1, 30]");
  return build_stream(V{1} << scale, [=](auto sink) {
    emit_barabasi_albert(V{1} << scale, edgefactor, seed, sink);
  });
}

}  // namespace dvc
