#include "core/arbdefective.hpp"

#include "common/check.hpp"

namespace dvc {

ArbdefectiveColoringResult arbdefective_coloring(
    sim::Runtime& rt, int arboricity_bound, int t, int k, double eps,
    const std::vector<std::int64_t>* groups) {
  DVC_REQUIRE(arboricity_bound >= 1 && t >= 1 && k >= 1,
              "bad arbdefective-coloring parameters");
  const std::size_t mark = rt.log().size();
  ArbdefectiveColoringResult out{
      Coloring{},
      k,
      0,
      partial_orientation(rt, arboricity_bound, t, eps, groups),
      sim::RunStats{}};
  SimpleArbResult arb =
      simple_arbdefective(rt, out.orientation.sigma, k, groups);
  out.total = rt.log().total(mark);
  out.colors = std::move(arb.colors);
  // Theorem 3.2: tau + floor(m/k) with tau = floor(a/t) and
  // m = floor((2+eps)a) (the H-partition threshold).
  out.arbdefect_bound =
      out.orientation.deficit_bound + out.orientation.hp.threshold / k;
  return out;
}

}  // namespace dvc
