#include "core/arb_kuhn.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/math.hpp"

namespace dvc {

ArbKuhnResult arb_kuhn_arbdefective(sim::Runtime& rt, int arboricity_bound,
                                    int arbdefect_budget, double eps,
                                    const std::vector<std::int64_t>* groups) {
  DVC_REQUIRE(arboricity_bound >= 1 && arbdefect_budget >= 0,
              "bad Arb-Kuhn parameters");
  const sim::PhaseSpan span(rt, "arb-kuhn-decomposition");
  const std::size_t mark = rt.log().size();
  ArbKuhnResult out{Coloring{},
                    0,
                    arbdefect_budget,
                    orient_by_ids(rt, arboricity_bound, eps, groups),
                    {},
                    sim::RunStats{}};
  // Iterated Procedure Arb-Recolor: out-degree is bounded by the H-partition
  // threshold A = floor((2+eps)a).
  DefectiveResult recolor = arb_recolor_iterated(
      rt, out.orientation.sigma, out.orientation.hp.threshold, arbdefect_budget,
      groups);
  out.total = rt.log().total(mark);
  out.colors = std::move(recolor.colors);
  out.palette = recolor.palette;
  out.schedule = std::move(recolor.schedule);
  return out;
}

LegalColoringResult fast_subquadratic_coloring(sim::Runtime& rt, int arboricity_bound,
                                               int class_arboricity, double eta,
                                               double eps) {
  DVC_REQUIRE(class_arboricity >= 1, "class arboricity must be >= 1");
  const std::size_t log_mark = rt.log().size();
  ArbKuhnResult decomp =
      arb_kuhn_arbdefective(rt, arboricity_bound, class_arboricity, eps);
  // Run Legal-Coloring in parallel on all O((a/d)^2) classes with distinct
  // palettes; each class has arboricity <= class_arboricity.
  const int exponent = std::min(16, static_cast<int>(iceil_div(
                                        4, std::max<std::int64_t>(
                                               1, static_cast<std::int64_t>(2.0 * eta)))));
  const int p = std::max(4, 1 << exponent);
  LegalColoringResult out =
      legal_coloring(rt, class_arboricity, p, eps, &decomp.colors,
                     /*initial_alpha=*/class_arboricity);
  out.phases = rt.log().slice(log_mark);
  out.total = out.phases.total();
  return out;
}

LegalColoringResult tradeoff_coloring(sim::Runtime& rt, int arboricity_bound, int t,
                                      double mu, double eps) {
  DVC_REQUIRE(t >= 1 && t <= std::max(1, arboricity_bound), "t must be in [1, a]");
  const std::size_t log_mark = rt.log().size();
  const int d = std::max<int>(1, static_cast<int>(iceil_div(arboricity_bound, t)));
  ArbKuhnResult decomp = arb_kuhn_arbdefective(rt, arboricity_bound, d, eps);
  const int p = std::max(
      4, static_cast<int>(std::ceil(std::pow(static_cast<double>(d), mu / 2.0))));
  LegalColoringResult out = legal_coloring(rt, d, p, eps, &decomp.colors,
                                           /*initial_alpha=*/d);
  out.phases = rt.log().slice(log_mark);
  out.total = out.phases.total();
  return out;
}

}  // namespace dvc
