#include "defective/small_degree.hpp"

#include "common/check.hpp"
#include "defective/kuhn.hpp"

namespace dvc {

ReduceResult legal_small_degree(sim::Runtime& rt, int degree_bound,
                                const std::vector<std::int64_t>* groups) {
  DVC_REQUIRE(degree_bound >= 0, "degree bound must be >= 0");
  const sim::PhaseSpan span(rt, "small-degree");
  const std::size_t mark = rt.log().size();
  DefectiveResult linial = linial_coloring(rt, degree_bound, groups);
  ReduceResult out =
      kw_reduce(rt, linial.colors, linial.palette, degree_bound, groups);
  out.stats = rt.log().total(mark);
  return out;
}

}  // namespace dvc
