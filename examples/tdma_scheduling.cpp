// TDMA slot assignment in a wireless sensor network -- the application that
// motivates distributed coloring in the paper's introduction (Herman &
// Tixeuil [14]).
//
// Sensors are points in the unit square; two sensors interfere when within
// radio range. Assigning each sensor a TDMA slot equal to its color yields
// an interference-free schedule whose frame length is the number of colors,
// computed in polylogarithmic LOCAL time even though no node ever sees the
// whole network.
//
//   ./example_tdma_scheduling [--n=5000] [--radius=0.02] [--seed=7]
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/api.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"

namespace {

int run(const dvc::Cli& cli) {
  using namespace dvc;
  const V n = static_cast<V>(cli.get_int("n", 5000));
  const double radius = cli.get_double("radius", 0.02);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));

  const Graph net = random_geometric(n, radius, seed);
  const auto [lo, hi] = arboricity_bounds(net);
  std::cout << "Sensor network: n=" << net.num_vertices() << " links="
            << net.num_edges() << " max-interferers=" << net.max_degree()
            << " arboricity in [" << lo << ", " << hi << "]\n\n";

  // Geometric graphs have arboricity well below the max degree; use the
  // certified upper bound.
  const int a = std::max(1, hi);
  const LegalColoringResult schedule =
      color_graph(net, a, Preset::NearLinearColors);

  // Validate the schedule: no two interfering sensors share a slot.
  std::size_t conflicts = 0;
  for (V v = 0; v < net.num_vertices(); ++v) {
    for (const V u : net.neighbors(v)) {
      conflicts += schedule.colors[static_cast<std::size_t>(v)] ==
                   schedule.colors[static_cast<std::size_t>(u)];
    }
  }

  // Frame utilization: sensors transmitting per slot.
  std::vector<int> slot_load(static_cast<std::size_t>(schedule.distinct), 0);
  for (const auto c : schedule.colors) ++slot_load[static_cast<std::size_t>(c)];
  int busiest = 0, idlest = n;
  for (const int load : slot_load) {
    busiest = std::max(busiest, load);
    idlest = std::min(idlest, load);
  }

  Table table({"metric", "value"});
  table.row("TDMA frame length (slots)", schedule.distinct);
  table.row("greedy frame would need >=", net.max_degree() + 1);
  table.row("interference conflicts", static_cast<std::int64_t>(conflicts / 2));
  table.row("distributed rounds to schedule", schedule.total.rounds);
  table.row("messages exchanged", schedule.total.messages);
  table.row("busiest slot (sensors)", busiest);
  table.row("idlest slot (sensors)", idlest);
  table.print(std::cout);

  std::cout << (conflicts == 0 ? "\nSchedule is interference-free.\n"
                               : "\nERROR: schedule has conflicts!\n");
  return conflicts == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return dvc::run_cli(argc, argv, run); }
