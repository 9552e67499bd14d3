// Quickstart: color a sparse graph with the paper's polylogarithmic-time
// algorithm and inspect the simulated LOCAL-model cost.
//
//   ./example_quickstart [--n=20000] [--a=8] [--seed=1]
//
// Walkthrough:
//   1. generate a graph of known arboricity,
//   2. certify the arboricity bound,
//   3. run three presets (Corollary 4.6, Theorem 4.3, Theorem 5.3),
//   4. verify legality and print rounds / messages / colors.
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/api.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"

namespace {

int run(const dvc::Cli& cli) {
  using namespace dvc;
  const V n = static_cast<V>(cli.get_int("n", 20000));
  const int a = static_cast<int>(cli.get_int("a", 8));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  std::cout << "Generating a planted-arboricity graph: n=" << n << ", a<=" << a
            << ", seed=" << seed << "\n";
  const Graph g = planted_arboricity(n, a, seed);
  const auto [lo, hi] = arboricity_bounds(g);
  std::cout << "  n=" << g.num_vertices() << " m=" << g.num_edges()
            << " max-degree=" << g.max_degree() << " arboricity in [" << lo
            << ", " << hi << "]\n\n";

  Table table({"preset", "colors", "rounds", "messages", "legal"});
  for (const Preset preset :
       {Preset::NearLinearColors, Preset::LinearColors, Preset::TradeoffAT}) {
    const LegalColoringResult res = color_graph(g, a, preset);
    table.row(preset_name(preset), res.distinct, res.total.rounds,
              res.total.messages, is_legal_coloring(g, res.colors) ? "yes" : "NO");
  }
  table.print(std::cout);

  std::cout << "\nPhase breakdown of the Corollary 4.6 run (PhaseLog tree):\n";
  const LegalColoringResult detail = color_graph(g, a, Preset::NearLinearColors);
  Table phases({"phase", "rounds", "messages"});
  for (std::size_t i = 0; i < detail.phases.size(); ++i) {
    const auto& entry = detail.phases[i];
    std::string label(static_cast<std::size_t>(2 * entry.depth), ' ');
    label += detail.phases.name(i);
    phases.row(label, entry.rounds, entry.messages);
  }
  phases.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return dvc::run_cli(argc, argv, run); }
