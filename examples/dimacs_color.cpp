// Command-line coloring tool for DIMACS instances: read a graph, certify an
// arboricity bound, color it with a chosen preset, and emit the coloring in
// the standard "v <id> <color>" format.
//
//   ./example_dimacs_color --input=graph.col [--preset=near-linear]
//                          [--a=0 (0: certify automatically)]
//                          [--output=coloring.txt]
//
// With no --input, a demo instance is generated and colored. Exits 0 on a
// legal coloring, 1 after printing legal=NO (or on an unreadable input),
// and 2 on an unknown --preset or a malformed flag.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <utility>

#include "common/cli.hpp"
#include "core/api.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

int run(const dvc::Cli& cli) {
  using namespace dvc;

  const std::pair<const char*, Preset> presets[] = {
      {"near-linear", Preset::NearLinearColors},
      {"linear", Preset::LinearColors},
      {"polylog", Preset::PolylogTime},
      {"tradeoff", Preset::TradeoffAT},
      {"delta", Preset::DeltaPlusOneLowArb},
  };
  const std::string preset_arg = cli.get_string("preset", "near-linear");
  const auto chosen =
      std::find_if(std::begin(presets), std::end(presets),
                   [&](const auto& p) { return preset_arg == p.first; });
  if (chosen == std::end(presets)) {
    std::cerr << "unknown --preset=" << preset_arg << "; accepted:";
    for (const auto& p : presets) std::cerr << " " << p.first;
    std::cerr << "\n";
    return 2;
  }
  const Preset preset = chosen->second;

  Graph g;
  const std::string input = cli.get_string("input", "");
  if (input.empty()) {
    std::cout << "No --input given; generating a demo instance "
                 "(planted arboricity 6, n=4096).\n";
    g = planted_arboricity(4096, 6, 99);
  } else {
    std::ifstream in(input);
    if (!in) {
      std::cerr << "cannot open " << input << "\n";
      return 1;
    }
    g = input.size() > 4 && input.substr(input.size() - 4) == ".col"
            ? read_dimacs(in)
            : read_edge_list(in);
  }

  int a = static_cast<int>(cli.get_int("a", 0));
  if (a <= 0) {
    const auto [lo, hi] = arboricity_bounds(g);
    a = std::max(1, hi);
    std::cout << "Certified arboricity bound: " << a << " (interval [" << lo
              << ", " << hi << "])\n";
  }

  const LegalColoringResult res = color_graph(g, a, preset);
  const bool legal = is_legal_coloring(g, res.colors);
  std::cout << preset_name(preset) << ": " << res.distinct << " colors in "
            << res.total.rounds << " simulated LOCAL rounds ("
            << res.total.messages << " messages); legal="
            << (legal ? "yes" : "NO") << "\n";

  const std::string output = cli.get_string("output", "");
  if (!output.empty()) {
    std::ofstream out(output);
    write_coloring(out, res.colors);
    std::cout << "Coloring written to " << output << "\n";
  }
  return legal ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return dvc::run_cli(argc, argv, run); }
