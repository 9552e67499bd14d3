// Distributed-transport A/B bench: the SAME paper-path pipeline run three
// ways -- in-process (threaded shards), loopback transport (frames encoded
// and decoded in-process), and fork transport (real worker processes over
// Unix socketpairs) -- on the same graph. Reports, per backend and worker
// count:
//   * bit_identical      -- colors + RunStats + PhaseLog equal to the
//                           in-process run (the ROADMAP acceptance bar);
//   * wall_ms / rounds_per_sec -- throughput, so the process-boundary tax
//                           is a number, not a vibe;
//   * measured_wire_bytes, wire_frames, round_trips -- what the transport
//                           actually moved;
//   * declared_words / declared_messages and wire_per_declared_word --
//                           measured bytes next to the CONGEST words the
//                           paper's analysis counts: the framing overhead
//                           of one declared word, in bytes on the wire;
//   * bytes_per_round    -- wire bytes / distributed rounds;
//   * peak RSS including reaped worker children.
//
//   ./bench_dist [--n=20000] [--arboricity=3] [--preset=polylog]
//                [--shards=8] [--workers=4] [--seed=1]
//   ./bench_dist --smoke     # small-instance CI gate, exits nonzero on
//                            # failure; writes BENCH_dist.json (schema gate:
//                            # bit_identical != 0, measured_wire_bytes > 0,
//                            # workers >= 2, wire_per_declared_word <= 8)
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "bench_stats.hpp"
#include "common/cli.hpp"
#include "core/api.hpp"
#include "dist/dist.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace {

using namespace dvc;
using benchio::Clock;
using benchio::ms_since;

Preset parse_preset(const std::string& name) {
  if (name == "polylog") return Preset::PolylogTime;
  if (name == "linear") return Preset::LinearColors;
  if (name == "nearlinear") return Preset::NearLinearColors;
  if (name == "fastsub") return Preset::FastSubquadratic;
  if (name == "tradeoff") return Preset::TradeoffAT;
  std::cerr << "unknown --preset=" << name
            << " (want polylog|linear|nearlinear|fastsub|tradeoff)\n";
  std::exit(2);
}

bool identical(const LegalColoringResult& a, const LegalColoringResult& b) {
  return a.colors == b.colors && a.distinct == b.distinct &&
         a.total == b.total && a.phases == b.phases;
}

struct BackendRun {
  LegalColoringResult result;
  double wall_ms = 0.0;
  dist::PhaseWireMetrics totals;  // zero for the in-process run
  int effective_workers = 0;
};

/// One coloring run. backend < 0 means plain in-process (threaded shards);
/// otherwise the dist transport with that Backend over an inline session.
BackendRun run_once(const Graph& g, int bound, Preset preset, int shards,
                    int workers, int backend) {
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  BackendRun out;
  if (backend < 0) {
    sim::Runtime rt(g, shards);
    const auto t0 = Clock::now();
    out.result = color_graph(rt, bound, preset, knobs);
    out.wall_ms = ms_since(t0);
    return out;
  }
  sim::Runtime rt(g, shards, /*inline_shards=*/true);
  dist::DistConfig cfg;
  cfg.workers = workers;
  cfg.backend = static_cast<dist::Backend>(backend);
  dist::DistSession session(rt, cfg);
  const auto t0 = Clock::now();
  out.result = color_graph(rt, bound, preset, knobs);
  out.wall_ms = ms_since(t0);
  out.totals = session.totals();
  out.effective_workers = session.effective_workers();
  return out;
}

/// Runs the in-process baseline plus both transports for one (shards,
/// workers) configuration and appends one record per backend. Returns false
/// if any gated property failed.
bool run_config(benchio::JsonSink& sink, const Graph& g, int bound,
                Preset preset, int shards, int workers) {
  std::cout << "-- shards=" << shards << " workers=" << workers
            << " preset=" << preset_name(preset) << " --\n";
  const BackendRun base = run_once(g, bound, preset, shards, workers, -1);
  std::cout << "   in-process: " << base.wall_ms << " ms, "
            << base.result.distinct << " colors, " << base.result.total.rounds
            << " rounds\n";

  bool ok = true;
  struct Named {
    const char* name;
    int backend;
  };
  const Named backends[] = {
      {"inprocess", -1},
      {"loopback", static_cast<int>(dist::Backend::kLoopback)},
      {"fork", static_cast<int>(dist::Backend::kFork)},
  };
  for (const Named& b : backends) {
    const BackendRun run =
        b.backend < 0 ? base : run_once(g, bound, preset, shards, workers,
                                        b.backend);
    const bool bit_identical = identical(base.result, run.result);
    const std::uint64_t wire = run.totals.wire_bytes;
    const std::uint64_t declared = run.totals.declared_words;
    const double per_word =
        declared > 0 ? static_cast<double>(wire) / static_cast<double>(declared)
                     : 0.0;
    const double bytes_per_round =
        run.totals.rounds > 0
            ? static_cast<double>(wire) / static_cast<double>(run.totals.rounds)
            : 0.0;
    const double rounds_per_sec =
        run.wall_ms > 0.0
            ? static_cast<double>(run.result.total.rounds) / (run.wall_ms / 1e3)
            : 0.0;
    if (b.backend >= 0) {
      std::cout << "   " << b.name << ": " << run.wall_ms << " ms ("
                << run.wall_ms / base.wall_ms << "x in-process), "
                << wire << " wire bytes over " << run.totals.frames
                << " frames, " << per_word
                << " wire bytes per declared CONGEST word, bit_identical="
                << (bit_identical ? 1 : 0) << "\n";
      if (!bit_identical) {
        std::cout << "   FAILURE: " << b.name
                  << " diverged from the in-process run\n";
        ok = false;
      }
      if (wire == 0 || run.totals.frames == 0) {
        std::cout << "   FAILURE: " << b.name << " reported no wire traffic\n";
        ok = false;
      }
      if (run.effective_workers < 2) {
        std::cout << "   FAILURE: " << b.name << " ran with "
                  << run.effective_workers << " worker(s); need >= 2\n";
        ok = false;
      }
    }
    sink.add(benchio::JsonRecord()
                 .field("bench", "dist")
                 .field("backend", b.name)
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("edges", g.num_edges())
                 .field("arboricity_bound", bound)
                 .field("preset", preset_name(preset))
                 .field("shards", shards)
                 .field("workers", b.backend < 0 ? 0 : run.effective_workers)
                 .field("bit_identical", bit_identical ? 1 : 0)
                 .field("wall_ms", run.wall_ms)
                 .field("rounds", run.result.total.rounds)
                 .field("rounds_per_sec", rounds_per_sec)
                 .field("colors", static_cast<std::int64_t>(run.result.distinct))
                 .field("measured_wire_bytes", wire)
                 .field("wire_frames", run.totals.frames)
                 .field("wire_round_trips", run.totals.round_trips)
                 .field("declared_words", declared)
                 .field("declared_messages", run.totals.declared_messages)
                 .field("wire_per_declared_word", per_word)
                 .field("bytes_per_round", bytes_per_round)
                 .field("peak_rss_with_children_bytes",
                        benchio::peak_rss_with_children_bytes()));
  }
  return ok;
}

int run(const dvc::Cli& cli) {
  const bool smoke = cli.has("smoke");
  const auto n = static_cast<dvc::V>(cli.get_int("n", smoke ? 600 : 20000));
  const int bound = static_cast<int>(cli.get_int("arboricity", 3));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const Preset preset =
      parse_preset(cli.get_string("preset", smoke ? "polylog" : "polylog"));
  const int shards = static_cast<int>(cli.get_int("shards", smoke ? 4 : 8));
  const int workers = static_cast<int>(cli.get_int("workers", smoke ? 2 : 4));

  std::cout << "bench_dist: n=" << n << " arboricity=" << bound
            << " shards=" << shards << " workers=" << workers
            << (smoke ? " (smoke)" : "") << "\n\n";
  const dvc::Graph g = dvc::planted_arboricity(n, bound, seed);

  dvc::benchio::JsonSink sink("dist");
  bool ok = run_config(sink, g, bound, preset, shards, workers);
  if (!smoke) {
    // Full mode: sweep worker counts so the scaling shape lands in the JSON.
    for (const int w : {2, 8}) {
      if (w == workers) continue;
      ok = run_config(sink, g, bound, preset, shards, w) && ok;
    }
  }
  sink.flush();
  std::cout << "\n"
            << (ok ? "OK" : "FAILED") << "; records written to BENCH_dist.json\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return dvc::run_cli(argc, argv, run); }
