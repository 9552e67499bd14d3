// rmat-polylog: eight scale-11, edgefactor-8 R-MAT graphs (~1.1M messages a
// solve), PolylogTime under the CONGEST budget, each on its own 1-shard
// session, solved in turn. Dominated by the sim layer's send/delivery path.
// A scale-11 session (~2.3 MB) fits one core's L2 cache, so a solve depends
// less on other tenants' traffic in the shared L3: in one test on a shared
// host, back-to-back scale-13 solves moved 12% between 10 s windows and
// scale-11 ones 4%. The timed solves run on one thread for the same reason:
// a 4-shard session's barrier waits on four busy cores, and its solve time
// spread 23-45% between runs of the same code. The traced run also solves
// on 4-shard sessions, so the shard barrier's cost is still reported.
#include <algorithm>
#include <memory>

#include "harness.hpp"

namespace perfbench {

using namespace dvc;

namespace {

constexpr int kScale = 11;
constexpr int kEdgefactor = 8;
constexpr int kShards = 4;  ///< the traced run's sharded session

}  // namespace

void run_rmat(const Options& opt, Report& report) {
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  const Preset preset = Preset::PolylogTime;

  std::vector<std::unique_ptr<sim::Runtime>> rts;
  const RmatSetup setup(kScale, kEdgefactor, opt.seed, [&rts](const Graph* g) {
    if (g == nullptr) {
      rts.clear();
    } else {
      rts.push_back(std::make_unique<sim::Runtime>(*g, 1));
    }
  });
  const std::size_t graphs = setup.graphs.size();
  std::vector<SolveSet> sets(graphs);

  if (!opt.trace) {
    // Passes over the graphs until the next one would overrun the window.
    const double deadline = now_ms() + opt.seconds * 1e3;
    double longest = 0.0;
    do {
      const double started = now_ms();
      for (std::size_t i = 0; i < graphs; ++i) {
        sets[i].add(plain_solve(*rts[i], setup.bounds[i], preset, knobs), "repeat solve",
                    report);
      }
      longest = std::max(longest, now_ms() - started);
    } while (now_ms() + longest <= deadline);
    add_solve_metrics(report, setup.setup_s, sets);
    return;
  }

  // Traced run. One warm-up solve on each session, so no timed solve pays
  // the first touch of the session's buffers; then, until the window
  // closes, passes over the graphs, each graph getting an untraced solve, a
  // traced one (overhead = the difference) and a solve on a 4-shard session
  // of the same graph. All must be identical.
  std::vector<std::unique_ptr<sim::Runtime>> rt4s;
  for (std::size_t i = 0; i < graphs; ++i) {
    rt4s.push_back(std::make_unique<sim::Runtime>(*setup.graphs[i], kShards));
    sets[i].add(plain_solve(*rts[i], setup.bounds[i], preset, knobs), "warm-up solve", report);
    sets[i].add(plain_solve(*rt4s[i], setup.bounds[i], preset, knobs), "4-shard warm-up solve",
                report);
  }
  Tracer tracer;
  std::vector<Breakdown> passes;
  double overhead_ms = 0.0;
  std::size_t pairs = 0;
  // The last fifth of the window goes to the service layer's closed loop.
  const double service_s = opt.seconds / 5;
  const double deadline = now_ms() + (opt.seconds - service_s) * 1e3;
  double longest = 0.0;
  do {
    const double started = now_ms();
    Breakdown pass;
    double one_ms = 0.0, four_ms = 0.0, four_cpu_s = 0.0;
    bool ok = true;
    for (std::size_t i = 0; i < graphs; ++i) {
      const int bound = setup.bounds[i];
      const Solve u = sets[i].add(plain_solve(*rts[i], bound, preset, knobs), "repeat solve",
                                   report);
      const Solve t = sets[i].add(tracer.solve(*rts[i], bound, preset, knobs, pass),
                                   "traced solve", report);
      const Solve four =
          sets[i].add(plain_solve(*rt4s[i], bound, preset, knobs), "4-shard solve", report);
      ok = ok && u.error.empty() && t.error.empty() && four.error.empty();
      overhead_ms += t.wall_ms - u.wall_ms;
      ++pairs;
      one_ms += u.wall_ms;
      four_ms += four.wall_ms;
      four_cpu_s += four.cpu_s;
    }
    longest = std::max(longest, now_ms() - started);
    if (!ok) continue;
    pass.values["sim.cpu_per_wall"] = four_cpu_s * 1e3 / four_ms;
    pass.values["sim.speedup_vs_1shard"] = one_ms / four_ms;
    passes.push_back(std::move(pass));
  } while (now_ms() + longest <= deadline);

  Breakdown service;
  service_layer(opt.seed, service_s, service, report);
  std::vector<const sim::Runtime*> views;
  for (const auto& rt : rts) views.push_back(rt.get());
  for (Breakdown& pass : passes) {
    setup.fill(pass, views);
    pass.values.insert(service.values.begin(), service.values.end());
    pass.values["trace.overhead_ms"] = overhead_ms / static_cast<double>(pairs);
  }
  add_layer_metrics(report, passes);
  tracer.write(opt.out_dir + "/spans-rmat-polylog-seed" + std::to_string(opt.seed) + ".json");
}

}  // namespace perfbench
