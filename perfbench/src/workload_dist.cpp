// dist-loopback: the same eight scale-11 R-MAT graphs as rmat-polylog,
// PolylogTime under the CONGEST budget, each on an inline-shards session
// (2 shards) driven by a 2-worker loopback DistSession, solved in turn. The
// dist layer's framing, encode/decode and coordinator relay run on every
// phase, with frames byte-identical to the fork backend's; every solve must
// equal an in-process solve of the same shard partition. Scale 11 for the
// reason rmat-polylog gives: a small working set depends less on other
// tenants' cache traffic. The fork backend (worker processes and sockets)
// is timed in the traced run only: at scale 13 its wall time swung about 2x
// with the host's load (1.5 s to 3.5 s a solve on one seed), too much for an
// end-to-end gate.
#include <algorithm>
#include <memory>

#include "dist/dist.hpp"
#include "harness.hpp"

namespace perfbench {

using namespace dvc;

namespace {

constexpr int kScale = 11;
constexpr int kEdgefactor = 8;
constexpr int kShards = 2;
constexpr int kWorkers = 2;
constexpr int kInProcessReps = 3;  ///< per graph, traced run
constexpr int kForkReps = 2;  ///< per graph

dist::DistConfig dist_config(dist::Backend backend) {
  return dist::DistConfig{.workers = kWorkers, .backend = backend};
}

}  // namespace

void run_dist(const Options& opt, Report& report) {
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  const Preset preset = Preset::PolylogTime;

  std::vector<std::unique_ptr<sim::Runtime>> rts;
  std::vector<std::unique_ptr<dist::DistSession>> dss;
  const RmatSetup setup(kScale, kEdgefactor, opt.seed, [&](const Graph* g) {
    if (g == nullptr) {
      dss.clear();
      rts.clear();
      return;
    }
    rts.push_back(std::make_unique<sim::Runtime>(*g, kShards, /*inline_shards=*/true));
    dss.push_back(std::make_unique<dist::DistSession>(*rts.back(),
                                                      dist_config(dist::Backend::kLoopback)));
  });
  const std::size_t graphs = setup.graphs.size();

  // The in-process references: the same shard partition without a
  // transport. Every distributed solve is checked against their output.
  std::vector<SolveSet> reference(graphs), loopback(graphs);
  for (std::size_t i = 0; i < graphs; ++i) {
    sim::Runtime local(*setup.graphs[i], kShards, /*inline_shards=*/true);
    const int reps = opt.trace ? kInProcessReps : 1;
    for (int rep = 0; rep < reps; ++rep) {
      reference[i].add(plain_solve(local, setup.bounds[i], preset, knobs), "in-process solve",
                       report);
    }
    loopback[i].ref = reference[i].ref;
  }

  if (!opt.trace) {
    const double deadline = now_ms() + opt.seconds * 1e3;
    double longest = 0.0;
    do {
      const double started = now_ms();
      for (std::size_t i = 0; i < graphs; ++i) {
        loopback[i].add(plain_solve(*rts[i], setup.bounds[i], preset, knobs), "loopback solve",
                        report);
      }
      longest = std::max(longest, now_ms() - started);
    } while (now_ms() + longest <= deadline);
    add_solve_metrics(report, setup.setup_s, loopback);
    return;
  }

  // Traced run. First the fork backend on sessions of their own, for its
  // slowdown; then passes over the graphs until the window closes, each
  // graph getting an untraced and a traced loopback solve, the traced one
  // with its wire accounting per phase.
  std::vector<SolveSet> fork(graphs), traced(graphs);
  for (std::size_t i = 0; i < graphs; ++i) {
    fork[i].ref = traced[i].ref = reference[i].ref;
    sim::Runtime fork_rt(*setup.graphs[i], kShards, /*inline_shards=*/true);
    dist::DistSession fork_ds(fork_rt, dist_config(dist::Backend::kFork));
    for (int rep = 0; rep < kForkReps; ++rep) {
      fork[i].add(plain_solve(fork_rt, setup.bounds[i], preset, knobs), "fork solve", report);
    }
  }
  const double deadline = now_ms() + opt.seconds * 1e3;
  Tracer tracer;
  std::vector<Breakdown> passes;
  std::vector<double> cpu_per_wall;
  double longest = 0.0;
  do {
    const double started = now_ms();
    Breakdown pass;
    double declared_words = 0.0;
    bool ok = true;
    for (std::size_t i = 0; i < graphs; ++i) {
      const int bound = setup.bounds[i];
      const Solve u =
          loopback[i].add(plain_solve(*rts[i], bound, preset, knobs), "loopback solve", report);
      if (u.error.empty()) cpu_per_wall.push_back(u.cpu_s * 1e3 / u.wall_ms);

      const std::size_t mark = dss[i]->metrics().size();
      std::vector<double> phase_ms;
      const Solve t =
          traced[i].add(tracer.solve(*rts[i], bound, preset, knobs, pass, &phase_ms),
                        "traced loopback solve", report);
      if (!t.error.empty()) {
        ok = false;
        continue;
      }
      const auto& wire = dss[i]->metrics();
      if (wire.size() - mark != phase_ms.size()) {
        report.op("dist: " + std::to_string(wire.size() - mark) + " wire records for " +
                  std::to_string(phase_ms.size()) + " phases");
        ok = false;
        continue;
      }
      auto& v = pass.values;
      for (std::size_t k = 0; k < phase_ms.size(); ++k) {
        const dist::PhaseWireMetrics& w = wire[mark + k];
        v[w.distributed ? "dist.distributed_phase_ms" : "dist.local_phase_ms"] += phase_ms[k];
        if (!w.distributed) continue;
        v["dist.wire_bytes"] += static_cast<double>(w.wire_bytes);
        v["dist.frames"] += static_cast<double>(w.frames);
        v["dist.round_trips"] += static_cast<double>(w.round_trips);
        declared_words += static_cast<double>(w.declared_words);
      }
    }
    longest = std::max(longest, now_ms() - started);
    if (!ok) continue;
    auto& v = pass.values;
    v["dist.bytes_per_word"] = declared_words > 0 ? v["dist.wire_bytes"] / declared_words : 0.0;
    passes.push_back(std::move(pass));
  } while (now_ms() + longest <= deadline);

  // Slowdowns: the per-graph median solve times, summed over the graphs.
  auto pass_ms = [](const std::vector<SolveSet>& sets) {
    double sum = 0.0;
    for (const SolveSet& set : sets) sum += median(set.good_wall_ms()).value;
    return sum;
  };
  const double loopback_ms = pass_ms(loopback);
  const double fork_ms = pass_ms(fork);
  const double local_ms = pass_ms(reference);
  double overhead_ms = 0.0;
  std::size_t traced_solves = 0;
  for (std::size_t i = 0; i < graphs; ++i) {
    for (const Solve& s : traced[i].solves) overhead_ms += s.wall_ms;
    for (const Solve& s : loopback[i].solves) overhead_ms -= s.wall_ms;
    traced_solves += traced[i].solves.size();
  }
  std::vector<const sim::Runtime*> views;
  for (const auto& rt : rts) views.push_back(rt.get());
  for (Breakdown& pass : passes) {
    setup.fill(pass, views);
    auto& v = pass.values;
    v["sim.cpu_per_wall"] = median(cpu_per_wall).value;
    v["dist.slowdown_vs_inprocess"] = local_ms > 0 ? loopback_ms / local_ms : 0.0;
    v["dist.fork_slowdown_vs_inprocess"] = local_ms > 0 ? fork_ms / local_ms : 0.0;
    v["trace.overhead_ms"] = overhead_ms / static_cast<double>(traced_solves);
  }
  add_layer_metrics(report, passes);
  tracer.write(opt.out_dir + "/spans-dist-loopback-seed" + std::to_string(opt.seed) +
               ".json");
}

}  // namespace perfbench
