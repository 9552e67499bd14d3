// E12 -- micro-costs of the simulation substrate, now with a machine-
// readable trail: every configuration appends a record to BENCH_micro.json
// (family, n, Delta, rounds, messages, work_items, wall-ms, throughput) so
// the perf trajectory is tracked across PRs.
//
// Two headline numbers:
//   * message-passing throughput of the mailbox runtime on a G(n, Delta)
//     flood workload;
//   * phase-boundary cost of a composed pipeline: a fresh Runtime per phase
//     (re-allocating arenas and re-spawning shard threads) against one
//     persistent sim::Runtime running the same phases via run_phase().
#include <iostream>
#include <string>

#include "bench_json.hpp"
#include "bench_stats.hpp"
#include "core/legal_coloring.hpp"
#include "decomp/h_partition.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "sim/runtime.hpp"

namespace {

using namespace dvc;
using benchio::Clock;
using benchio::ms_since;

using benchio::peak_active;

constexpr int kFloodRounds = 8;

// Every vertex broadcasts a 1-word payload for kFloodRounds rounds: the
// densest message schedule the LOCAL model allows (2m messages per round).
class FloodAll : public sim::VertexProgram {
 public:
  std::string name() const override { return "flood"; }
  void begin(sim::Ctx& ctx) override { ctx.broadcast({1}); }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() >= kFloodRounds) ctx.halt();
    else ctx.broadcast({1});
  }
};

void bench_flood_throughput(benchio::JsonSink& sink) {
  std::cout << "== message-passing throughput: G(n, Delta) flood, "
            << kFloodRounds << " rounds ==\n";
  struct Config { V n; int delta; };
  for (const Config cfg : {Config{1 << 13, 8}, Config{1 << 15, 8},
                           Config{1 << 15, 32}}) {
    const Graph g = random_near_regular(cfg.n, cfg.delta, 1);
    constexpr int kReps = 3;  // best-of-N to damp scheduler noise

    sim::Runtime rt(g, /*shards=*/1);
    sim::RunStats stats;
    const double mailbox_ms = benchio::min_ms_over(kReps, [&] {
      FloodAll prog;
      stats = rt.run_phase(prog, kFloodRounds + 4);
    });

    const double mailbox_mps =
        static_cast<double>(stats.messages) / (mailbox_ms / 1e3);
    std::cout << "n=" << g.num_vertices() << " Delta=" << g.max_degree()
              << ": mailbox " << static_cast<std::int64_t>(mailbox_mps / 1e3)
              << " kmsg/s\n";

    sink.add(benchio::JsonRecord()
                 .field("bench", "flood_throughput")
                 .field("engine", "mailbox")
                 .field("family", "near_regular")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("rounds", stats.rounds)
                 .field("messages", stats.messages)
                 .field("words", stats.words)
                 .field("work_items", stats.work_items)
                 .field("max_msg_words",
                        static_cast<std::int64_t>(stats.max_msg_words))
                 .field("wall_ms", mailbox_ms)
                 .field("msgs_per_sec", mailbox_mps));
  }
}

// A short flood phase, as seen at the boundary between two pipeline stages:
// most of the paper's composed procedures run many brief programs back to
// back, so per-phase setup cost is what the Runtime exists to amortize.
// rounds == 0 is the pure boundary (every vertex decides locally and
// halts), the shape of trivial subproblems deep in a recursion.
class FloodPhase : public sim::VertexProgram {
 public:
  explicit FloodPhase(int rounds) : rounds_(rounds) {}
  std::string name() const override { return "flood-phase"; }
  void begin(sim::Ctx& ctx) override {
    if (rounds_ == 0) ctx.halt();
    else ctx.broadcast({1});
  }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() >= rounds_) ctx.halt();
    else ctx.broadcast({1});
  }
 private:
  int rounds_;
};

void bench_phase_boundary(benchio::JsonSink& sink) {
  std::cout << "\n== phase-boundary cost: fresh Runtime per phase vs one "
               "Runtime session ==\n";
  constexpr int kPhases = 48;
  constexpr int kReps = 3;
  struct Config { V n; int delta; int shards; int rounds; };
  for (const Config cfg :
       {Config{1 << 12, 8, 1, 1}, Config{1 << 12, 8, 4, 1},
        Config{1 << 14, 8, 4, 1}, Config{1 << 14, 8, 4, 0}}) {
    const Graph g = random_near_regular(cfg.n, cfg.delta, 5);

    // No session reuse: every phase constructs its own Runtime,
    // re-allocating all arenas and re-spawning shards-1 worker threads.
    sim::RunStats fresh_stats;
    const double fresh_ms = benchio::min_ms_over(kReps, [&] {
      sim::PhaseLog log;
      for (int phase = 0; phase < kPhases; ++phase) {
        sim::Runtime rt(g, cfg.shards);
        FloodPhase prog(cfg.rounds);
        log.record(prog.name(),
                   rt.run_phase(prog, cfg.rounds + sim::kRoundCapSlack));
      }
      fresh_stats = log.total();
    });

    // One session: arenas and the parked pool persist across all phases.
    sim::RunStats runtime_stats;
    const double runtime_ms = benchio::min_ms_over(kReps, [&] {
      sim::Runtime rt(g, cfg.shards);
      for (int phase = 0; phase < kPhases; ++phase) {
        FloodPhase prog(cfg.rounds);
        rt.run_phase(prog, cfg.rounds + sim::kRoundCapSlack);
      }
      runtime_stats = rt.log().total();
    });

    const double speedup = fresh_ms / runtime_ms;
    std::cout << "n=" << g.num_vertices() << " shards=" << cfg.shards
              << " rounds/phase=" << cfg.rounds << ": " << kPhases
              << " phases, fresh-runtime " << fresh_ms << " ms, runtime "
              << runtime_ms << " ms, speedup " << speedup << "x\n";

    sink.add(benchio::JsonRecord()
                 .field("bench", "phase_boundary")
                 .field("engine", "fresh_engine_per_phase")
                 .field("family", "near_regular")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("shards", cfg.shards)
                 .field("phases", kPhases)
                 .field("rounds_per_phase", cfg.rounds)
                 .field("rounds", fresh_stats.rounds)
                 .field("messages", fresh_stats.messages)
                 .field("wall_ms", fresh_ms));
    sink.add(benchio::JsonRecord()
                 .field("bench", "phase_boundary")
                 .field("engine", "runtime_reuse")
                 .field("family", "near_regular")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("shards", cfg.shards)
                 .field("phases", kPhases)
                 .field("rounds_per_phase", cfg.rounds)
                 .field("rounds", runtime_stats.rounds)
                 .field("messages", runtime_stats.messages)
                 .field("work_items", runtime_stats.work_items)
                 .field("wall_ms", runtime_ms)
                 .field("speedup_vs_fresh_engine", speedup));
  }
}

// Per-array CSR footprint: the 32-bit offset and mirror arrays and the
// adjacency, with no per-slot owner table, tracked as first-class bench
// numbers.
void bench_graph_memory(benchio::JsonSink& sink) {
  std::cout << "\n== graph memory: CSR bytes per array ==\n";
  struct Config { const char* family; Graph g; };
  for (const Config& cfg :
       {Config{"near_regular", random_near_regular(1 << 15, 16, 3)},
        Config{"barabasi_albert", barabasi_albert(1 << 15, 8, 3)}}) {
    const auto mb = cfg.g.memory_breakdown();
    const double bpv = static_cast<double>(cfg.g.memory_bytes()) /
                       static_cast<double>(cfg.g.num_vertices());
    std::cout << cfg.family << " n=" << cfg.g.num_vertices() << ": " << bpv
              << " B/vertex\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "graph_memory")
                 .field("family", cfg.family)
                 .field("n", static_cast<std::int64_t>(cfg.g.num_vertices()))
                 .field("edges", cfg.g.num_edges())
                 .field("offsets_bytes", mb.offsets_bytes)
                 .field("adjacency_bytes", mb.adjacency_bytes)
                 .field("mirror_bytes", mb.mirror_bytes)
                 .field("bytes_per_vertex", bpv));
  }
}

void bench_substrate(benchio::JsonSink& sink) {
  std::cout << "\n== substrate end-to-end costs ==\n";
  {
    const Graph g = planted_arboricity(1 << 15, 8, 2);
    auto t0 = Clock::now();
    sim::Runtime rt(g);
    const HPartitionResult hp = h_partition(rt, 8);
    const double ms = ms_since(t0);
    std::cout << "h_partition n=" << g.num_vertices() << ": " << ms << " ms\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "h_partition")
                 .field("family", "planted_arboricity")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("rounds", hp.stats.rounds)
                 .field("messages", hp.stats.messages)
                 .field("wall_ms", ms));
  }
  {
    const Graph g = planted_arboricity(1 << 13, 8, 3);
    auto t0 = Clock::now();
    sim::Runtime rt(g);
    const LegalColoringResult res = legal_coloring(rt, 8, 4);
    const double ms = ms_since(t0);
    std::cout << "legal_coloring n=" << g.num_vertices() << ": " << ms
              << " ms (" << res.distinct << " colors, " << res.total.rounds
              << " rounds, B=" << res.total.max_msg_words << " words/msg)\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "legal_coloring")
                 .field("family", "planted_arboricity")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("rounds", res.total.rounds)
                 .field("messages", res.total.messages)
                 .field("total_words", res.total.words)
                 .field("work_items", res.total.work_items)
                 .field("peak_live", peak_active(res.total))
                 .field("max_msg_words",
                        static_cast<std::int64_t>(res.total.max_msg_words))
                 .field("peak_round_words", benchio::peak_round_words(res.total))
                 .field("wall_ms", ms));
    // Per-phase breakdown from the session PhaseLog (depth encodes the
    // span tree; spans aggregate their subtrees). peak_live is derived
    // from each leaf's active_per_round series (spans: subtree max), so
    // live-set sizes are auditable per phase from this file.
    for (std::size_t i = 0; i < res.phases.size(); ++i) {
      const auto& entry = res.phases[i];
      sink.add(benchio::JsonRecord()
                   .field("bench", "legal_coloring_phase")
                   .field("phase", std::string(res.phases.name(i)))
                   .field("depth", entry.depth)
                   .field("span", entry.span ? 1 : 0)
                   .field("rounds", entry.rounds)
                   .field("messages", entry.messages)
                   .field("words", entry.words)
                   .field("work_items", entry.work_items)
                   .field("peak_live", res.phases.peak_active(i))
                   .field("max_msg_words",
                          static_cast<std::int64_t>(entry.max_msg_words)));
    }
  }
  {
    const Graph g = planted_arboricity(1 << 15, 8, 4);
    auto t0 = Clock::now();
    const int d = degeneracy(g);
    const double ms = ms_since(t0);
    std::cout << "degeneracy n=" << g.num_vertices() << ": " << ms << " ms (d="
              << d << ")\n";
    sink.add(benchio::JsonRecord()
                 .field("bench", "degeneracy")
                 .field("family", "planted_arboricity")
                 .field("n", static_cast<std::int64_t>(g.num_vertices()))
                 .field("delta", g.max_degree())
                 .field("wall_ms", ms));
  }
}

}  // namespace

int main() {
  std::cout << "E12: simulation-substrate microbenchmarks\n\n";
  benchio::JsonSink sink("micro");
  bench_flood_throughput(sink);
  bench_phase_boundary(sink);
  bench_graph_memory(sink);
  bench_substrate(sink);
  return 0;
}
