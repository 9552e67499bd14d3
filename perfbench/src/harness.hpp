// Shared machinery of the repo benchmark: the run's options and report,
// clocks and resource readings, output checks, and the traced solve that
// turns the runtime's two public hooks into per-layer numbers and spans.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "sim/runtime.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< where a traced run writes its spans
};

/// Milliseconds on the steady clock since the process started.
double now_ms();
/// Whether a workload should set up once more: at least 5 times, and until
/// 2 s went into set-up (at most 100 times), so a set-up of a few
/// milliseconds is still a median over many.
bool setup_again(std::size_t reps_done, double started_ms);
/// User + system CPU seconds of this process and its reaped children.
double cpu_seconds();

/// What one run prints: every metric with its unit and sample count, the
/// attempted/failed operation counts, and the failures themselves.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1, const std::string& note = "");
  /// Adds a quantile under `name`, noting its effective percentile.
  void add(const std::string& name, const Quantile& q, const std::string& unit,
           double scale = 1.0);
  /// Counts one operation; `error` empty means it succeeded.
  void op(const std::string& error);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Share of attempted operations that succeeded (0 before any).
  double ok_ratio() const;
  /// Adds peak_rss_mb: the peak resident set of this process plus its
  /// largest reaped child. An unreadable value is a failed operation.
  void add_peak_rss();
  /// Prints the table and, as the last line, the result JSON.
  void print(const Options& opt) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// "" when `got` has a legal coloring within its paper palette bound, else
/// what is wrong.
std::string check_legal(const dvc::Graph& g, const dvc::LegalColoringResult& got);
/// "" when `got` equals `want` in colors, RunStats and PhaseLog, else which
/// of them differ.
std::string check_same(const dvc::LegalColoringResult& want,
                       const dvc::LegalColoringResult& got, const std::string& what);

/// One timed pipeline call on a benchmark-owned session.
struct Solve {
  dvc::LegalColoringResult res;
  double wall_ms = 0.0;   ///< color_graph call through the legality verdict
  double check_ms = 0.0;  ///< the legality check alone
  double cpu_s = 0.0;
  std::string error;      ///< empty: ran and passed its output checks
};

/// The solves of one graph. Each must equal `ref` in colors, RunStats and
/// PhaseLog: the first good solve, unless the workload sets its own
/// reference first.
struct SolveSet {
  std::vector<Solve> solves;
  std::optional<dvc::LegalColoringResult> ref;
  /// Checks `s` against the reference, counts it in `report`, keeps it
  /// without its result (so memory does not grow with the solve count) and
  /// returns a copy of what it kept.
  Solve add(Solve s, const std::string& what, Report& report);
  /// Wall times of the good solves, in ms.
  std::vector<double> good_wall_ms() const;
};

/// Per-layer numbers of one traced pass, keyed by metric name, plus the
/// duration of every round it ran. A pass is one or more traced pipelines;
/// counts and times add up over them.
struct Breakdown {
  std::map<std::string, double> values;
  std::vector<double> round_ms;
};

/// Collects spans from traced solves and writes them when the run ends.
class Tracer {
 public:
  /// Runs color_graph on `rt` with the interrupt and round-observer hooks
  /// installed, checks the output, records the spans (solve -> PhaseLog
  /// span -> phase -> round) and adds this solve's per-layer numbers into
  /// `into`. `phase_ms_out`, when given, receives each phase's time in run
  /// order. The hooks are removed before returning.
  Solve solve(dvc::sim::Runtime& rt, int bound, dvc::Preset preset,
              const dvc::Knobs& knobs, Breakdown& into,
              std::vector<double>* phase_ms_out = nullptr);
  /// Writes every span as Chrome trace-event JSON (opens in Perfetto).
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// The set-up of the R-MAT workloads: kRmatGraphs graphs from one seed, so
/// that a run's figures do not hang on one graph's shape (R-MAT degrees are
/// heavy-tailed: one scale-11 graph's color count varied 18% between seeds).
/// Repeated until setup_again() says stop, so setup_s is a median: each time
/// the old sessions are dropped (`session(nullptr)`), then every graph is
/// generated with its CSR build and its degeneracy bound computed, and a
/// session started for each (`session(&graph)`, in order).
constexpr std::size_t kRmatGraphs = 8;
struct RmatSetup {
  std::vector<std::unique_ptr<dvc::Graph>> graphs;
  std::vector<int> bounds;
  std::vector<double> setup_s, build_ms, degeneracy_ms, session_ms;

  RmatSetup(int scale, int edgefactor, std::uint64_t seed,
            const std::function<void(const dvc::Graph*)>& session);
  /// Sets the graph.* set-up and size metrics and the sim.* session and
  /// memory metrics of `pass`, summed over the graphs' sessions `rts`.
  void fill(Breakdown& pass, const std::vector<const dvc::sim::Runtime*>& rts) const;
};

/// Untraced twin of Tracer::solve: same calls, same checks, no hooks.
Solve plain_solve(dvc::sim::Runtime& rt, int bound, dvc::Preset preset,
                  const dvc::Knobs& knobs);

/// Adds every per-layer metric to `report`: the median over `passes` of each
/// key, and 0 for a metric whose layer this workload does not run.
void add_layer_metrics(Report& report, const std::vector<Breakdown>& passes);

/// The end-to-end metrics of the R-MAT workloads, one SolveSet per graph;
/// colors and rounds are summed over the graphs.
void add_solve_metrics(Report& report, const std::vector<double>& setup_s,
                       const std::vector<SolveSet>& sets);

// The workloads (workload_*.cpp). Each fills `report`; a failed operation
// is counted there, never thrown.
void run_rmat(const Options& opt, Report& report);
void run_dist(const Options& opt, Report& report);
/// The service layer's closed loop for about `seconds` (workload_service.cpp):
/// sets the service.* values of `pass` and counts its jobs and output checks
/// in `report`.
void service_layer(std::uint64_t seed, double seconds, Breakdown& pass, Report& report);

}  // namespace perfbench
