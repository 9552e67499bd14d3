#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <utility>

#include "bench_stats.hpp"
#include "common/check.hpp"
#include "dist/transport.hpp"
#include "graph/arboricity.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"

namespace perfbench {

using namespace dvc;

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

/// `text` as a JSON string literal.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Shortest decimal text that reads back as exactly `v` (JSON number).
std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Per-layer metrics every traced run prints, with their units; the phase
/// metrics from kPhases follow them.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.build_ms", "ms"},
    {"graph.degeneracy_ms", "ms"},
    {"graph.check_ms", "ms"},
    {"graph.bytes_per_slot", "B/slot"},
    {"sim.phase_ms", "ms"},
    {"sim.round_p50_ms", "ms"},
    {"sim.round_p95_ms", "ms"},
    {"sim.ns_per_message", "ns/msg"},
    {"sim.cpu_per_wall", "ratio"},
    {"sim.speedup_vs_1shard", "x"},
    {"sim.session_build_ms", "ms"},
    {"sim.runtime_bytes", "B"},
    {"sim.steady_bytes_per_slot", "B/slot"},
    {"sim.messages", "count"},
    {"sim.words", "count"},
    {"sim.work_items", "count"},
    {"sim.phases", "count"},
    {"core.driver_ms", "ms"},
    {"dist.wire_bytes", "B"},
    {"dist.frames", "count"},
    {"dist.round_trips", "count"},
    {"dist.bytes_per_word", "B/word"},
    {"dist.distributed_phase_ms", "ms"},
    {"dist.local_phase_ms", "ms"},
    {"dist.slowdown_vs_inprocess", "x"},
    {"dist.fork_slowdown_vs_inprocess", "x"},
    {"service.queue_p50_ms", "ms"},
    {"service.queue_p95_ms", "ms"},
    {"service.run_p50_ms", "ms"},
    {"service.run_p95_ms", "ms"},
    {"service.overhead_p50_ms", "ms"},
    {"service.warm_hit_ratio", "ratio"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.cold_builds", "count"},
    {"service.retries", "count"},
    {"service.shed", "count"},
    {"trace.overhead_ms", "ms"},
};

/// PhaseLog leaf labels of the paper pipelines and the module running each.
struct PhaseModule {
  const char* label;
  const char* module;
};
constexpr PhaseModule kPhases[] = {
    {"h-partition", "decomp"},
    {"orient-exchange", "decomp"},
    {"kuhn-defective", "defective"},
    {"linial", "defective"},
    {"kw-reduce", "defective"},
    {"greedy-by-orientation", "defective"},
    {"arb-recolor", "defective"},
    {"simple-arbdefective", "core"},
    {"final-orient", "core"},
};

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

bool setup_again(std::size_t reps_done, double started_ms) {
  return reps_done < 5 || (reps_done < 100 && now_ms() - started_ms < 2000.0);
}

double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    struct rusage ru {};
    if (::getrusage(who, &ru) != 0) continue;
    for (const timeval& tv : {ru.ru_utime, ru.ru_stime}) {
      total += static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Report

void Report::add(const std::string& name, double value, const std::string& unit,
                 std::size_t samples, const std::string& note) {
  metrics_.push_back({name, value, unit, samples, note});
}

void Report::add(const std::string& name, const Quantile& q,
                 const std::string& unit, double scale) {
  char note[64];
  if (q.samples == 0) {
    std::snprintf(note, sizeof(note), "no samples");
  } else if (q.requested == 50.0) {
    std::snprintf(note, sizeof(note), "median");
  } else {
    std::snprintf(note, sizeof(note), "p%g taken as p%.1f", q.requested, q.percentile);
  }
  add(name, q.value * scale, unit, q.samples, note);
}

void Report::op(const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  std::cerr << "perfbench: FAILED: " << error << "\n";
}

double Report::ok_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(attempted_ - failed_) /
                               static_cast<double>(attempted_);
}

void Report::add_peak_rss() {
  const std::int64_t bytes = benchio::peak_rss_with_children_bytes();
  if (bytes < 0) op("peak resident set unreadable");
  add("peak_rss_mb", static_cast<double>(bytes) / (1024.0 * 1024.0), "MB");
}

void Report::print(const Options& opt) const {
  std::printf("%-40s %16s  %-8s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : metrics_) {
    std::printf("%-40s %16.6g  %-8s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  std::printf("workload %s seed %llu: %llu attempted, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Checks

std::string check_legal(const Graph& g, const LegalColoringResult& got) {
  if (!is_legal_coloring(g, got.colors)) return "illegal coloring";
  if (got.distinct != distinct_colors(got.colors)) {
    return "reported " + std::to_string(got.distinct) + " colors, used " +
           std::to_string(distinct_colors(got.colors));
  }
  if (static_cast<std::uint64_t>(got.distinct) > got.palette_formula) {
    return std::to_string(got.distinct) + " colors exceed the palette bound " +
           std::to_string(got.palette_formula);
  }
  return "";
}

std::string check_same(const LegalColoringResult& want,
                       const LegalColoringResult& got, const std::string& what) {
  std::string diff;
  if (got.colors != want.colors) diff += " colors";
  if (!(got.total == want.total)) diff += " RunStats";
  if (!(got.phases == want.phases)) diff += " PhaseLog";
  return diff.empty() ? "" : what + " differs in" + diff;
}

// ---------------------------------------------------------------------------
// Solves

namespace {

/// Runs `fn`, turning a thrown error into a failure message (empty when it
/// returned normally). The message names the error type the library threw.
std::string guarded(const std::function<void()>& fn) {
  try {
    fn();
    return "";
  } catch (const sim::bandwidth_error& e) {
    return std::string("bandwidth_error: ") + e.what();
  } catch (const dist::worker_lost_error& e) {
    return std::string("worker_lost_error: ") + e.what();
  } catch (const invariant_error& e) {
    return std::string("invariant_error: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

/// Module of the library that runs the phase with this PhaseLog label.
std::string module_of(const std::string& label) {
  for (const PhaseModule& p : kPhases) {
    if (label == p.label) return p.module;
  }
  return "core";
}

/// The pipeline call both solve flavours share; `call_ms`/`return_ms`
/// bracket color_graph itself, without the legality check.
Solve run_solve(sim::Runtime& rt, int bound, Preset preset, const Knobs& knobs,
                double& call_ms, double& return_ms) {
  Solve s;
  rt.reset_log();
  const double cpu0 = cpu_seconds();
  call_ms = now_ms();
  s.error = guarded([&] { s.res = color_graph(rt, bound, preset, knobs); });
  return_ms = now_ms();
  if (s.error.empty()) s.error = check_legal(rt.graph(), s.res);
  const double done_ms = now_ms();
  s.check_ms = done_ms - return_ms;
  s.wall_ms = done_ms - call_ms;
  s.cpu_s = cpu_seconds() - cpu0;
  return s;
}

}  // namespace

Solve SolveSet::add(Solve s, const std::string& what, Report& report) {
  if (s.error.empty() && ref) s.error = check_same(*ref, s.res, what);
  if (s.error.empty() && !ref) ref = s.res;
  s.res = {};
  report.op(s.error);
  solves.push_back(std::move(s));
  return solves.back();
}

std::vector<double> SolveSet::good_wall_ms() const {
  std::vector<double> out;
  for (const Solve& s : solves) {
    if (s.error.empty()) out.push_back(s.wall_ms);
  }
  return out;
}

RmatSetup::RmatSetup(int scale, int edgefactor, std::uint64_t seed,
                     const std::function<void(const Graph*)>& session) {
  for (const double since = now_ms(); setup_again(setup_s.size(), since);) {
    session(nullptr);
    graphs.clear();
    bounds.clear();
    double build = 0.0, degen = 0.0, start = 0.0;
    for (std::size_t i = 0; i < kRmatGraphs; ++i) {
      const double t0 = now_ms();
      graphs.push_back(
          std::make_unique<Graph>(rmat_graph(scale, edgefactor, seed * kRmatGraphs + i)));
      const double t1 = now_ms();
      bounds.push_back(degeneracy(*graphs.back()));
      const double t2 = now_ms();
      session(graphs.back().get());
      const double t3 = now_ms();
      build += t1 - t0;
      degen += t2 - t1;
      start += t3 - t2;
    }
    build_ms.push_back(build);
    degeneracy_ms.push_back(degen);
    session_ms.push_back(start);
    setup_s.push_back((build + degen + start) / 1e3);
  }
}

void RmatSetup::fill(Breakdown& pass, const std::vector<const sim::Runtime*>& rts) const {
  auto& v = pass.values;
  double slots = 0.0, graph_bytes = 0.0, runtime_bytes = 0.0, steady_bytes = 0.0;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const sim::Runtime::MemoryBreakdown mem = rts[i]->memory_breakdown();
    slots += static_cast<double>(graphs[i]->num_slots());
    graph_bytes += static_cast<double>(graphs[i]->memory_bytes());
    runtime_bytes += static_cast<double>(mem.total());
    steady_bytes += static_cast<double>(mem.steady_bytes());
  }
  v["graph.build_ms"] = median(build_ms).value;
  v["graph.degeneracy_ms"] = median(degeneracy_ms).value;
  v["graph.bytes_per_slot"] = graph_bytes / slots;
  v["sim.session_build_ms"] = median(session_ms).value;
  v["sim.runtime_bytes"] = runtime_bytes;
  v["sim.steady_bytes_per_slot"] = (graph_bytes + steady_bytes) / slots;
}

Solve plain_solve(sim::Runtime& rt, int bound, Preset preset, const Knobs& knobs) {
  double call_ms = 0.0, return_ms = 0.0;
  return run_solve(rt, bound, preset, knobs, call_ms, return_ms);
}

Solve Tracer::solve(sim::Runtime& rt, int bound, Preset preset,
                    const Knobs& knobs, Breakdown& into,
                    std::vector<double>* phase_ms_out) {
  std::vector<PhaseMarks> marks;
  marks.reserve(64);
  rt.set_interrupt([&marks] { marks.push_back({now_ms(), {}}); });
  rt.set_round_observer([&marks](int) {
    if (!marks.empty()) marks.back().round_end_ms.push_back(now_ms());
  });
  struct Unhook {
    sim::Runtime& rt;
    ~Unhook() {
      rt.set_interrupt(nullptr);
      rt.set_round_observer(nullptr);
    }
  } unhook{rt};

  double call_ms = 0.0, return_ms = 0.0;
  Solve s = run_solve(rt, bound, preset, knobs, call_ms, return_ms);
  if (!s.error.empty()) return s;

  const sim::PhaseLog& log = s.res.phases;
  // leaves_before[i]: leaf entries among log[0, i), i.e. the index into
  // `marks` of entry i when it is a leaf.
  std::vector<std::size_t> leaves_before(log.size() + 1, 0);
  for (std::size_t i = 0; i < log.size(); ++i) {
    leaves_before[i + 1] = leaves_before[i] + (log[i].span ? 0 : 1);
  }
  if (leaves_before[log.size()] != marks.size()) {
    s.error = "trace: " + std::to_string(marks.size()) +
              " hooked phases but " + std::to_string(leaves_before[log.size()]) +
              " PhaseLog leaves";
    return s;
  }
  const Attribution a = attribute(call_ms, return_ms, marks);
  auto phase_end = [&](std::size_t k) { return marks[k].start_ms + a.phase_ms[k]; };

  const int root = static_cast<int>(spans_.size());
  spans_.push_back({root, -1, "solve " + preset_name(preset), "core", call_ms,
                    call_ms + s.wall_ms});
  std::vector<int> parents{root};  // span id at each PhaseLog depth
  for (std::size_t i = 0; i < log.size(); ++i) {
    const sim::PhaseLog::Entry& e = log[i];
    parents.resize(static_cast<std::size_t>(e.depth) + 1);
    const std::size_t first = leaves_before[i];
    const std::size_t last = leaves_before[log.subtree_end(i)];
    if (first == last) continue;  // a span with no phase under it
    const int id = static_cast<int>(spans_.size());
    const std::string label(log.name(i));
    spans_.push_back({id, parents.back(), label, e.span ? "core" : module_of(label),
                      marks[first].start_ms, phase_end(last - 1)});
    parents.push_back(id);
    if (e.span) continue;
    double prev = marks[first].start_ms;
    const auto& ends = marks[first].round_end_ms;
    for (std::size_t r = 0; r < ends.size(); ++r) {
      spans_.push_back({static_cast<int>(spans_.size()), id,
                        "round " + std::to_string(r + 1), "sim", prev, ends[r]});
      prev = ends[r];
    }
  }
  spans_.push_back({static_cast<int>(spans_.size()), root, "is_legal_coloring",
                    "graph", return_ms, return_ms + s.check_ms});

  // Per-layer numbers of this solve.
  auto& v = into.values;
  std::size_t k = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].span) continue;
    const std::string label(log.name(i));
    const std::string key = module_of(label) + "." + label;
    v[key + "_ms"] += a.phase_ms[k];
    v[key + ".rounds"] += log[i].rounds;
    v[key + ".messages"] += static_cast<double>(log[i].messages);
    v["sim.phase_ms"] += a.phase_ms[k];
    ++k;
  }
  if (phase_ms_out != nullptr) *phase_ms_out = a.phase_ms;
  into.round_ms.insert(into.round_ms.end(), a.round_ms.begin(), a.round_ms.end());
  v["core.driver_ms"] += a.gap_ms;
  v["graph.check_ms"] += s.check_ms;
  v["sim.messages"] += static_cast<double>(s.res.total.messages);
  v["sim.words"] += static_cast<double>(s.res.total.words);
  v["sim.work_items"] += static_cast<double>(s.res.total.work_items);
  v["sim.phases"] += static_cast<double>(marks.size());
  return s;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  const std::vector<double> self = self_ms(spans_);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": " << quoted(s.name) << ", \"cat\": "
        << quoted(s.module) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << num(s.start_ms * 1e3) << ", \"dur\": " << num((s.end_ms - s.start_ms) * 1e3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"self_ms\": " << num(self[i]) << "}}";
  }
  out << "\n]}\n";
  std::cout << "spans: " << spans_.size() << " written to " << path << "\n";
}

// ---------------------------------------------------------------------------
// Metric sets

void add_layer_metrics(Report& report, const std::vector<Breakdown>& passes) {
  auto median_of = [&](const std::function<double(const Breakdown&)>& get) {
    std::vector<double> xs;
    for (const Breakdown& b : passes) xs.push_back(get(b));
    return median(xs).value;
  };
  auto value = [](const Breakdown& b, const std::string& key) {
    const auto it = b.values.find(key);
    return it == b.values.end() ? 0.0 : it->second;
  };
  for (const LayerMetric& m : kLayerMetrics) {
    const std::string name = m.name;
    double x = 0.0;
    if (name == "sim.round_p50_ms" || name == "sim.round_p95_ms") {
      const double p = name == "sim.round_p50_ms" ? 50.0 : 95.0;
      x = median_of([&](const Breakdown& b) { return tail_quantile(b.round_ms, p).value; });
    } else if (name == "sim.ns_per_message") {
      x = median_of([&](const Breakdown& b) {
        const double msgs = value(b, "sim.messages");
        return msgs > 0 ? value(b, "sim.phase_ms") * 1e6 / msgs : 0.0;
      });
    } else {
      x = median_of([&](const Breakdown& b) { return value(b, name); });
    }
    report.add(name, x, m.unit, passes.size());
  }
  for (const PhaseModule& p : kPhases) {
    const std::string key = std::string(p.module) + "." + p.label;
    for (const auto& [suffix, unit] :
         {std::pair{"_ms", "ms"}, {".rounds", "count"}, {".messages", "count"}}) {
      report.add(key + suffix,
                 median_of([&](const Breakdown& b) { return value(b, key + suffix); }),
                 unit, passes.size());
    }
  }
}

void add_solve_metrics(Report& report, const std::vector<double>& setup_s,
                       const std::vector<SolveSet>& sets) {
  std::vector<double> wall_ms, cpu_s;
  double colors = 0.0, rounds = 0.0;
  for (const SolveSet& set : sets) {
    for (const Solve& s : set.solves) {
      if (!s.error.empty()) continue;
      wall_ms.push_back(s.wall_ms);
      cpu_s.push_back(s.cpu_s);
    }
    if (set.ref) {
      colors += set.ref->distinct;
      rounds += set.ref->total.rounds;
    }
  }
  report.add("setup_s", median(setup_s), "s");
  report.add("solve_s", median(wall_ms), "s", 1e-3);
  report.add("cpu_s", median(cpu_s), "s");
  report.add_peak_rss();
  report.add("colors", colors, "count", sets.size(), "sum over the graphs");
  report.add("rounds", rounds, "count", sets.size(), "sum over the graphs");
  report.add("ok_ratio", report.ok_ratio(), "ratio", report.attempted());
}

}  // namespace perfbench
