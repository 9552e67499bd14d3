// E13 -- coloring-service load generator: throughput and latency of the
// concurrent ColoringService on a mixed workload (three graph families x
// four presets), against the single-session baseline.
//
// Two configurations over the SAME job list:
//   * pool_size = 1: one worker, one warm session per (graph, shards) key
//     -- the sequential baseline every other row is normalized against;
//   * pool_size = 8 (configurable): the serving shape. Throughput should
//     approach min(pool, cores) x the baseline on idle multi-core hosts;
//     `speedup_vs_single_session` records what this host delivered, and
//     `hw_threads` records how much parallelism it had to offer.
//
// Every record carries per-job latency percentiles (p50/p95/p99, from
// bench_stats.hpp) plus pool/session statistics (warm-hit rate, cold
// builds). A determinism attestation re-runs a sample of jobs solo through
// the direct API and bitwise-compares colors/RunStats/PhaseLog against the
// under-load results (the `bit_identical` field CI checks).
//
// OPEN-LOOP section: on top of the closed-loop batch rows, an arrival-rate
// sweep (0.5x / 1x / 2x the measured closed-loop capacity) drives a
// shed-enabled service with arrivals at FIXED instants -- clients keep
// coming regardless of completions, the shape a public endpoint sees. Past
// saturation the bounded queue plus admission control keep measured p99
// flat while `shed_rate` absorbs the excess; each row records
// arrival_rate / achieved throughput / shed_rate / cache_hit_ratio and the
// ok-job latency percentiles. `--smoke=openloop` runs a seconds-scale
// deterministic variant (used as a ctest gate) that asserts shedding,
// cache hits and claimability rather than measuring.
//
// CHAOS section: a seeded fault storm (`--smoke=chaos`, also the tail of
// the full run) drives a self-healing service -- retries with deterministic
// backoff, phase-boundary checkpoint resume, digest quarantine -- and
// asserts every ticket terminates and every recovered job is bitwise-equal
// to a fault-free solo run; the `"config": "chaos"` record's
// faults_injected / retries / recovered_bit_identical fields are CI gates.
//
//   ./bench_service [--n=8192] [--jobs=48] [--pool=8] [--seed=1]
//                   [--smoke=openloop|chaos]
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "bench_stats.hpp"
#include "common/cli.hpp"
#include "core/api.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"

namespace {

using namespace dvc;
using benchio::Clock;
using benchio::ms_since;

struct Workload {
  const char* family;
  service::GraphRef graph;
  int arboricity_bound;
};

struct LoadResult {
  double wall_ms = 0.0;
  double throughput_jobs_per_sec = 0.0;
  benchio::LatencySummary latency;
  service::SessionPool::Stats pool;
  std::uint64_t store_hits = 0;
  std::vector<service::JobResult> results;  // job order
};

/// Runs `specs` through a fresh service with `workers` workers and collects
/// wall time, per-job latency (enqueue -> completion) and pool statistics.
LoadResult run_load(const std::vector<service::JobSpec>& proto_specs,
                    int workers) {
  service::ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = proto_specs.size() + 1;
  // This section measures RUN throughput: the warm-up pass uses the same
  // specs as the measured pass, so with the cache on the measurement would
  // be 24 map lookups. The open-loop section exercises the cache instead.
  config.result_cache_capacity = 0;
  service::ColoringService svc(config);
  // Re-intern each workload graph in this service's store so specs point at
  // this instance's bindings (shared_ptr reuse keeps this free of copies).
  std::vector<service::JobSpec> specs = proto_specs;
  for (service::JobSpec& spec : specs) {
    spec.graph = svc.intern(spec.graph.graph);
  }

  // Warm-up: the full job list once, so the measured pass is the steady
  // state a long-running server sees (sessions warm, store populated).
  {
    std::vector<service::JobSpec> warm = specs;
    for (service::JobTicket t : svc.submit_batch(std::move(warm))) {
      (void)svc.wait(t);
    }
  }

  LoadResult out;
  const auto t0 = Clock::now();
  std::vector<service::JobTicket> tickets = svc.submit_batch(std::move(specs));
  svc.drain();
  out.wall_ms = ms_since(t0);
  out.results.reserve(tickets.size());
  std::vector<double> latencies;
  latencies.reserve(tickets.size());
  for (const service::JobTicket t : tickets) {
    service::JobResult res = svc.wait(t);
    if (!res.ok) {
      std::cerr << "job " << res.id << " FAILED: " << res.error << "\n";
      std::exit(1);
    }
    latencies.push_back(res.queue_ms + res.run_ms);
    out.results.push_back(std::move(res));
  }
  out.throughput_jobs_per_sec =
      static_cast<double>(tickets.size()) / (out.wall_ms / 1e3);
  out.latency = benchio::summarize_ms(std::move(latencies));
  out.pool = svc.pool_stats();
  out.store_hits = svc.store().hits();
  return out;
}

/// One open-loop pass: `arrivals` jobs submitted at fixed instants spaced
/// 1/rate apart into a shed-enabled service. Jobs carry an eps jitter so
/// each is a distinct cache key, except every 4th which repeats the
/// previous job exactly -- a measurable, intentional cache-hit stream.
struct OpenLoopResult {
  double offered_rate = 0.0;           // jobs/s the pacer offered
  double achieved_jobs_per_sec = 0.0;  // ok results / wall
  benchio::LatencySummary latency;     // ok jobs, submit -> completion
  service::ServiceMetrics metrics;
  int arrivals = 0;
};

OpenLoopResult run_open_loop(const std::vector<service::JobSpec>& proto_specs,
                             int workers, std::size_t queue_capacity,
                             double rate, int arrivals) {
  service::ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = queue_capacity;
  config.shed_on_saturation = true;
  service::ColoringService svc(config);
  std::vector<service::JobSpec> protos = proto_specs;
  for (service::JobSpec& spec : protos) {
    spec.graph = svc.intern(spec.graph.graph);
  }
  // Warm the session pool so the measured pass sees steady-state service
  // times (cold Runtime builds would smear the latency tail).
  for (service::JobSpec warm : protos) {
    (void)svc.wait(svc.submit(std::move(warm)));
  }

  OpenLoopResult out;
  out.offered_rate = rate;
  out.arrivals = arrivals;
  std::vector<service::JobTicket> tickets;
  tickets.reserve(static_cast<std::size_t>(arrivals));
  benchio::OpenLoopPacer pacer(rate);
  const auto t0 = Clock::now();
  for (int i = 0; i < arrivals; ++i) {
    pacer.wait_for_next_arrival();
    service::JobSpec spec = protos[static_cast<std::size_t>(i) % protos.size()];
    if (i % 4 == 3) {
      // Exact repeat of the previous arrival: same graph, preset AND eps,
      // so it shares a cache key and can be answered without a run.
      spec = protos[static_cast<std::size_t>(i - 1) % protos.size()];
      spec.knobs.eps = 0.25 + 1e-9 * static_cast<double>(i - 1);
    } else {
      // Unique fingerprint: the jitter is far below anything the algorithm
      // can observe (eps only scales integer degree thresholds) but keys a
      // distinct cache entry, so saturation is measured on real runs.
      spec.knobs.eps = 0.25 + 1e-9 * static_cast<double>(i);
    }
    spec.priority = (i % 6 == 5) ? service::Priority::kLow
                                 : service::Priority::kNormal;
    tickets.push_back(svc.submit(std::move(spec)));
  }
  svc.drain();
  const double wall_ms = ms_since(t0);
  std::vector<double> ok_latencies;
  std::uint64_t ok = 0;
  for (const service::JobTicket t : tickets) {
    const service::JobResult res = svc.wait(t);
    if (res.ok) {
      ++ok;
      ok_latencies.push_back(res.queue_ms + res.run_ms);
    } else if (res.status != service::JobStatus::kRejected) {
      std::cerr << "open-loop job " << res.id << " unexpectedly "
                << service::job_status_name(res.status) << ": " << res.error
                << "\n";
      std::exit(1);
    }
  }
  out.achieved_jobs_per_sec = static_cast<double>(ok) / (wall_ms / 1e3);
  out.latency = benchio::summarize_ms(std::move(ok_latencies));
  out.metrics = svc.metrics();
  return out;
}

/// Seconds-scale deterministic gate behind `--smoke=openloop` (a ctest
/// target): asserts the policy surface -- shedding on a saturated queue,
/// cache hits answering without a run, every ticket claimable -- instead of
/// measuring a host-dependent latency curve.
int run_openloop_smoke(dvc::V n, std::uint64_t seed) {
  using namespace dvc;
  std::cout << "open-loop smoke (n=" << n << ")\n";
  benchio::JsonSink sink("service");

  service::GraphStore store;
  std::vector<service::JobSpec> protos;
  {
    service::JobSpec spec;
    spec.graph = store.intern(planted_arboricity(n, 4, seed));
    spec.arboricity_bound = 4;
    spec.preset = Preset::NearLinearColors;
    protos.push_back(spec);
    spec.preset = Preset::LinearColors;
    protos.push_back(spec);
  }

  // Deterministic saturation first: a paused service cannot drain, so
  // capacity + 1 submissions MUST shed exactly one job.
  {
    service::ServiceConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.start_paused = true;
    config.shed_on_saturation = true;
    service::ColoringService svc(config);
    service::JobSpec proto = protos[0];
    proto.graph = svc.intern(proto.graph.graph);
    std::vector<service::JobTicket> tickets;
    for (int i = 0; i < 5; ++i) {
      service::JobSpec spec = proto;
      spec.knobs.eps = 0.25 + 1e-9 * static_cast<double>(i);
      tickets.push_back(svc.submit(std::move(spec)));
    }
    const service::ServiceMetrics gated = svc.metrics();
    if (gated.shed != 1 || gated.queue_depth != 4) {
      std::cerr << "SMOKE FAIL: expected exactly 1 shed at capacity 4, got "
                << gated.shed << " shed / depth " << gated.queue_depth << "\n";
      return 1;
    }
    svc.resume();
    svc.drain();
    // Exact repeat of an admitted job: must be a cache hit, bit-identical.
    service::JobSpec repeat = proto;
    repeat.knobs.eps = 0.25;  // same key as i = 0
    const service::JobResult hit = svc.wait(svc.submit(std::move(repeat)));
    const service::JobResult first = svc.wait(tickets[0]);
    if (!hit.ok || !hit.cache_hit) {
      std::cerr << "SMOKE FAIL: repeat job was not a cache hit\n";
      return 1;
    }
    if (hit.result.colors != first.result.colors ||
        !(hit.result.total == first.result.total) ||
        !(hit.result.phases == first.result.phases)) {
      std::cerr << "SMOKE FAIL: cache hit differs from the fresh run\n";
      return 1;
    }
    int claimable = 0;
    for (std::size_t i = 1; i < tickets.size(); ++i) {
      claimable += svc.wait(tickets[i]).ok ? 1 : 0;
    }
    if (claimable != 3) {  // 4 admitted, [0] claimed above, 1 shed
      std::cerr << "SMOKE FAIL: expected 3 remaining ok tickets, got "
                << claimable << "\n";
      return 1;
    }
  }

  // A short real open-loop pass at an overload rate: shedding and a
  // bounded queue must both show up in the record.
  const OpenLoopResult overload =
      run_open_loop(protos, /*workers=*/2, /*queue_capacity=*/4,
                    /*rate=*/400.0, /*arrivals=*/80);
  const double shed_rate = static_cast<double>(overload.metrics.shed) /
                           static_cast<double>(overload.arrivals);
  benchio::JsonRecord rec;
  rec.field("bench", "service")
      .field("config", "openloop_smoke")
      .field("arrival_rate", overload.offered_rate)
      .field("achieved_jobs_per_sec", overload.achieved_jobs_per_sec)
      .field("shed_rate", shed_rate)
      .field("cache_hit_ratio", overload.metrics.cache_hit_ratio)
      .field("shed", overload.metrics.shed)
      .field("queue_capacity",
             static_cast<std::uint64_t>(overload.metrics.queue_capacity))
      .field("peak_rss_bytes", benchio::peak_rss_bytes());
  benchio::latency_fields(rec, overload.latency);
  sink.add(rec);
  std::cout << "overload pass: offered " << overload.offered_rate
            << " jobs/s, achieved " << overload.achieved_jobs_per_sec
            << " ok jobs/s, shed_rate " << shed_rate << ", cache_hit_ratio "
            << overload.metrics.cache_hit_ratio << ", p99 "
            << overload.latency.p99_ms << " ms\n";
  if (overload.metrics.cache_hit_ratio <= 0.0) {
    std::cerr << "SMOKE FAIL: the 1-in-4 repeat stream produced no cache "
                 "hits\n";
    return 1;
  }
  std::cout << "open-loop smoke PASSED\n";
  return 0;
}

/// Seeded chaos storm: a mixed workload where half the jobs carry
/// deterministic fault plans (a scheduled shard failure pinned to attempt 0
/// plus low-rate drops/corruption/stalls that re-roll per retry), driven
/// through a self-healing service. Proves the robustness contract the CI
/// gate checks: every ticket reaches a terminal status (a hang would trip
/// the test timeout), every faulted-then-recovered job is bitwise-equal to
/// a fault-free solo run, and the quarantine breaker trips for a digest
/// that faults on every attempt. Runs behind `--smoke=chaos` (a ctest
/// target) and as the tail section of the full bench; one "config":
/// "chaos" record lands in BENCH_service.json either way.
int run_chaos(dvc::V n, std::uint64_t seed, benchio::JsonSink& sink) {
  using namespace dvc;
  std::cout << "chaos storm (n=" << n << ", seed=" << seed << ")\n";

  service::ServiceConfig config;
  config.workers = 4;
  config.retry.max_attempts = 4;
  config.retry.backoff_base_ms = 0.1;
  config.retry.backoff_cap_ms = 2.0;
  // Generous: orders of magnitude above any real idle stretch on this
  // workload, so the watchdog is wired in without ever false-tripping here
  // (the chaos test suite pins its firing behaviour on a silent program).
  config.retry.watchdog_idle_rounds = 4096;
  service::ColoringService svc(config);

  std::vector<Workload> workloads;
  workloads.push_back(
      {"planted_arboricity", svc.intern(planted_arboricity(n, 4, seed)), 4});
  workloads.push_back(
      {"barabasi_albert", svc.intern(barabasi_albert(n, 4, seed + 1)), 4});
  const Preset presets[] = {Preset::NearLinearColors, Preset::LinearColors};

  const int jobs = 32;
  std::vector<service::JobSpec> sent;
  std::vector<service::JobTicket> tickets;
  for (int j = 0; j < jobs; ++j) {
    const Workload& w = workloads[static_cast<std::size_t>(j) % 2];
    service::JobSpec spec;
    spec.graph = w.graph;
    spec.arboricity_bound = w.arboricity_bound;
    spec.preset = presets[(static_cast<std::size_t>(j) / 2) % 2];
    if (j % 2 == 0) {
      // Faulty half. The scheduled failure fires ONLY on attempt 0 (salt
      // pin), so every faulty job fails its first run and must heal; the
      // rate faults draw per-attempt decisions, so a retry faces fresh
      // (deterministic, seeded) weather rather than replaying its killer.
      spec.fault_plan.seed = seed + static_cast<std::uint64_t>(j);
      spec.fault_plan.scheduled.push_back({sim::FaultKind::kShardFailure,
                                           /*phase=*/1, /*round=*/0,
                                           /*shard=*/-1, /*salt=*/0});
      spec.fault_plan.drop_rate = 0.001;
      spec.fault_plan.corrupt_rate = 0.001;
      spec.fault_plan.stall_rate = 0.01;
      spec.fault_plan.stall_us = 50;
    }
    sent.push_back(spec);
    tickets.push_back(svc.submit(std::move(spec)));
  }
  svc.drain();

  // Every ticket must be claimable with a terminal status: kOk (possibly
  // recovered) or kFailed with retries exhausted. Anything else -- an
  // unexpected structural failure, a checkpoint-replay divergence -- fails
  // the smoke with its error text.
  int ok_jobs = 0;
  int recovered_jobs = 0;
  int exhausted_jobs = 0;
  bool identical = true;
  std::vector<std::optional<LegalColoringResult>> solo(
      workloads.size() * std::size(presets));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const service::JobResult res = svc.wait(tickets[i]);
    if (res.ok) {
      ++ok_jobs;
      if (res.recovered) ++recovered_jobs;
      // Bitwise comparison against a fault-free solo run through the
      // direct API (memoized per workload x preset).
      const std::size_t key = (i % 2) * std::size(presets) +
                              static_cast<std::size_t>(
                                  sent[i].preset == Preset::LinearColors);
      if (!solo[key]) {
        solo[key] = color_graph(*sent[i].graph.graph, sent[i].arboricity_bound,
                                sent[i].preset, Knobs{});
      }
      if (solo[key]->colors != res.result.colors ||
          !(solo[key]->total == res.result.total) ||
          !(solo[key]->phases == res.result.phases)) {
        identical = false;
        std::cerr << "CHAOS FAIL: job " << res.id << " (attempts "
                  << res.attempts << ", recovered " << res.recovered
                  << ") differs bitwise from its fault-free solo run\n";
      }
    } else if (res.status == service::JobStatus::kFailed &&
               res.error.find("transient fault persisted") !=
                   std::string::npos) {
      ++exhausted_jobs;  // legitimate terminal outcome of a long bad streak
    } else {
      std::cerr << "CHAOS FAIL: job " << res.id << " ended "
                << service::job_status_name(res.status) << " in phase '"
                << res.failed_phase << "': " << res.error << "\n";
      return 1;
    }
  }
  const service::ServiceMetrics m = svc.metrics();

  // Quarantine breaker on its own service: a digest whose jobs fault on
  // EVERY attempt (scheduled salt -1) must trip the threshold and answer
  // later jobs structurally instead of burning retries forever.
  std::uint64_t quarantined = 0;
  std::size_t quarantined_digests = 0;
  {
    service::ServiceConfig qc;
    qc.workers = 1;
    qc.retry.max_attempts = 2;
    qc.retry.backoff_base_ms = 0.0;
    qc.retry.quarantine_threshold = 2;
    service::ColoringService qsvc(qc);
    service::JobSpec doomed;
    doomed.graph = qsvc.intern(workloads[0].graph.graph);
    doomed.arboricity_bound = 4;
    doomed.preset = Preset::NearLinearColors;
    doomed.fault_plan.seed = seed;
    doomed.fault_plan.scheduled.push_back(
        {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/0,
         /*shard=*/-1, /*salt=*/-1});
    std::vector<service::JobTicket> doomed_tickets;
    for (int i = 0; i < 4; ++i) {
      service::JobSpec s = doomed;
      doomed_tickets.push_back(qsvc.submit(std::move(s)));
    }
    for (const service::JobTicket t : doomed_tickets) (void)qsvc.wait(t);
    const service::ServiceMetrics qm = qsvc.metrics();
    quarantined = qm.quarantined;
    quarantined_digests = qm.quarantined_digests;
    if (quarantined == 0 || quarantined_digests == 0) {
      std::cerr << "CHAOS FAIL: the quarantine breaker never tripped ("
                << quarantined << " quarantined jobs)\n";
      return 1;
    }
  }

  std::cout << "chaos: " << ok_jobs << "/" << jobs << " ok ("
            << recovered_jobs << " recovered, " << exhausted_jobs
            << " exhausted retries), " << m.faults_injected
            << " faults injected, " << m.retries << " retries, " << m.recoveries
            << " recoveries, " << quarantined << " quarantined\n";

  benchio::JsonRecord rec;
  rec.field("bench", "service")
      .field("config", "chaos")
      .field("n", static_cast<std::int64_t>(n))
      .field("jobs", jobs)
      .field("ok", ok_jobs)
      .field("recovered", recovered_jobs)
      .field("exhausted", exhausted_jobs)
      .field("faults_injected", m.faults_injected)
      .field("retries", m.retries)
      .field("recoveries", m.recoveries)
      .field("quarantined", quarantined)
      .field("recovered_bit_identical",
             (identical && recovered_jobs > 0) ? 1 : 0)
      .field("peak_rss_bytes", benchio::peak_rss_bytes());
  sink.add(rec);

  if (!identical) return 1;
  if (m.faults_injected == 0 || m.retries == 0 || m.recoveries == 0 ||
      recovered_jobs == 0) {
    std::cerr << "CHAOS FAIL: the storm exercised no self-healing "
                 "(faults_injected=" << m.faults_injected
              << ", retries=" << m.retries << ", recoveries=" << m.recoveries
              << ")\n";
    return 1;
  }
  std::cout << "chaos storm PASSED\n";
  return 0;
}

int run(const dvc::Cli& cli) {
  using namespace dvc;
  const V n = static_cast<V>(cli.get_int("n", 8192));
  const int jobs = static_cast<int>(cli.get_int("jobs", 48));
  const int pool = static_cast<int>(cli.get_int("pool", 8));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  if (cli.get_string("smoke", "") == "openloop") {
    return run_openloop_smoke(static_cast<V>(cli.get_int("n", 600)), seed);
  }
  if (cli.get_string("smoke", "") == "chaos") {
    benchio::JsonSink sink("service");
    return run_chaos(static_cast<V>(cli.get_int("n", 600)), seed, sink);
  }

  std::cout << "E13: coloring-service load generator (n=" << n
            << ", jobs=" << jobs << ", pool=" << pool
            << ", hw_threads=" << hw_threads << ")\n\n";
  benchio::JsonSink sink("service");

  // The mixed topology set, interned once up front; job specs share these
  // bindings across both service configurations.
  service::GraphStore store;
  std::vector<Workload> workloads;
  workloads.push_back(
      {"planted_arboricity", store.intern(planted_arboricity(n, 6, seed)), 6});
  workloads.push_back(
      {"barabasi_albert", store.intern(barabasi_albert(n, 5, seed + 1)), 5});
  workloads.push_back(
      {"near_regular", store.intern(random_near_regular(n, 12, seed + 2)), 12});

  const Preset presets[] = {Preset::NearLinearColors, Preset::LinearColors,
                            Preset::PolylogTime, Preset::TradeoffAT};
  std::vector<service::JobSpec> specs;
  for (int j = 0; j < jobs; ++j) {
    const Workload& w = workloads[static_cast<std::size_t>(j) % workloads.size()];
    service::JobSpec spec;
    spec.graph = w.graph;
    spec.arboricity_bound = w.arboricity_bound;
    spec.preset = presets[(static_cast<std::size_t>(j) / workloads.size()) %
                          std::size(presets)];
    specs.push_back(std::move(spec));
  }

  const LoadResult solo = run_load(specs, /*workers=*/1);
  const LoadResult loaded = run_load(specs, /*workers=*/pool);
  const double speedup =
      loaded.throughput_jobs_per_sec / solo.throughput_jobs_per_sec;

  // Determinism attestation: every preset once, solo through the direct
  // API, bitwise-compared against the under-load service results.
  bool identical = true;
  for (std::size_t i = 0; i < loaded.results.size() &&
                          i < workloads.size() * std::size(presets);
       ++i) {
    const service::JobResult& res = loaded.results[i];
    const Workload& w = workloads[i % workloads.size()];
    LegalColoringResult direct =
        color_graph(*w.graph, w.arboricity_bound, res.preset, Knobs{});
    if (direct.colors != res.result.colors ||
        !(direct.total == res.result.total) ||
        !(direct.phases == res.result.phases)) {
      identical = false;
      std::cout << "DETERMINISM VIOLATION: job " << res.id << " ("
                << preset_name(res.preset) << " on " << w.family
                << ") differs from its solo run\n";
    }
  }

  for (const auto& [label, workers, res] :
       {std::tuple<const char*, int, const LoadResult*>{"single_session", 1,
                                                        &solo},
        {"pool", pool, &loaded}}) {
    std::cout << label << " (workers=" << workers << "): " << res->wall_ms
              << " ms for " << jobs << " jobs = "
              << res->throughput_jobs_per_sec << " jobs/s, p50 "
              << res->latency.p50_ms << " ms, p95 " << res->latency.p95_ms
              << " ms, p99 " << res->latency.p99_ms << " ms, warm hits "
              << res->pool.warm_hits << "/" << res->pool.acquires << "\n";
    benchio::JsonRecord rec;
    rec.field("bench", "service")
        .field("config", label)
        .field("pool_size", workers)
        .field("hw_threads", hw_threads)
        .field("jobs", jobs)
        .field("n", static_cast<std::int64_t>(n))
        .field("families", static_cast<std::int64_t>(workloads.size()))
        .field("wall_ms", res->wall_ms)
        .field("throughput_jobs_per_sec", res->throughput_jobs_per_sec)
        .field("warm_hits", res->pool.warm_hits)
        .field("cold_builds", res->pool.cold_builds)
        .field("idle_sessions",
               static_cast<std::uint64_t>(res->pool.idle_sessions))
        .field("peak_rss_bytes", benchio::peak_rss_bytes())
        .field("bit_identical", identical ? 1 : 0);
    benchio::latency_fields(rec, res->latency);
    if (workers != 1) rec.field("speedup_vs_single_session", speedup);
    sink.add(rec);
  }

  std::cout << "\npool speedup vs single session: " << speedup << "x ("
            << "host offers " << hw_threads << " hardware threads)\n"
            << "determinism under load: "
            << (identical ? "bit-identical to solo runs\n" : "VIOLATED\n");

  // Open-loop arrival-rate sweep, anchored to this host's measured
  // closed-loop capacity: 0.5x (underload), 1x (saturation), 2x (overload).
  // Overload is where the policy earns its keep -- admission control sheds
  // the excess and the bounded queue keeps the ok-job p99 flat instead of
  // letting queueing delay grow with offered load.
  std::cout << "\nopen-loop sweep (capacity " << loaded.throughput_jobs_per_sec
            << " jobs/s closed-loop):\n";
  for (const double factor : {0.5, 1.0, 2.0}) {
    const double rate = factor * loaded.throughput_jobs_per_sec;
    const int arrivals = jobs * 2;
    const OpenLoopResult ol = run_open_loop(
        specs, /*workers=*/pool, /*queue_capacity=*/
        static_cast<std::size_t>(2 * pool), rate, arrivals);
    const double shed_rate = static_cast<double>(ol.metrics.shed) /
                             static_cast<double>(ol.arrivals);
    std::cout << "  " << factor << "x (" << rate << " jobs/s offered): "
              << ol.achieved_jobs_per_sec << " ok jobs/s, shed_rate "
              << shed_rate << ", cache_hit_ratio "
              << ol.metrics.cache_hit_ratio << ", p50 " << ol.latency.p50_ms
              << " ms, p99 " << ol.latency.p99_ms << " ms\n";
    benchio::JsonRecord rec;
    rec.field("bench", "service")
        .field("config", "openloop")
        .field("load_factor", factor)
        .field("arrival_rate", rate)
        .field("arrivals", arrivals)
        .field("achieved_jobs_per_sec", ol.achieved_jobs_per_sec)
        .field("shed_rate", shed_rate)
        .field("shed", ol.metrics.shed)
        .field("cancelled", ol.metrics.cancelled)
        .field("expired", ol.metrics.expired)
        .field("cache_hit_ratio", ol.metrics.cache_hit_ratio)
        .field("warm_hit_ratio", ol.metrics.warm_hit_ratio)
        .field("queue_capacity",
               static_cast<std::uint64_t>(ol.metrics.queue_capacity))
        .field("pool_size", pool)
        .field("peak_rss_bytes", benchio::peak_rss_bytes());
    benchio::latency_fields(rec, ol.latency);
    sink.add(rec);
  }

  // Chaos tail section: the full run carries the same self-healing record
  // the smoke produces, so the schema gate holds on the release artifact.
  const int chaos_rc = run_chaos(static_cast<V>(600), seed, sink);

  // Bit-identity is a hard failure anywhere; throughput is advisory (it
  // depends on host parallelism), the JSON record is the tracked artifact.
  return (identical && chaos_rc == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return dvc::run_cli(argc, argv, run); }
