// Coloring service end-to-end: run a multi-worker ColoringService over a
// mixed workload (three graph families x several presets), exercising graph
// interning, warm session reuse, batched submission and structured per-job
// failure -- the serving shape the library exposes on top of the single-run
// engine.
//
//   ./coloring_server [--n=20000] [--jobs=60] [--workers=4] [--seed=1]
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/api.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"

namespace {

int run(const dvc::Cli& cli) {
  using namespace dvc;
  const V n = static_cast<V>(cli.get_int("n", 20000));
  const int jobs = static_cast<int>(cli.get_int("jobs", 60));
  const int workers = static_cast<int>(cli.get_int("workers", 4));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  service::ServiceConfig config;
  config.workers = workers;
  config.queue_capacity = 128;
  service::ColoringService svc(config);

  // A mixed topology set; each is interned once and shared by every job
  // that targets it (same digest -> same binding -> same warm sessions).
  struct Workload {
    const char* name;
    service::GraphRef graph;
    int arboricity_bound;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"planted a=6", svc.intern(planted_arboricity(n, 6, seed)), 6});
  workloads.push_back({"BA k=5", svc.intern(barabasi_albert(n, 5, seed + 1)), 5});
  workloads.push_back(
      {"near-regular d=12", svc.intern(random_near_regular(n, 12, seed + 2)), 12});
  std::cout << "Interned " << svc.store().size() << " graphs ("
            << svc.store().misses() << " misses, re-interning one now: ";
  svc.intern(planted_arboricity(n, 6, seed));  // digest hit, no new entry
  std::cout << svc.store().hits() << " hit)\n\n";

  const Preset presets[] = {Preset::NearLinearColors, Preset::LinearColors,
                            Preset::PolylogTime, Preset::TradeoffAT};

  // Batched submission: one bulk enqueue for the whole job matrix.
  // workload_of[i] names the workload ticket i ran on, for reporting.
  std::vector<service::JobSpec> specs;
  std::vector<std::size_t> workload_of;
  for (int j = 0; j < jobs; ++j) {
    const std::size_t wi = static_cast<std::size_t>(j) % workloads.size();
    const Workload& w = workloads[wi];
    service::JobSpec spec;
    spec.graph = w.graph;
    spec.arboricity_bound = w.arboricity_bound;
    spec.preset = presets[(static_cast<std::size_t>(j) / workloads.size()) %
                          std::size(presets)];
    specs.push_back(std::move(spec));
    workload_of.push_back(wi);
  }
  // One deliberately poisoned job: an arboricity bound below the truth makes
  // the pipeline throw mid-run; the service must fail just this job.
  {
    service::JobSpec poison;
    poison.graph = workloads[2].graph;
    poison.arboricity_bound = 1;
    poison.preset = Preset::NearLinearColors;
    specs.push_back(std::move(poison));
    workload_of.push_back(2);
  }
  std::vector<service::JobTicket> tickets = svc.submit_batch(std::move(specs));
  std::cout << "Submitted " << tickets.size() << " jobs to " << workers
            << " workers; draining...\n";
  svc.drain();

  Table table({"job", "workload", "preset", "status", "colors", "rounds",
               "session", "run-ms"});
  int ok = 0, failed = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const service::JobResult res = svc.wait(tickets[i]);
    const Workload& w = workloads[workload_of[i]];
    if (res.ok) {
      ++ok;
      if (i < 8) {  // keep the table short
        table.row(static_cast<std::int64_t>(res.id), w.name,
                  preset_name(res.preset), "ok", res.result.distinct,
                  res.result.total.rounds, res.warm_session ? "warm" : "cold",
                  res.run_ms);
      }
    } else {
      ++failed;
      table.row(static_cast<std::int64_t>(res.id), w.name,
                preset_name(res.preset), "FAILED", 0, 0, "-", res.run_ms);
      std::cout << "job " << res.id << " failed (as designed for the poisoned "
                << "bound): " << res.error.substr(0, 100) << "...\n";
    }
  }
  table.print(std::cout);

  const service::SessionPool::Stats pool = svc.pool_stats();
  std::cout << "\njobs ok=" << ok << " failed=" << failed
            << " | session pool: " << pool.acquires << " acquires, "
            << pool.warm_hits << " warm hits, " << pool.cold_builds
            << " cold builds, " << pool.idle_sessions << " idle\n";

  // Result cache: resubmitting a spec already served answers from the cache
  // without a run -- and the answer is bit-identical to the computed one.
  {
    service::JobSpec again;
    again.graph = workloads[0].graph;
    again.arboricity_bound = workloads[0].arboricity_bound;
    again.preset = presets[0];
    const service::JobResult hit = svc.wait(svc.submit(std::move(again)));
    std::cout << "resubmitted an identical job: cache_hit="
              << (hit.cache_hit ? "yes" : "NO") << " (" << hit.run_ms
              << " ms)\n";
    if (!hit.ok || !hit.cache_hit) return 1;
  }

  // Cancellation: a low-priority job with no urgency can be withdrawn; the
  // race against completion is legal either way (here the queue is idle, so
  // the job usually wins -- the point is the STRUCTURED outcome).
  {
    service::JobSpec casual;
    casual.graph = workloads[1].graph;
    casual.arboricity_bound = workloads[1].arboricity_bound;
    casual.preset = presets[1];
    casual.priority = service::Priority::kLow;
    const service::JobTicket t = svc.submit(casual);
    svc.cancel(t);
    const service::JobResult res = svc.wait(t);
    std::cout << "cancelled a queued job: status="
              << service::job_status_name(res.status) << "\n";
  }

  // The facade shape: one call through the service, result identical to the
  // direct API.
  const Graph tiny = planted_arboricity(2000, 4, 9);
  const LegalColoringResult via_service =
      color_graph(svc, tiny, 4, Preset::NearLinearColors);
  const LegalColoringResult direct = color_graph(tiny, 4, Preset::NearLinearColors);
  std::cout << "facade check: service colors=" << via_service.distinct
            << " direct colors=" << direct.distinct << " identical="
            << (via_service.colors == direct.colors ? "yes" : "NO") << "\n";

  // The operational scrape a monitor would poll: queue state, policy
  // counters, cache and warm-session hit ratios, per-preset latency tails.
  const service::ServiceMetrics m = svc.metrics();
  std::cout << "\nmetrics snapshot:\n"
            << "  queue " << m.queue_depth << "/" << m.queue_capacity
            << " (hi/norm/lo " << m.queue_depth_by_priority[0] << "/"
            << m.queue_depth_by_priority[1] << "/"
            << m.queue_depth_by_priority[2] << ")\n"
            << "  jobs: " << m.submitted << " submitted, " << m.ok << " ok, "
            << m.failed << " failed, " << m.shed << " shed, " << m.cancelled
            << " cancelled, " << m.expired << " expired\n"
            << "  cache: " << m.cache.hits << " hits / " << m.cache.misses
            << " misses (ratio " << m.cache_hit_ratio << "), "
            << m.cache.size << " entries\n"
            << "  pool: warm-hit ratio " << m.warm_hit_ratio << ", "
            << m.pool.evictions << " evictions\n";
  for (const auto& pm : m.per_preset) {
    std::cout << "  " << preset_name(pm.preset) << ": " << pm.jobs
              << " jobs, run p50/p95/p99 " << pm.run.p50_ms << "/"
              << pm.run.p95_ms << "/" << pm.run.p99_ms << " ms\n";
  }
  return failed == 1 && ok == static_cast<int>(tickets.size()) - 1 &&
                 via_service.colors == direct.colors && m.completed >= m.ok
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) { return dvc::run_cli(argc, argv, run); }
