// The service layer's closed loop, run inside rmat-polylog's traced run for
// the service.* per-layer metrics. One client thread keeps kWindow jobs
// outstanding against a ColoringService with one worker on 1-shard
// sessions. Jobs draw from six small graphs (n = 1000; planted-arboricity,
// Barabasi-Albert, geometric) and the four presets bench_service mixes. The
// arboricity bound varies, so most keys are new; as in bench_service, every
// 4th job repeats an earlier key and may hit the result cache. Exercises the
// queue, the session pool, the result cache and the 1-shard executor on
// low-degree graphs. It is no end-to-end workload of its own: on a shared
// host its job times spread 20-28% between runs of the same code, beyond
// any bound the benchmark may set.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/prng.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "service/service.hpp"

namespace perfbench {

using namespace dvc;

namespace {

constexpr V kN = 1000;
/// Jobs outstanding in the closed loop (an assumption about the client):
/// enough that the worker always finds a job queued and never waits for the
/// client to check a result, so job latency includes queueing.
constexpr std::size_t kWindow = 8;
/// Every kRepeatEvery-th job exactly repeats an earlier one: bench_service's
/// 1-in-4 cache-hit stream. bench_service repeats the previous arrival,
/// which in its open loop below saturation has finished. In this closed loop
/// the previous job is still queued, and a repeat of it would run again
/// instead of meeting the cache; so job j repeats job j - kWindow - 1, the
/// latest fresh job that has left the window when jobs finish in order.
constexpr std::size_t kRepeatEvery = 4;
static_assert((kWindow + 1) % kRepeatEvery != 0, "a repeat must repeat a fresh job");
/// Bound offsets 0..63 above the certified bound (how loose the bounds
/// clients send are is an assumption). A fresh key comes back only after
/// 24 pairs x 64 offsets = 1536 fresh keys, 24 times the service's default
/// 64-entry result cache, so a fresh key never meets the cache.
constexpr int kBoundSpread = 64;
constexpr std::int64_t kMinFresh = 96;  ///< fresh keys at least: four sweeps
constexpr std::size_t kSoloSample = 8;  ///< jobs 0..7 are re-run solo
constexpr Preset kPresets[] = {Preset::NearLinearColors, Preset::LinearColors,
                               Preset::PolylogTime, Preset::TradeoffAT};

struct Input {
  std::shared_ptr<const Graph> graph;
  int bound = 1;  ///< certified arboricity bound
};

struct Key {
  std::size_t input = 0;
  std::size_t preset = 0;
  int offset = 0;
  std::int64_t fresh = -1;  ///< index among fresh keys; -1 for a repeat
  std::uint64_t id() const {
    return (static_cast<std::uint64_t>(input) * std::size(kPresets) + preset) *
               kBoundSpread + static_cast<std::uint64_t>(offset);
  }
};

std::vector<Input> make_inputs(std::uint64_t seed) {
  std::vector<Input> in;
  for (std::uint64_t i = 0; i < 2; ++i) {
    const std::uint64_t s = seed * 16 + i * 3;
    in.push_back({std::make_shared<const Graph>(planted_arboricity(kN, 6, s)), 6});
    in.push_back({std::make_shared<const Graph>(barabasi_albert(kN, 5, s + 1)), 5});
    in.push_back({std::make_shared<const Graph>(random_geometric(kN, 0.06, s + 2)), 0});
  }
  for (Input& x : in) {
    if (x.bound == 0) x.bound = std::max(1, degeneracy(*x.graph));
  }
  return in;
}

/// The job stream. Fresh keys come in sweeps: a sweep takes the next bound
/// offset of every (graph, preset) pair, in a seed-shuffled order, so each
/// run of 24 fresh keys holds every pair once. Every kRepeatEvery-th job
/// instead re-uses the key of a job that has already left the window.
class JobStream {
 public:
  JobStream(std::size_t inputs, std::uint64_t seed)
      : rng_(seed ^ 0x5eed5eedULL), offsets_(inputs * std::size(kPresets)) {
    // Each pair's bound offsets, in a seed-shuffled order.
    for (std::vector<int>& o : offsets_) {
      for (int i = 0; i < kBoundSpread; ++i) o.push_back(i);
      shuffle(o);
    }
    for (std::size_t i = 0; i < offsets_.size(); ++i) order_.push_back(i);
  }
  Key next() {
    const std::size_t j = issued_.size();
    Key k;
    if (j > kWindow && j % kRepeatEvery == kRepeatEvery - 1) {
      k = issued_[j - kWindow - 1];
      k.fresh = -1;
    } else {
      const std::size_t pos = fresh_ % order_.size();
      if (pos == 0) shuffle(order_);
      const std::size_t pair = order_[pos];
      const std::size_t sweep = fresh_ / order_.size();
      k = {pair / std::size(kPresets), pair % std::size(kPresets),
           offsets_[pair][sweep % kBoundSpread], static_cast<std::int64_t>(fresh_)};
      ++fresh_;
    }
    issued_.push_back(k);
    return k;
  }
  std::size_t fresh_issued() const { return fresh_; }

 private:
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng_.uniform(i)]);
  }
  Rng rng_;
  std::vector<std::vector<int>> offsets_;  ///< per pair, the offsets in sweep order
  std::vector<std::size_t> order_;         ///< pair order of the current sweep
  std::size_t fresh_ = 0;
  std::vector<Key> issued_;
};

/// 64-bit digest of a result's colors, RunStats and PhaseLog, so repeats of
/// a key can be compared without keeping every coloring.
std::uint64_t fingerprint(const LegalColoringResult& r) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](std::uint64_t x) { h = detail::digest_mix(h, x); };
  for (const auto c : r.colors) mix(static_cast<std::uint64_t>(c));
  const sim::RunStats& t = r.total;
  for (const std::uint64_t x : {static_cast<std::uint64_t>(t.rounds), t.messages, t.words,
                                t.work_items, static_cast<std::uint64_t>(t.max_msg_words)}) {
    mix(x);
  }
  for (const auto a : t.active_per_round) mix(static_cast<std::uint64_t>(a));
  for (const auto w : t.words_per_round) mix(w);
  for (std::size_t i = 0; i < r.phases.size(); ++i) {
    for (const char c : r.phases.name(i)) mix(static_cast<std::uint8_t>(c));
    const sim::PhaseLog::Entry& e = r.phases[i];
    for (const std::uint64_t x :
         {static_cast<std::uint64_t>(e.depth), static_cast<std::uint64_t>(e.rounds),
          e.messages, e.words, e.work_items}) {
      mix(x);
    }
  }
  return h;
}

}  // namespace

void service_layer(std::uint64_t seed, double seconds, Breakdown& pass, Report& report) {
  service::ServiceConfig config;
  config.workers = 1;
  config.default_shards = 1;
  // Every graph keeps a warm session, as the default cap (4 per worker)
  // allows from two workers up.
  config.max_idle_sessions_total = 8;
  const std::vector<Input> inputs = make_inputs(seed);
  service::ColoringService svc(config);
  std::vector<service::GraphRef> refs;
  for (const Input& x : inputs) refs.push_back(svc.intern(x.graph));

  // The closed loop. Latency runs from submit to the verified result.
  struct Pending {
    service::JobTicket ticket;
    std::size_t job;
    Key key;
    double submit_ms;
  };
  JobStream stream(inputs.size(), seed);
  std::deque<Pending> pending;
  std::vector<double> queue_ms, run_ms, overhead_ms;
  std::unordered_map<std::uint64_t, std::uint64_t> seen;  // key id -> fingerprint
  std::vector<service::JobResult> sample(kSoloSample);
  std::vector<Key> sample_keys(kSoloSample);
  std::size_t next_job = 0, repeats = 0, cache_hits = 0;

  const double deadline = now_ms() + seconds * 1e3;
  for (;;) {
    while (pending.size() < kWindow &&
           (now_ms() < deadline || stream.fresh_issued() < kMinFresh)) {
      const Key k = stream.next();
      service::JobSpec spec;
      spec.graph = refs[k.input];
      spec.preset = kPresets[k.preset];
      spec.arboricity_bound = inputs[k.input].bound + k.offset;
      const double t = now_ms();
      pending.push_back({svc.submit(std::move(spec)), next_job++, k, t});
    }
    if (pending.empty()) break;
    // One worker finishes jobs in submission order: wait for the oldest.
    const Pending p = pending.front();
    pending.pop_front();
    service::JobResult res = svc.wait(p.ticket);
    std::string error;
    if (res.status != service::JobStatus::kOk) {
      error = std::string("job status ") + service::job_status_name(res.status) + ": " +
              res.error;
    } else {
      error = check_legal(*inputs[p.key.input].graph, res.result);
    }
    const double done = now_ms();
    if (p.key.fresh < 0) ++repeats;
    if (res.cache_hit) ++cache_hits;
    if (error.empty()) {
      const std::uint64_t fp = fingerprint(res.result);
      const auto [it, fresh] = seen.emplace(p.key.id(), fp);
      if (!fresh && it->second != fp) error = "repeated key gave a different result";
    }
    if (!error.empty()) error = "service job " + std::to_string(p.job) + ": " + error;
    report.op(error);
    if (!error.empty()) continue;
    queue_ms.push_back(res.queue_ms);
    run_ms.push_back(res.run_ms);
    overhead_ms.push_back(done - p.submit_ms - res.queue_ms - res.run_ms);
    if (p.job < kSoloSample) {
      sample[p.job] = std::move(res);
      sample_keys[p.job] = p.key;
    }
  }
  const service::ServiceMetrics sm = svc.metrics();
  const double jobs = static_cast<double>(next_job);
  std::printf("service jobs: %zu, repeats: %zu (%.1f%%), cache hits: %zu (%.1f%%)\n", next_job,
              repeats, 100.0 * static_cast<double>(repeats) / jobs, cache_hits,
              100.0 * static_cast<double>(cache_hits) / jobs);

  // A sample of jobs re-run solo through the direct API on fresh sessions
  // must equal what the service returned.
  for (std::size_t j = 0; j < kSoloSample; ++j) {
    if (!sample[j].ok) continue;  // already counted as a failed job
    const Key& k = sample_keys[j];
    sim::Runtime rt(*inputs[k.input].graph, 1);
    Solve s = plain_solve(rt, inputs[k.input].bound + k.offset, kPresets[k.preset], Knobs{});
    if (s.error.empty()) {
      s.error = check_same(sample[j].result, s.res, "solo run of service job " +
                                                        std::to_string(j));
    }
    report.op(s.error);
  }

  auto& v = pass.values;
  v["service.queue_p50_ms"] = tail_quantile(queue_ms, 50.0).value;
  v["service.queue_p95_ms"] = tail_quantile(queue_ms, 95.0).value;
  v["service.run_p50_ms"] = tail_quantile(run_ms, 50.0).value;
  v["service.run_p95_ms"] = tail_quantile(run_ms, 95.0).value;
  v["service.overhead_p50_ms"] = median(overhead_ms).value;
  v["service.warm_hit_ratio"] = sm.warm_hit_ratio;
  v["service.cache_hit_ratio"] = sm.cache_hit_ratio;
  v["service.cold_builds"] = static_cast<double>(sm.pool.cold_builds);
  v["service.retries"] = static_cast<double>(sm.retries);
  v["service.shed"] = static_cast<double>(sm.shed);
}

}  // namespace perfbench
