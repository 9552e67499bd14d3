// Sleeping vertices (DESIGN.md, "Sleeping vertices"): a program that
// declares VertexProgram::sleeps() may put a vertex to sleep with
// Ctx::sleep_until, and the production sweep then skips it -- no port scan,
// no step() call -- until mail or its named round arrives. The reference
// executor ignores every sleep, so each identity check below also checks
// that every sleep the library's programs declare is honest:
//   1. a counting wrapper shows kw-reduce's quiet rounds skip step() while
//      work_items and active_per_round stay the reference's;
//   2. every preset is bit-identical to the reference at 1 and 3 shards,
//      threaded and inline, over loopback and fork, and across resume;
//   3. a dropped message leaves its receiver's mail stamp behind, and the
//      spurious wake it causes changes nothing.
// Threaded multi-shard runs race the cross-shard mail-stamp stores, which
// is why this file carries the `determinism` label (ThreadSanitizer leg).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <optional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "defective/reduce.hpp"
#include "dist/dist.hpp"
#include "graph/arboricity.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "reference_executor.hpp"
#include "sim/runtime.hpp"
#include "test_helpers.hpp"

namespace dvc {
namespace {

// --- 1. Step counting ------------------------------------------------------

/// Forwards every call to a library program and counts step() calls per
/// round.
class CountingProgram : public sim::VertexProgram {
 public:
  CountingProgram(sim::VertexProgram& inner, std::vector<int>& steps)
      : inner_(&inner), steps_(&steps) {}
  std::string name() const override { return inner_->name(); }
  int max_words() const override { return inner_->max_words(); }
  bool sleeps() const override { return inner_->sleeps(); }
  void begin(sim::Ctx& ctx) override { inner_->begin(ctx); }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    const auto r = static_cast<std::size_t>(ctx.round());
    if (steps_->size() <= r) steps_->resize(r + 1, 0);
    ++(*steps_)[r];
    inner_->step(ctx, inbox);
  }

 private:
  sim::VertexProgram* inner_;
  std::vector<int>* steps_;
};

/// Runs the phases labelled `label` on the PRODUCTION sweep, through a
/// CountingProgram around the library's program; declines every other
/// phase. Needs an inline session (a PhaseExecutor seam requirement).
class CountingExecutor : public sim::PhaseExecutor {
 public:
  explicit CountingExecutor(std::string label) : label_(std::move(label)) {}

  bool begin_phase(sim::Runtime&, sim::VertexProgram& program) override {
    if (program.name() != label_) return false;
    wrapper_.emplace(program, steps);
    return true;
  }
  void run_sweep(sim::Runtime& rt, bool is_begin) override {
    for (int shard = 0; shard < rt.shards(); ++shard) {
      sim::ReferenceAccess::production_sweep(rt, shard, *wrapper_, is_begin);
    }
  }
  void end_phase(sim::Runtime&, sim::VertexProgram&, bool) override {
    wrapper_.reset();
  }

  std::vector<int> steps;  ///< step() calls per round (index 0 unused)

 private:
  std::string label_;
  std::optional<CountingProgram> wrapper_;
};

TEST(SleepDeterminism, QuietKwReduceRoundsSkipStepWithUnchangedStats) {
  const Graph g = planted_arboricity(600, 3, 5);
  // Vertex ids are a legal n-coloring: a palette Linial never produces.
  Coloring ids(static_cast<std::size_t>(g.num_vertices()));
  for (V v = 0; v < g.num_vertices(); ++v) ids[static_cast<std::size_t>(v)] = v;

  dvc_test::ReferenceSession ref(g);
  const ReduceResult want =
      kw_reduce(ref.runtime(), ids, g.num_vertices(), g.max_degree());
  ASSERT_TRUE(is_legal_coloring(g, want.colors));

  for (const int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards, /*inline_shards=*/true);
    CountingExecutor counter("kw-reduce");
    rt.set_phase_executor(&counter);
    const ReduceResult got =
        kw_reduce(rt, ids, g.num_vertices(), g.max_degree());
    rt.set_phase_executor(nullptr);
    EXPECT_EQ(got.colors, want.colors);
    EXPECT_TRUE(got.stats == want.stats);

    // Rounds 1..R: every live vertex is one activation in work_items (the
    // same as the reference's step() per live vertex), but step() runs only
    // for woken vertices.
    const std::vector<std::int32_t>& live = got.stats.active_per_round;
    ASSERT_EQ(counter.steps.size(), live.size() + 1);
    const int half = g.max_degree() + 1;  // rounds per KW phase
    std::int64_t skipped = 0;
    int quiet = 0;
    for (std::size_t r = 1; r < counter.steps.size(); ++r) {
      EXPECT_LE(counter.steps[r], live[r - 1]) << "round " << r;
      // A phase's last round renumbers every vertex, so every live vertex
      // steps; round 1 delivers begin()'s broadcasts.
      if (r % static_cast<std::size_t>(half) == 0) {
        EXPECT_EQ(counter.steps[r], live[r - 1]) << "round " << r;
        continue;
      }
      if (r == 1) continue;
      ++quiet;
      EXPECT_LT(counter.steps[r], live[r - 1]) << "quiet round " << r;
      skipped += live[r - 1] - counter.steps[r];
    }
    EXPECT_GT(quiet, 0);
    // Most of a quiet round's live vertices sleep through it.
    std::int64_t quiet_live = 0;
    for (std::size_t r = 2; r < counter.steps.size(); ++r) {
      if (r % static_cast<std::size_t>(half) != 0) quiet_live += live[r - 1];
    }
    EXPECT_GT(2 * skipped, quiet_live);
  }
}

/// On the edge {0, 1}: vertex 0 sleeps until round 10 in begin(); vertex 1
/// mails it in round 2; woken in round 3, vertex 0 does not renew its sleep,
/// so it steps in round 4 too, then sleeps until round 6 and halts there.
/// Records the rounds in which vertex 0's step() runs.
class Napper : public sim::VertexProgram {
 public:
  Napper(bool sleepy, std::vector<int>& stepped)
      : sleepy_(sleepy), stepped_(&stepped) {}
  std::string name() const override { return "napper"; }
  bool sleeps() const override { return sleepy_; }
  void begin(sim::Ctx& ctx) override {
    if (ctx.vertex() == 0) ctx.sleep_until(10);
  }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    const int r = ctx.round();
    if (ctx.vertex() == 1) {
      if (r == 2) ctx.send(0, {7});
    } else {
      stepped_->push_back(r);
      if (r == 4) ctx.sleep_until(6);
    }
    if (r == 6) ctx.halt();
  }

 private:
  bool sleepy_;
  std::vector<int>* stepped_;
};

TEST(SleepDeterminism, SleepLastsUntilMailOrItsRoundAndEndsAtTheNextStep) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  std::vector<int> stepped;
  Napper sleepy(true, stepped);
  sim::Runtime rt(g);
  const sim::RunStats got = rt.run_phase(sleepy, 10);
  EXPECT_EQ(stepped, (std::vector<int>{3, 4, 6}));

  // Without the trait every sleep is ignored; the accounting is the same.
  stepped.clear();
  Napper awake(false, stepped);
  const sim::RunStats want = rt.run_phase(awake, 10);
  EXPECT_EQ(stepped, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(got == want);
}

// --- 2. Identity against the reference executor -----------------------------

struct Case {
  std::string name;
  Graph g;
  int bound;
  Knobs knobs;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  Knobs congest;
  congest.congest_words = kCongestWordsPaperPath;
  out.push_back({"planted", planted_arboricity(400, 4, 7), 4, congest});
  const Graph rmat = rmat_graph(9, 8, 3);
  out.push_back({"rmat", rmat, degeneracy(rmat), congest});
  // Forces delta_plus_one_low_arb's kw-reduce fallback (a non-Linial
  // palette) under the DeltaPlusOneLowArb preset; test_legal_coloring's
  // Corollary47FallbackReducesAnOvershootToDeltaPlusOne guards that it does.
  Knobs eta2;
  eta2.eta = 2.0;
  out.push_back({"cliques", dvc_test::shuffled_cliques(6, 32, 1), 5, eta2});
  return out;
}

constexpr Preset kPresets[] = {Preset::LinearColors,   Preset::NearLinearColors,
                               Preset::PolylogTime,    Preset::FastSubquadratic,
                               Preset::TradeoffAT,     Preset::DeltaPlusOneLowArb};

void expect_identical(const LegalColoringResult& want,
                      const LegalColoringResult& got, const std::string& what) {
  EXPECT_EQ(got.colors, want.colors) << what;
  EXPECT_EQ(got.distinct, want.distinct) << what;
  EXPECT_TRUE(got.total == want.total) << what;
  EXPECT_TRUE(got.phases == want.phases) << what;
}

TEST(SleepDeterminism, PresetsMatchReferenceThreadedAndInline) {
  for (const Case& c : cases()) {
    for (const Preset preset : kPresets) {
      const LegalColoringResult want =
          dvc_test::reference_coloring(c.g, c.bound, preset, c.knobs);
      ASSERT_TRUE(is_legal_coloring(c.g, want.colors));
      for (const int shards : {1, 3}) {
        for (const bool inline_shards : {false, true}) {
          sim::Runtime rt(c.g, shards, inline_shards);
          expect_identical(want, color_graph(rt, c.bound, preset, c.knobs),
                           c.name + " " + preset_name(preset) + " shards=" +
                               std::to_string(shards) +
                               (inline_shards ? " inline" : " threaded"));
        }
      }
    }
  }
}

TEST(SleepDeterminism, LoopbackAndForkMatchReference) {
  for (const Case& c : cases()) {
    for (const Preset preset : {Preset::PolylogTime, Preset::DeltaPlusOneLowArb}) {
      const LegalColoringResult want =
          dvc_test::reference_coloring(c.g, c.bound, preset, c.knobs);
      for (const dist::Backend backend :
           {dist::Backend::kLoopback, dist::Backend::kFork}) {
        for (const int workers : {2, 3}) {
          sim::Runtime rt(c.g, 3, /*inline_shards=*/true);
          dist::DistConfig cfg;
          cfg.workers = workers;
          cfg.backend = backend;
          dist::DistSession session(rt, cfg);
          expect_identical(
              want, color_graph(rt, c.bound, preset, c.knobs),
              c.name + " " + preset_name(preset) +
                  (backend == dist::Backend::kFork ? " fork" : " loopback") +
                  " workers=" + std::to_string(workers));
        }
      }
    }
  }
  int status = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1) << "a worker was not reaped";
}

TEST(SleepDeterminism, ResumeAtEveryBoundaryMatchesReference) {
  // Dense enough that PolylogTime refines (simple-arbdefective runs) and
  // small enough for a resume at every one of its phase boundaries.
  const Graph g = rmat_graph(8, 8, 3);
  const int kBound = degeneracy(g);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  dvc_test::ReferenceSession ref(g);
  int boundaries = 0;
  ref.runtime().set_interrupt([&boundaries] { ++boundaries; });
  const LegalColoringResult want =
      color_graph(ref.runtime(), kBound, Preset::PolylogTime, knobs);

  struct Abort {};
  for (int k = 0; k < boundaries; ++k) {
    SCOPED_TRACE("boundary " + std::to_string(k));
    std::vector<std::uint8_t> ckpt;
    sim::Runtime victim(g, 3);
    int seen = 0;
    victim.set_interrupt([&] {
      if (seen++ == k) {
        ckpt = victim.checkpoint();
        throw Abort{};
      }
    });
    EXPECT_THROW(color_graph(victim, kBound, Preset::PolylogTime, knobs),
                 Abort);
    sim::Runtime resumed(g, 1);
    resumed.resume(ckpt);
    expect_identical(want,
                     color_graph(resumed, kBound, Preset::PolylogTime, knobs),
                     "resume at boundary " + std::to_string(k));
  }
  EXPECT_GT(boundaries, 10);
}

// --- 3. Spurious wakes -------------------------------------------------------

/// Each vertex speaks every `period` rounds on a staggered schedule and
/// records what it hears as {round, port, words...}; between its own
/// rounds it sleeps until the next one (or mail). `sleepy = false` is the
/// same program without the trait: the runtime then steps every live
/// vertex every round and stamps no mail. Counts the steps that found an
/// empty inbox before the vertex's named round -- spurious wakes.
class Metronome : public sim::VertexProgram {
 public:
  using Transcripts = std::vector<std::vector<std::int64_t>>;
  Metronome(bool sleepy, int rounds, Transcripts& heard)
      : sleepy_(sleepy), rounds_(rounds), heard_(&heard) {}
  std::string name() const override { return "metronome"; }
  int max_words() const override { return 2; }
  bool sleeps() const override { return sleepy_; }
  void begin(sim::Ctx& ctx) override { ctx.sleep_until(next_round(ctx, 0)); }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    auto& t = (*heard_)[static_cast<std::size_t>(ctx.vertex())];
    for (const sim::MsgView& m : inbox) {
      t.push_back(ctx.round());
      t.push_back(m.port);
      t.insert(t.end(), m.data.begin(), m.data.end());
    }
    const int due = next_round(ctx, ctx.round() - 1);
    if (ctx.round() < due) {
      if (inbox.empty()) ++spurious;
      ctx.sleep_until(due);
      return;
    }
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    ctx.broadcast({ctx.id(), ctx.round()});
    ctx.sleep_until(next_round(ctx, ctx.round()));
  }

  int spurious = 0;  ///< single-threaded runs only

 private:
  /// First round after `round` at which v speaks (or halts).
  int next_round(const sim::Ctx& ctx, int round) const {
    constexpr int kPeriod = 7;
    const int phase = static_cast<int>(ctx.id() % kPeriod);
    int r = round + 1;
    while (r % kPeriod != phase && r < rounds_) ++r;
    return r;
  }

  bool sleepy_;
  int rounds_;
  Transcripts* heard_;
};

TEST(SleepDeterminism, SpuriousWakeAfterADropIsHarmless) {
  const Graph g = planted_arboricity(300, 3, 4);
  constexpr int kRounds = 60;
  // One message dropped at every delivery boundary, unchecked: the drop
  // rewinds its slot but leaves the receiver's mail stamp behind.
  sim::FaultPlan plan;
  plan.seed = 17;
  plan.drop_rate = 1.0;
  plan.checksum = false;

  auto run = [&](bool sleepy, int shards, bool inline_shards, int* spurious) {
    Metronome::Transcripts heard(static_cast<std::size_t>(g.num_vertices()));
    Metronome program(sleepy, kRounds, heard);
    sim::Runtime rt(g, shards, inline_shards);
    const sim::ScopedFaultPlan faults(rt, plan);
    const sim::RunStats stats = rt.run_phase(program, kRounds + 8);
    EXPECT_GT(rt.faults_injected(), 0u);
    if (spurious != nullptr) *spurious = program.spurious;
    return std::make_pair(stats, heard);
  };

  const auto want = run(/*sleepy=*/false, 1, false, nullptr);
  int spurious = 0;
  const auto one = run(/*sleepy=*/true, 1, false, &spurious);
  EXPECT_TRUE(one.first == want.first);
  EXPECT_EQ(one.second, want.second);
  EXPECT_GT(spurious, 0) << "no drop left a stale stamp on a sleeper";
  for (const bool inline_shards : {false, true}) {
    const auto three = run(/*sleepy=*/true, 3, inline_shards, nullptr);
    EXPECT_TRUE(three.first == want.first);
    EXPECT_EQ(three.second, want.second);
  }
}

}  // namespace
}  // namespace dvc
