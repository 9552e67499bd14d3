// Guarantees of the persistent sim::Runtime session layer (DESIGN.md,
// "Runtime sessions"):
//   1. Sharing one session across a pipeline of phases is bit-identical to
//      running every phase in a fresh session, at any shard count.
//   2. Phases after the first allocate nothing: arenas, inboxes, scratch,
//      stats buffers and the PhaseLog all keep their capacity, verified
//      through a global operator-new counting hook.
//   3. A full PolylogTime preset run on a session spawns zero threads after
//      the session is constructed, and a warm re-run performs zero
//      runtime-side heap allocations end to end.
//   4. Every preset and the adversarial delivery workloads (halt-heavy,
//      few-senders, tail exchange) match the tests-only reference executor
//      bit for bit at 1/2/8 shards.
//   5. CONGEST metering: word series, widest message, and both word caps
//      raising a structured bandwidth_error.
//   6. The PhaseLog is a consistent tree: spans aggregate their subtrees
//      and slices rebase cleanly.
//   7. A broadcast (one payload copy shared by all of the sender's mirror
//      slots) is indistinguishable from per-port sends in ascending order,
//      errors included. The reference executor reaches the arena through
//      the same send path, so the suites of section 4 cannot see this.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/api.hpp"
#include "core/arb_kuhn.hpp"
#include "core/arbdefective.hpp"
#include "core/mis.hpp"
#include "decomp/forests.hpp"
#include "decomp/h_partition.hpp"
#include "decomp/orientations.hpp"
#include "defective/kuhn.hpp"
#include "defective/reduce.hpp"
#include "defective/small_degree.hpp"
#include "graph/generators.hpp"
#include "reference_executor.hpp"
#include "sim/runtime.hpp"
#include "test_support.hpp"

namespace dvc {
namespace {

using dvc_test::Chatter;
using dvc_test::FloodAll;
using dvc_test::ReferenceSession;
using dvc_test::same_stats;

// --- 1. Session reuse is bit-identical to fresh sessions ------------------

TEST(Runtime, SharedSessionPipelineMatchesFreshSessionsAtAnyShardCount) {
  const Graph g = planted_arboricity(1 << 10, 4, 7);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));

    // One session carries all three phases...
    sim::Runtime rt(g, shards);
    const HPartitionResult hp_shared = h_partition(rt, 4);
    const DefectiveResult def_shared = kuhn_defective(rt, g.max_degree(), 2);
    const ReduceResult red_shared =
        kw_reduce(rt, def_shared.colors, def_shared.palette, g.max_degree());

    // ...vs a fresh session per phase, at the same shard count.
    sim::Runtime hp_rt(g, shards);
    const HPartitionResult hp_fresh = h_partition(hp_rt, 4);
    sim::Runtime def_rt(g, shards);
    const DefectiveResult def_fresh =
        kuhn_defective(def_rt, g.max_degree(), 2);
    sim::Runtime red_rt(g, shards);
    const ReduceResult red_fresh = kw_reduce(
        red_rt, def_fresh.colors, def_fresh.palette, g.max_degree());

    EXPECT_EQ(hp_shared.level, hp_fresh.level);
    EXPECT_TRUE(same_stats(hp_shared.stats, hp_fresh.stats));
    EXPECT_EQ(def_shared.colors, def_fresh.colors);
    EXPECT_TRUE(same_stats(def_shared.stats, def_fresh.stats));
    EXPECT_EQ(red_shared.colors, red_fresh.colors);
    EXPECT_TRUE(same_stats(red_shared.stats, red_fresh.stats));

    // The session log recorded all three leaves in order.
    ASSERT_EQ(rt.log().size(), 3u);
    EXPECT_EQ(rt.log().name(0), "h-partition");
    EXPECT_EQ(rt.log().name(1), "kuhn-defective");
    EXPECT_EQ(rt.log().name(2), "kw-reduce");

    // The composite drivers then run one after another on the same
    // session; each must match a fresh session of its own.
    const auto dirs = [&g](const auto& res) {
      std::vector<EdgeDir> out;
      for (V v = 0; v < g.num_vertices(); ++v) {
        for (int p = 0; p < g.degree(v); ++p) out.push_back(res.sigma.dir(v, p));
      }
      return out;
    };
    const auto colors = [](const auto& res) { return res.colors; };
    const auto shared_matches_fresh = [&](const char* name, auto output, auto driver) {
      SCOPED_TRACE(name);
      const auto shared = driver(rt);
      sim::Runtime fresh_rt(g, shards);
      const auto fresh = driver(fresh_rt);
      EXPECT_EQ(output(shared), output(fresh));
      EXPECT_TRUE(same_stats(shared.total, fresh.total));
    };
    shared_matches_fresh("orient_by_ids", dirs,
                         [](sim::Runtime& s) { return orient_by_ids(s, 4); });
    shared_matches_fresh("complete_orientation", dirs,
                         [](sim::Runtime& s) { return complete_orientation(s, 4); });
    shared_matches_fresh("partial_orientation", dirs,
                         [](sim::Runtime& s) { return partial_orientation(s, 4, 2); });
    shared_matches_fresh("arbdefective_coloring", colors,
                         [](sim::Runtime& s) { return arbdefective_coloring(s, 4, 2, 2); });
    shared_matches_fresh(
        "forests_decomposition", [](const auto& res) { return res.forest_of_slot; },
        [](sim::Runtime& s) { return forests_decomposition(s, 4); });
    shared_matches_fresh("legal_coloring", colors,
                         [](sim::Runtime& s) { return legal_coloring(s, 4, 4); });
  }
}

TEST(Runtime, PresetOnSessionMatchesFacadeAndIsShardInvariant) {
  const Graph g = planted_arboricity(1 << 10, 8, 3);
  Knobs knobs;
  knobs.shards = 1;
  const LegalColoringResult base = color_graph(g, 8, Preset::PolylogTime, knobs);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    const LegalColoringResult res = color_graph(rt, 8, Preset::PolylogTime);
    EXPECT_EQ(res.colors, base.colors);
    EXPECT_EQ(res.distinct, base.distinct);
    EXPECT_TRUE(same_stats(res.total, base.total));
    EXPECT_TRUE(res.phases == base.phases)
        << "phase log differs at " << shards << " shards";
  }
}

// --- 2. Warm phases allocate nothing --------------------------------------

TEST(Runtime, PhasesAfterTheFirstAllocateNothing) {
  const Graph g = random_near_regular(2048, 8, 3);
  constexpr int kRounds = 12;
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    // Metering enforcement on: the CONGEST budget check must not cost
    // allocations either (FloodAll sends 3-word payloads).
    rt.set_congest_words(3);
    {
      FloodAll warm(kRounds);
      rt.run_phase(warm, kRounds + sim::kRoundCapSlack, "flood");
    }
    // Every subsequent phase -- including its PhaseLog entry -- must reuse
    // warm capacity. The FloodAll program itself performs no allocations,
    // so the whole-binary counter must not move.
    const std::uint64_t before = dvc_test::alloc_count();
    for (int i = 0; i < 3; ++i) {
      FloodAll prog(kRounds);
      const sim::RunStats& stats =
          rt.run_phase(prog, kRounds + sim::kRoundCapSlack, "flood");
      if (stats.messages == 0) break;  // unreachable; keeps stats observable
    }
    EXPECT_EQ(dvc_test::alloc_count() - before, 0u)
        << "a warm phase allocated at " << shards << " shards";
    ASSERT_EQ(rt.log().size(), 4u);
  }
}

TEST(Runtime, WarmRoundsOfTheFirstPhaseAllocateNothing) {
  // The constructor reserves every delivery-path buffer to its exact upper
  // bound (the live list to the shard's vertex range, the inbox to the
  // shard's max degree), so even within the FIRST phase of a cold session
  // only the flood's first two rounds -- which warm the double-buffered
  // word arenas -- may allocate; from round 3 on the counter is frozen.
  const Graph g = random_near_regular(2048, 8, 5);
  constexpr int kRounds = 12;
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    std::uint64_t at_round2 = 0;
    std::uint64_t late_allocs = 0;
    rt.set_round_observer([&](int round) {
      if (round == 2) at_round2 = dvc_test::alloc_count();
      if (round > 2) late_allocs = dvc_test::alloc_count() - at_round2;
    });
    FloodAll prog(kRounds);
    rt.run_phase(prog, kRounds + sim::kRoundCapSlack, "flood");
    EXPECT_EQ(late_allocs, 0u) << "a round after the arena warm-up allocated";
  }
}

// --- 3. A full preset pipeline: zero thread spawns, warm re-run
//        performs zero runtime-side allocations ----------------------------

TEST(Runtime, PolylogPresetSpawnsNoThreadsAfterConstructionAndRerunsCleanly) {
  const Graph g = planted_arboricity(1 << 10, 8, 5);
  sim::Runtime rt(g, 4);
  EXPECT_EQ(rt.pool_threads(), 3);

  const std::uint64_t spawned =
      sim::Runtime::lifetime_threads_spawned();
  const LegalColoringResult first = color_graph(rt, 8, Preset::PolylogTime);
  // The entire multi-phase pipeline re-used the parked pool: zero spawns.
  EXPECT_EQ(sim::Runtime::lifetime_threads_spawned(), spawned);

  // Warm re-run: every arena, buffer and log arena is at capacity, so the
  // runtime machinery performs zero heap allocations end to end (driver and
  // program-level bookkeeping is outside the machinery scope).
  rt.reset_log();
  const std::uint64_t machinery = dvc_test::machinery_allocs();
  const LegalColoringResult second = color_graph(rt, 8, Preset::PolylogTime);
  EXPECT_EQ(dvc_test::machinery_allocs() - machinery, 0u)
      << "runtime machinery allocated during a warm preset re-run";
  EXPECT_EQ(sim::Runtime::lifetime_threads_spawned(), spawned);

  EXPECT_EQ(second.colors, first.colors);
  EXPECT_TRUE(same_stats(second.total, first.total));
  EXPECT_TRUE(second.phases == first.phases);
}

TEST(Runtime, CaughtProgramErrorDoesNotPoisonTheNextPhase) {
  // A program that throws in EVERY shard in one sweep: merge_shards must
  // clear all shard errors (not just the first it rethrows), or the next
  // phase on this session spuriously rethrows a stale exception.
  const Graph g = random_near_regular(512, 6, 17);
  struct ThrowEverywhere : sim::VertexProgram {
    std::string name() const override { return "throw-everywhere"; }
    void begin(sim::Ctx& ctx) override {
      throw invariant_error("deliberate failure in shard of vertex " +
                            std::to_string(ctx.vertex()));
    }
    void step(sim::Ctx&, const sim::Inbox&) override {}
  } bad;
  struct HaltAll : sim::VertexProgram {
    std::string name() const override { return "halt-all"; }
    void begin(sim::Ctx& ctx) override { ctx.halt(); }
    void step(sim::Ctx&, const sim::Inbox&) override {}
  } good;
  sim::Runtime rt(g, 4);
  EXPECT_THROW(rt.run_phase(bad, 4, "bad"), invariant_error);
  EXPECT_NO_THROW(rt.run_phase(good, 4, "good"));
}

// --- 4. Bit-identity against the reference executor ------------------------

TEST(Runtime, EveryPresetMatchesTheReferenceExecutorAtAnyShardCount) {
  // Colors, RunStats (including work_items) and the PhaseLog must match the
  // reference bit for bit on all six presets at 1/2/8 shards.
  const Graph g = planted_arboricity(1 << 10, 8, 21);
  for (const Preset preset :
       {Preset::LinearColors, Preset::NearLinearColors, Preset::PolylogTime,
        Preset::FastSubquadratic, Preset::TradeoffAT,
        Preset::DeltaPlusOneLowArb}) {
    const LegalColoringResult base = dvc_test::reference_coloring(g, 8, preset);
    for (const int shards : {1, 2, 8}) {
      SCOPED_TRACE("preset=" + preset_name(preset) +
                   " shards=" + std::to_string(shards));
      sim::Runtime rt(g, shards);
      const LegalColoringResult res = color_graph(rt, 8, preset);
      EXPECT_EQ(res.colors, base.colors);
      EXPECT_EQ(res.distinct, base.distinct);
      EXPECT_TRUE(same_stats(res.total, base.total));
      EXPECT_TRUE(res.phases == base.phases)
          << "phase log differs from the reference";
    }
  }
}

/// Runs the program `make(digest)` builds on the reference executor, then on
/// fresh sessions at 1/2/8 shards, expecting identical RunStats and
/// identical per-vertex inbox digests (the exact delivered contents, not
/// just counters). Returns the reference stats.
template <typename Make>
sim::RunStats expect_matches_reference(const Graph& g, int max_rounds,
                                       Make make) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<std::uint64_t> base_digest(n, 0);
  ReferenceSession ref(g);
  auto base_prog = make(base_digest);
  const sim::RunStats base = ref.runtime().run_phase(base_prog, max_rounds);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::vector<std::uint64_t> digest(n, 0);
    sim::Runtime rt(g, shards);
    auto prog = make(digest);
    EXPECT_TRUE(same_stats(rt.run_phase(prog, max_rounds), base));
    EXPECT_EQ(digest, base_digest) << "delivered inbox contents differ";
  }
  return base;
}

namespace adversarial {

/// Halt-heavy adversarial program: ~90% of vertices broadcast once and halt
/// in begin(); the survivors keep exchanging on two ports with staggered
/// halts, so the live list compacts a little every round. Round 1 delivers
/// the dense begin() broadcasts -- most of them addressed to vertices that
/// already halted, which must be dropped -- while later rounds carry only
/// the survivors' trickle through a live list that shrinks under the
/// delivery sweep. Each vertex folds its inbox into an order-dependent
/// per-vertex digest so tests can compare the exact delivered contents and
/// their port order, not just counters.
class HaltHeavy : public sim::VertexProgram {
 public:
  explicit HaltHeavy(std::vector<std::uint64_t>& digest) : digest_(digest) {}
  std::string name() const override { return "halt-heavy"; }
  int max_words() const override { return 2; }
  void begin(sim::Ctx& ctx) override {
    ctx.broadcast({ctx.id(), 0});
    if (ctx.id() % 10 != 0) ctx.halt();
  }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    auto& d = digest_[static_cast<std::size_t>(ctx.vertex())];
    for (const sim::MsgView& m : inbox) {
      d = d * 31 + static_cast<std::uint64_t>((m.port + 1) *
                                              (m.data[0] * 31 + m.data[1]));
    }
    if (ctx.round() > (ctx.id() / 10) % 5 + 2) {
      ctx.halt();
      return;
    }
    if (ctx.degree() > 0) ctx.send(0, {ctx.id(), ctx.round()});
    if (ctx.degree() > 1) ctx.send(ctx.degree() - 1, {ctx.id(), ctx.round()});
  }

 private:
  std::vector<std::uint64_t>& digest_;
};

/// Few-senders workload: every vertex stays live for `rounds` rounds, but
/// only 1-in-64 vertices send (one rotating port each round), so nearly
/// every port the delivery sweep scans holds a stale cell and a fresh
/// message must still be found in port order among them (the shape of
/// kw-reduce). Receivers fold their inboxes into an order-dependent digest
/// so the test compares exact delivered contents.
class FewSenders : public sim::VertexProgram {
 public:
  FewSenders(int rounds, std::vector<std::uint64_t>& digest)
      : rounds_(rounds), digest_(digest) {}
  std::string name() const override { return "few-senders"; }
  int max_words() const override { return 2; }
  void begin(sim::Ctx& ctx) override { maybe_send(ctx); }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    auto& d = digest_[static_cast<std::size_t>(ctx.vertex())];
    for (const sim::MsgView& m : inbox) {
      d = d * 37 +
          static_cast<std::uint64_t>((m.port + 1) * (m.data[0] + m.data[1]));
    }
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    maybe_send(ctx);
  }

 private:
  void maybe_send(sim::Ctx& ctx) {
    if (ctx.id() % 64 != 0 || ctx.degree() == 0) return;
    ctx.send(ctx.round() % ctx.degree(), {ctx.id(), ctx.round()});
  }
  int rounds_;
  std::vector<std::uint64_t>& digest_;
};

/// Tail-heavy workload: 1-in-`sparsity` vertices survive begin() and keep
/// exchanging 1-word messages on up to `fanout` ports for `rounds` rounds,
/// on a staggered schedule -- a survivor sends only on its 1-in-`period`
/// rounds, the way the pipeline's greedy sweeps let one color class speak
/// per round. This is the shape of the layer-peeling and refinement tails:
/// a small live frontier inside a large graph, whose delivery sweep visits
/// only the compacted live list. Receivers fold their inboxes into an
/// order-dependent digest.
class TailExchange : public sim::VertexProgram {
 public:
  TailExchange(int sparsity, int fanout, int period, int rounds,
               std::vector<std::uint64_t>& digest)
      : sparsity_(sparsity), fanout_(fanout), period_(period),
        rounds_(rounds), digest_(digest) {}
  std::string name() const override { return "tail-exchange"; }
  int max_words() const override { return 1; }
  void begin(sim::Ctx& ctx) override {
    if (ctx.id() % sparsity_ != 0) {
      ctx.halt();
      return;
    }
    maybe_send(ctx);
  }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    auto& d = digest_[static_cast<std::size_t>(ctx.vertex())];
    for (const sim::MsgView& m : inbox) {
      d = d * 41 + static_cast<std::uint64_t>((m.port + 1) * m.data[0]);
    }
    if (ctx.round() >= rounds_) ctx.halt();
    else maybe_send(ctx);
  }

 private:
  void maybe_send(sim::Ctx& ctx) {
    const auto slot = (ctx.id() / sparsity_) % period_;
    if (ctx.round() % period_ != static_cast<int>(slot)) return;
    const int deg = ctx.degree();
    const int ports = fanout_ < 0 ? deg : std::min(fanout_, deg);
    for (int p = 0; p < ports; ++p) ctx.send(p, {ctx.id()});
  }
  int sparsity_;
  int fanout_;
  int period_;
  int rounds_;
  std::vector<std::uint64_t>& digest_;
};

}  // namespace adversarial

TEST(Runtime, HaltHeavyProgramMatchesTheReferenceAtAnyShardCount) {
  const Graph g = random_near_regular(1 << 11, 8, 29);
  const sim::RunStats base =
      expect_matches_reference(g, 64, [](std::vector<std::uint64_t>& d) {
        return adversarial::HaltHeavy(d);
      });
  // The workload really is halt-heavy: ~10% of vertices survive begin().
  ASSERT_FALSE(base.active_per_round.empty());
  EXPECT_LE(base.active_per_round.front(), g.num_vertices() / 8);
}

TEST(Runtime, FewSendersMatchesTheReferenceAtAnyShardCount) {
  const Graph g = random_near_regular(1 << 11, 8, 43);
  constexpr int kRounds = 12;
  const sim::RunStats base = expect_matches_reference(
      g, kRounds + sim::kRoundCapSlack, [](std::vector<std::uint64_t>& d) {
        return adversarial::FewSenders(kRounds, d);
      });
  // The workload delivers something (or the comparison is vacuous).
  EXPECT_GT(base.messages, 0u);
}

TEST(Runtime, TailExchangeMatchesTheReferenceAtAnyShardCount) {
  // 1-in-32 live, 2-port staggered frontier: the live list compacts to a
  // thin tail, and only the tail's ports are scanned.
  const Graph g = random_near_regular(1 << 13, 16, 7);
  constexpr int kRounds = 64;
  const sim::RunStats base = expect_matches_reference(
      g, kRounds + sim::kRoundCapSlack, [](std::vector<std::uint64_t>& d) {
        return adversarial::TailExchange(/*sparsity=*/32, /*fanout=*/2,
                                         /*period=*/8, kRounds, d);
      });
  ASSERT_FALSE(base.active_per_round.empty());
  EXPECT_LE(base.active_per_round.front(), g.num_vertices() / 32);
  EXPECT_GT(base.messages, 0u);
}

TEST(Runtime, WorkItemsCountActivationsPlusDeliveredMessages) {
  // A deterministic closed form: FloodAll on an all-live graph activates
  // every vertex in begin() and every round, and delivers every sent
  // message one round later except those sent in the final (halting)
  // round's predecessor... directly: activations = n * (rounds + 1);
  // deliveries = messages arriving at live vertices = 2m * rounds (the
  // last broadcast is sent in round rounds-1... FloodAll halts in round
  // `rounds` after receiving, so every broadcast is delivered).
  const Graph g = random_near_regular(512, 6, 31);
  constexpr int kRounds = 5;
  sim::Runtime rt(g);
  dvc_test::FloodAll prog(kRounds);
  const sim::RunStats& stats = rt.run_phase(prog, kRounds + sim::kRoundCapSlack);
  const auto n = static_cast<std::uint64_t>(g.num_vertices());
  const auto activations = n * static_cast<std::uint64_t>(stats.rounds + 1);
  EXPECT_EQ(stats.work_items, activations + stats.messages);
}

// --- 5. CONGEST bandwidth accounting ---------------------------------------

namespace bw {

/// Sends `width` words on every port each round; declares `declared` as its
/// max_words contract (0 = undeclared).
class WideSender : public sim::VertexProgram {
 public:
  WideSender(int width, int declared, int rounds)
      : width_(width), declared_(declared), rounds_(rounds) {}
  std::string name() const override { return "wide-sender"; }
  int max_words() const override { return declared_; }
  void begin(sim::Ctx& ctx) override { blast(ctx); }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() >= rounds_) ctx.halt();
    else blast(ctx);
  }

 private:
  void blast(sim::Ctx& ctx) {
    auto& payload = ctx.scratch();
    payload.assign(static_cast<std::size_t>(width_), 7);
    ctx.broadcast(std::span<const std::int64_t>(payload.data(),
                                                payload.size()));
  }
  int width_;
  int declared_;
  int rounds_;
};

}  // namespace bw

TEST(Runtime, MetersWordsPerRoundAndWidestMessage) {
  const Graph g = random_near_regular(512, 6, 9);
  sim::Runtime rt(g);
  bw::WideSender prog(/*width=*/3, /*declared=*/3, /*rounds=*/4);
  const sim::RunStats& stats = rt.run_phase(prog, 4 + sim::kRoundCapSlack);
  EXPECT_EQ(stats.max_msg_words, 3u);
  EXPECT_EQ(stats.words, stats.messages * 3);
  // Begin plus every round contributes one bandwidth sample; the series
  // sums to the total and the final round (halt, no sends) records 0.
  ASSERT_EQ(stats.words_per_round.size(),
            static_cast<std::size_t>(stats.rounds) + 1);
  std::uint64_t sum = 0;
  for (const std::uint64_t w : stats.words_per_round) sum += w;
  EXPECT_EQ(sum, stats.words);
  EXPECT_EQ(stats.words_per_round.back(), 0u);
  EXPECT_EQ(stats.words_per_round.front(),
            static_cast<std::uint64_t>(g.num_edges()) * 2 * 3);
}

TEST(Runtime, SessionBudgetViolationRaisesStructuredBandwidthError) {
  const Graph g = random_near_regular(256, 4, 11);
  for (const int shards : {1, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    rt.set_congest_words(2);
    bw::WideSender wide(/*width=*/3, /*declared=*/0, /*rounds=*/2);
    try {
      rt.run_phase(wide, 8);
      FAIL() << "expected bandwidth_error";
    } catch (const sim::bandwidth_error& e) {
      EXPECT_EQ(e.words, 3);
      EXPECT_EQ(e.cap, 2);
      EXPECT_EQ(e.round, 0);  // first violation is in begin()
      EXPECT_FALSE(e.from_contract);
      EXPECT_GE(e.vertex, 0);
      EXPECT_LT(e.vertex, g.num_vertices());
      EXPECT_GE(e.port, 0);
      EXPECT_LT(e.port, g.degree(e.vertex));
      EXPECT_NE(std::string(e.what()).find("congest_words"), std::string::npos);
    }
    // The session survives: a compliant phase runs clean afterwards.
    bw::WideSender ok(/*width=*/2, /*declared=*/2, /*rounds=*/2);
    EXPECT_NO_THROW(rt.run_phase(ok, 8));
    // A bandwidth_error is also an invariant_error (catchable generically).
    rt.set_congest_words(1);
    bw::WideSender wide2(/*width=*/2, /*declared=*/0, /*rounds=*/1);
    EXPECT_THROW(rt.run_phase(wide2, 8), invariant_error);
  }
}

TEST(Runtime, DeclaredContractIsEnforcedEvenWithoutASessionBudget) {
  // A program that under-declares its width must fail on EVERY run -- the
  // contract is self-enforcing, not just checked under a budget.
  const Graph g = random_near_regular(256, 4, 13);
  sim::Runtime rt(g);
  ASSERT_EQ(rt.congest_words(), 0);  // LOCAL session
  bw::WideSender lying(/*width=*/3, /*declared=*/2, /*rounds=*/2);
  try {
    rt.run_phase(lying, 8);
    FAIL() << "expected bandwidth_error";
  } catch (const sim::bandwidth_error& e) {
    EXPECT_TRUE(e.from_contract);
    EXPECT_EQ(e.cap, 2);
    EXPECT_EQ(e.words, 3);
    EXPECT_NE(std::string(e.what()).find("max_words"), std::string::npos);
  }
  // The tighter of contract and budget wins in both directions.
  rt.set_congest_words(1);
  bw::WideSender wide(/*width=*/2, /*declared=*/3, /*rounds=*/1);
  try {
    rt.run_phase(wide, 8);
    FAIL() << "expected bandwidth_error";
  } catch (const sim::bandwidth_error& e) {
    EXPECT_FALSE(e.from_contract);
    EXPECT_EQ(e.cap, 1);
  }
}

TEST(Runtime, PaperPipelineRunsUnderItsDeclaredCongestBudget) {
  // Every paper-path program passes under the finite session budget
  // matching the widest declared contract; the observed widths match the
  // declarations exactly at the pipeline level.
  const Graph g = planted_arboricity(1 << 10, 8, 5);
  sim::Runtime rt(g);
  rt.set_congest_words(kCongestWordsPaperPath);
  const LegalColoringResult res = color_graph(rt, 8, Preset::PolylogTime);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_LE(res.total.max_msg_words,
            static_cast<std::uint32_t>(kCongestWordsPaperPath));
  EXPECT_GT(res.total.max_msg_words, 0u);
}

// --- 6. PhaseLog tree consistency ------------------------------------------

TEST(PhaseLog, SpansAggregateTheirDirectChildren) {
  const Graph g = planted_arboricity(1 << 10, 8, 9);
  sim::Runtime rt(g);
  const LegalColoringResult res = color_graph(rt, 8, Preset::PolylogTime);
  const sim::PhaseLog& log = rt.log();
  ASSERT_GT(log.size(), 0u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (!log[i].span) continue;
    std::int64_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint32_t max_msg_words = 0;
    for (std::size_t j = i + 1; j < log.subtree_end(i);
         j = log.subtree_end(j)) {
      rounds += log[j].rounds;
      messages += log[j].messages;
      max_msg_words = std::max(max_msg_words, log[j].max_msg_words);
    }
    EXPECT_EQ(rounds, log[i].rounds) << "span " << log.name(i);
    EXPECT_EQ(messages, log[i].messages) << "span " << log.name(i);
    EXPECT_EQ(max_msg_words, log[i].max_msg_words) << "span " << log.name(i);
  }
  // The result's slice equals the session log here (one call on a fresh
  // session), slicing from 0 is the identity, and top-level entries compose
  // to the run total.
  EXPECT_TRUE(res.phases == log.slice(0));
  EXPECT_TRUE(log.slice(0) == log);
  EXPECT_TRUE(res.phases.total() == res.total);
}

TEST(PhaseLog, ResultProfileMatchesLogTimeline) {
  // The result's active_per_round profile is the execution timeline: the
  // concatenation of the log's leaves in order. TradeoffAT exercises the
  // deepest composition (arb-kuhn decomposition before the inner
  // Legal-Coloring).
  const Graph g = planted_arboricity(1 << 10, 8, 13);
  sim::Runtime rt(g);
  const LegalColoringResult res = color_graph(rt, 8, Preset::TradeoffAT);
  std::vector<std::int32_t> timeline;
  for (std::size_t i = 0; i < res.phases.size(); ++i) {
    const auto active = res.phases.active(res.phases[i]);
    timeline.insert(timeline.end(), active.begin(), active.end());
  }
  EXPECT_EQ(timeline, res.total.active_per_round);
}

TEST(PhaseLog, CompositeDriverTotalsAreTheirLogRange) {
  // Every composite driver's RunStats -- counters and both per-round series
  // -- is the composition of the log entries it recorded, at any shard
  // count, whether it runs at the top of the session log or nested in an
  // enclosing span behind earlier entries.
  struct Row {
    std::string name;
    std::function<sim::RunStats(sim::Runtime&)> run;
  };
  const Graph g = planted_arboricity(600, 4, 21);
  std::vector<Row> rows = {
      {"orient_by_ids",
       [](sim::Runtime& rt) { return orient_by_ids(rt, 4).total; }},
      {"complete_orientation",
       [](sim::Runtime& rt) { return complete_orientation(rt, 4).total; }},
      {"partial_orientation",
       [](sim::Runtime& rt) { return partial_orientation(rt, 4, 2).total; }},
      {"forests_decomposition",
       [](sim::Runtime& rt) { return forests_decomposition(rt, 4).total; }},
      {"arbdefective_coloring",
       [](sim::Runtime& rt) { return arbdefective_coloring(rt, 4, 2, 2).total; }},
      {"arb_kuhn_arbdefective",
       [](sim::Runtime& rt) { return arb_kuhn_arbdefective(rt, 4, 1).total; }},
      {"legal_small_degree",
       [](sim::Runtime& rt) {
         return legal_small_degree(rt, rt.graph().max_degree()).stats;
       }},
      {"legal_coloring",
       [](sim::Runtime& rt) { return legal_coloring(rt, 4, 4).total; }},
      {"mis_graph",
       [](sim::Runtime& rt) { return mis_graph(rt, 4).total; }},
  };
  for (int p = 0; p < kNumPresets; ++p) {
    const auto preset = static_cast<Preset>(p);
    rows.push_back({preset_name(preset), [preset](sim::Runtime& rt) {
                      return color_graph(rt, 4, preset).total;
                    }});
  }
  for (const Row& row : rows) {
    for (const int shards : {1, 3}) {
      for (const bool nested : {false, true}) {
        SCOPED_TRACE(row.name + " shards=" + std::to_string(shards) +
                     (nested ? " nested" : ""));
        sim::Runtime rt(g, shards);
        std::optional<sim::PhaseSpan> outer;
        if (nested) {
          h_partition(rt, 4);
          outer.emplace(rt, "outer");
        }
        const std::size_t mark = rt.log().size();
        const sim::RunStats total = row.run(rt);
        EXPECT_TRUE(total == rt.log().total(mark));
        EXPECT_GT(total.rounds, 0);
      }
    }
  }
}

TEST(PhaseLog, SessionLogSurvivesAThrowingPipeline) {
  // A round-cap throw mid-pipeline (arboricity bound below the true value)
  // must unwind every open span, leaving the session reusable: later phases
  // record at depth 0 -- a leaked span would leave them nested.
  const Graph g = complete_graph(32);
  sim::Runtime rt(g);
  EXPECT_THROW(color_graph(rt, 2, Preset::LinearColors), invariant_error);
  const std::size_t mark = rt.log().size();
  h_partition(rt, 31);
  ASSERT_EQ(rt.log().size(), mark + 1);
  EXPECT_EQ(rt.log()[mark].depth, 0) << "a span leaked across the throw";
  const LegalColoringResult res = color_graph(rt, 31, Preset::LinearColors);
  EXPECT_TRUE(is_legal_coloring(g, res.colors));
  EXPECT_TRUE(res.phases.total() == res.total);
}

TEST(PhaseLog, SliceRebasesDepthAndPreservesNames) {
  const Graph g = planted_arboricity(512, 4, 11);
  sim::Runtime rt(g);
  h_partition(rt, 4);  // entry 0, not part of the slice
  const std::size_t mark = rt.log().size();
  {
    const sim::PhaseSpan span(rt, "outer");
    h_partition(rt, 4);
  }
  const sim::PhaseLog sliced = rt.log().slice(mark);
  ASSERT_EQ(sliced.size(), 2u);
  EXPECT_EQ(sliced.name(0), "outer");
  EXPECT_TRUE(sliced[0].span);
  EXPECT_EQ(sliced[0].depth, 0);
  EXPECT_EQ(sliced.name(1), "h-partition");
  EXPECT_EQ(sliced[1].depth, 1);
  EXPECT_EQ(sliced[0].rounds, sliced[1].rounds);
  // Slicing is self-similar: re-slicing from 0 is the identity.
  EXPECT_TRUE(sliced.slice(0) == sliced);
}

// --- 7. Broadcast is ascending per-port sends -------------------------------

namespace bcast {

/// A hub-heavy preferential-attachment part, a star and isolated vertices:
/// every multiple of 7 loses its edges, and the last 20 vertices never had
/// any.
Graph mixed_graph(std::uint64_t seed) {
  const Graph ba = barabasi_albert(400, 3, seed);
  EdgeList edges;
  for (const auto& [u, v] : ba.edges()) {
    if (u % 7 != 0 && v % 7 != 0) edges.emplace_back(u, v);
  }
  for (V leaf = 401; leaf < 460; ++leaf) {
    if (leaf % 7 != 0) edges.emplace_back(400, leaf);
  }
  return Graph::from_edges(480, edges);
}

/// Every vertex broadcasts {id} in begin() and each round up to `at`; in
/// round `at` the vertices `who` selects run `act` instead.
class OneShot : public sim::VertexProgram {
 public:
  OneShot(int at, std::function<bool(const sim::Ctx&)> who,
          std::function<void(sim::Ctx&)> act)
      : at_(at), who_(std::move(who)), act_(std::move(act)) {}
  std::string name() const override { return "one-shot"; }
  void begin(sim::Ctx& ctx) override { speak(ctx); }
  void step(sim::Ctx& ctx, const sim::Inbox&) override {
    if (ctx.round() > at_) ctx.halt();
    else speak(ctx);
  }

 private:
  void speak(sim::Ctx& ctx) {
    if (ctx.round() == at_ && who_(ctx)) act_(ctx);
    else ctx.broadcast({ctx.id()});
  }
  int at_;
  std::function<bool(const sim::Ctx&)> who_;
  std::function<void(sim::Ctx&)> act_;
};

}  // namespace bcast

TEST(Broadcast, EqualsAscendingPerPortSendsAtAnyShardCount) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const Graph g = bcast::mixed_graph(seed);
    ASSERT_EQ(g.degree(7), 0);
    const auto n = static_cast<std::size_t>(g.num_vertices());
    for (const int shards : {1, 2, 8}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shards=" + std::to_string(shards));
      sim::Runtime bcast_rt(g, shards);
      sim::Runtime ports_rt(g, shards);
      bcast_rt.set_congest_words(3);
      ports_rt.set_congest_words(3);
      // Dense phases and a sparse one (most scanned cells stale); later
      // phases run on warm arenas and advanced epoch stamps.
      for (const auto& [rounds, sparse] :
           {std::pair{6, false}, std::pair{40, true}, std::pair{4, false}}) {
        SCOPED_TRACE("rounds=" + std::to_string(rounds));
        Chatter::Transcripts bcast_heard(n), ports_heard(n);
        Chatter bcast_prog(/*per_port=*/false, rounds, bcast_heard, sparse);
        Chatter ports_prog(/*per_port=*/true, rounds, ports_heard, sparse);
        const sim::RunStats a = bcast_rt.run_phase(bcast_prog, 64);
        const sim::RunStats b = ports_rt.run_phase(ports_prog, 64);
        EXPECT_GT(a.messages, 0u);
        EXPECT_EQ(a.max_msg_words, 3u);
        EXPECT_TRUE(same_stats(a, b));
        EXPECT_TRUE(bcast_heard == ports_heard)
            << "delivered inbox contents differ";
      }
      EXPECT_TRUE(bcast_rt.log() == ports_rt.log());
    }
  }
}

TEST(Broadcast, IsolatedVertexSendsNothingEvenOverTheCap) {
  const Graph g = bcast::mixed_graph(3);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    rt.set_congest_words(3);
    bcast::OneShot prog(
        /*at=*/1, [](const sim::Ctx& ctx) { return ctx.degree() == 0; },
        [](sim::Ctx& ctx) { ctx.broadcast({1, 2, 3, 4, 5}); });
    const sim::RunStats& stats = rt.run_phase(prog, 8);
    EXPECT_EQ(stats.max_msg_words, 1u);
    EXPECT_EQ(stats.words, stats.messages);
  }
}

TEST(Broadcast, OverCapBroadcastNamesPortZeroAndItsRound) {
  const Graph g = bcast::mixed_graph(3);
  constexpr V kHub = 400;
  ASSERT_GT(g.degree(kHub), 2);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    rt.set_congest_words(3);
    bcast::OneShot prog(
        /*at=*/2, [](const sim::Ctx& ctx) { return ctx.vertex() == kHub; },
        [](sim::Ctx& ctx) { ctx.broadcast({1, 2, 3, 4}); });
    try {
      rt.run_phase(prog, 8);
      FAIL() << "expected bandwidth_error";
    } catch (const sim::bandwidth_error& e) {
      EXPECT_EQ(e.vertex, kHub);
      EXPECT_EQ(e.port, 0);
      EXPECT_EQ(e.round, 2);
      EXPECT_EQ(e.words, 4);
      EXPECT_EQ(e.cap, 3);
      EXPECT_FALSE(e.from_contract);
    }
  }
}

TEST(Broadcast, AfterASendOnOnePortViolatesOneMessagePerEdge) {
  const Graph g = bcast::mixed_graph(3);
  constexpr V kHub = 400;
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    bcast::OneShot prog(
        /*at=*/1, [](const sim::Ctx& ctx) { return ctx.vertex() == kHub; },
        [](sim::Ctx& ctx) {
          ctx.send(1, {ctx.id()});
          ctx.broadcast({ctx.id()});
        });
    try {
      rt.run_phase(prog, 8);
      FAIL() << "expected invariant_error";
    } catch (const sim::bandwidth_error& e) {
      FAIL() << "a 1-word payload cannot exceed a cap: " << e.what();
    } catch (const invariant_error& e) {
      EXPECT_NE(std::string(e.what()).find("one message per edge-direction"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace dvc
