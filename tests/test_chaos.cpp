// Chaos suite: deterministic fault injection, phase-boundary checkpoint/
// resume, and the service's self-healing retry path. The contract under
// test is REPRODUCIBILITY OF FAILURE: the same FaultPlan raises the same
// structured error at the same (phase, round, shard) on every run and at
// every shard count; a session that survived a fault keeps serving
// bit-identical results; a checkpoint taken at any phase boundary resumes
// to a bit-identical run; and a job the service healed through a retry is
// bitwise-equal to a fault-free solo run.
//
// This file is the `chaos` ctest label and runs in BOTH the ASan+UBSan and
// ThreadSanitizer CI legs (see .github/workflows/ci.yml): injected faults
// unwind across the shard pool, which is exactly where a concurrency bug
// would hide.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/wire.hpp"
#include "core/api.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "reference_executor.hpp"
#include "service/service.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "test_helpers.hpp"

namespace dvc {
namespace {

using dvc_test::FloodAll;
using service::ColoringService;
using service::GraphRef;
using service::JobResult;
using service::JobSpec;
using service::JobStatus;
using service::JobTicket;
using service::ServiceConfig;

/// A program that never halts and never speaks: the canonical runaway the
/// progress watchdog exists to convert into a prompt structural failure.
class Silent : public sim::VertexProgram {
 public:
  std::string name() const override { return "silent"; }
  void step(sim::Ctx&, const sim::Inbox&) override {}
};

void expect_identical(const LegalColoringResult& a, const LegalColoringResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.colors, b.colors) << what;
  EXPECT_EQ(a.distinct, b.distinct) << what;
  EXPECT_TRUE(a.total == b.total) << what;
  EXPECT_TRUE(a.phases == b.phases) << what;
}

// ---------------------------------------------------------------------------
// Fault injection: structured, deterministic, shard-count-invariant

TEST(Fault, ScheduledShardFailureIsStructuredAndDeterministic) {
  const Graph g = cycle_graph(96);
  sim::FaultPlan plan;
  plan.seed = 7;
  plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/2, /*shard=*/0,
       /*salt=*/-1});

  std::string first_what;
  for (int run = 0; run < 2; ++run) {
    sim::Runtime rt(g, 2);
    rt.set_fault_plan(plan);
    FloodAll flood(6);
    try {
      rt.run_phase(flood, 32);
      FAIL() << "scheduled shard failure did not fire (run " << run << ")";
    } catch (const sim::fault_error& e) {
      EXPECT_EQ(e.kind, sim::FaultKind::kShardFailure);
      EXPECT_EQ(e.phase, 0);
      EXPECT_EQ(e.round, 2);
      EXPECT_EQ(e.shard, 0);
      EXPECT_EQ(e.phase_label, "flood");
      EXPECT_NE(std::string(e.what()).find("phase 'flood'"), std::string::npos);
      if (run == 0) first_what = e.what();
      else EXPECT_EQ(first_what, e.what()) << "fault text must reproduce";
    }
    EXPECT_EQ(rt.faults_injected(), 1u);
    EXPECT_EQ(rt.last_phase(), "flood") << "failing phase must be reported";
  }
}

TEST(Fault, SessionStaysSoundAndBitIdenticalAfterInjectedFault) {
  const Graph g = planted_arboricity(160, 3, 11);
  sim::RunStats clean;
  {
    sim::Runtime rt(g, 2);
    FloodAll flood(5);
    clean = rt.run_phase(flood, 32);
  }
  sim::Runtime rt(g, 2);
  sim::FaultPlan plan;
  plan.seed = 3;
  plan.shard_failure_rate = 1.0;  // fails immediately, on every run
  rt.set_fault_plan(plan);
  FloodAll flood(5);
  EXPECT_THROW(rt.run_phase(flood, 32), sim::fault_error);

  // Clear the plan, restart the phase counter: the survivor must now be
  // indistinguishable from a fresh session (the pool-reuse contract).
  rt.set_fault_plan(sim::FaultPlan{});
  rt.reset_log();
  EXPECT_EQ(rt.phases_run(), 0) << "reset_log must restart the phase index";
  FloodAll flood2(5);
  const sim::RunStats after = rt.run_phase(flood2, 32);
  EXPECT_TRUE(clean == after) << "post-fault session diverged from fresh";
}

TEST(Fault, DropAndCorruptionDetectedIdenticallyAtAnyShardCount) {
  const Graph g = cycle_graph(128);
  for (const sim::FaultKind kind :
       {sim::FaultKind::kMessageDrop, sim::FaultKind::kMessageCorrupt}) {
    std::string first_what;
    int first_round = -1;
    std::uint64_t first_expected = 0, first_observed = 0;
    for (const int shards : {1, 2, 8}) {
      SCOPED_TRACE(std::string(sim::fault_kind_name(kind)) + " shards=" +
                   std::to_string(shards));
      sim::Runtime rt(g, shards);
      sim::FaultPlan plan;
      plan.seed = 17;
      plan.scheduled.push_back({kind, /*phase=*/0, /*round=*/1, /*shard=*/-1,
                                /*salt=*/-1});
      rt.set_fault_plan(plan);
      FloodAll flood(6);
      try {
        rt.run_phase(flood, 32);
        FAIL() << "checksum lane missed the injected fault";
      } catch (const sim::corruption_error& e) {
        EXPECT_EQ(e.phase, 0);
        EXPECT_EQ(e.phase_label, "flood");
        const char* marker = kind == sim::FaultKind::kMessageDrop
                                 ? "dropped" : "corrupted";
        EXPECT_NE(std::string(e.what()).find(marker), std::string::npos)
            << e.what();
        if (first_round < 0) {
          first_what = e.what();
          first_round = e.round;
          first_expected = e.expected_messages;
          first_observed = e.observed_messages;
        } else {
          // Message-level faults pick victims by canonical slot id: the
          // detection point and counters must not depend on the shard count.
          EXPECT_EQ(first_what, e.what());
          EXPECT_EQ(first_round, e.round);
          EXPECT_EQ(first_expected, e.expected_messages);
          EXPECT_EQ(first_observed, e.observed_messages);
        }
      }
    }
  }
}

/// Number of delivered messages whose payload differs between two Chatter
/// transcripts of the same schedule (the framing -- round, port, width --
/// must agree entry for entry).
std::size_t differing_messages(const dvc_test::Chatter::Transcripts& a,
                               const dvc_test::Chatter::Transcripts& b) {
  std::size_t differ = 0;
  for (std::size_t v = 0; v < a.size(); ++v) {
    const auto& x = a[v];
    const auto& y = b[v];
    EXPECT_EQ(x.size(), y.size()) << "vertex " << v;
    if (x.size() != y.size()) return a.size();
    for (std::size_t i = 0; i < x.size();) {
      EXPECT_EQ(x[i], y[i]);          // round
      EXPECT_EQ(x[i + 1], y[i + 1]);  // port
      EXPECT_EQ(x[i + 2], y[i + 2]);  // width
      const auto width = static_cast<std::size_t>(x[i + 2]);
      if (!std::equal(x.begin() + static_cast<std::ptrdiff_t>(i + 3),
                      x.begin() + static_cast<std::ptrdiff_t>(i + 3 + width),
                      y.begin() + static_cast<std::ptrdiff_t>(i + 3))) {
        ++differ;
      }
      i += 3 + width;
    }
  }
  return differ;
}

TEST(Fault, CorruptingABroadcastDamagesOneMessageNotItsSiblings) {
  // A broadcast's mirror slots share one payload copy. The injector must
  // copy the victim's words before it flips a bit: with the checksum lane
  // off, the corruption is delivered, and it must reach exactly one inbox
  // -- not all four neighbours of the victim's sender.
  const Graph g = torus_graph(16, 16);
  const auto n = static_cast<std::size_t>(g.num_vertices());
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    dvc_test::Chatter::Transcripts clean(n), faulty(n);
    sim::RunStats clean_stats;
    {
      sim::Runtime rt(g, shards);
      dvc_test::Chatter prog(/*per_port=*/false, 6, clean);
      clean_stats = rt.run_phase(prog, 16);
    }
    sim::Runtime rt(g, shards);
    sim::FaultPlan plan;
    plan.seed = 29;
    plan.checksum = false;
    plan.scheduled.push_back({sim::FaultKind::kMessageCorrupt, /*phase=*/0,
                              /*round=*/2, /*shard=*/-1, /*salt=*/-1});
    rt.set_fault_plan(plan);
    dvc_test::Chatter prog(/*per_port=*/false, 6, faulty);
    const sim::RunStats faulty_stats = rt.run_phase(prog, 16);
    EXPECT_EQ(rt.faults_injected(), 1u);
    EXPECT_TRUE(clean_stats == faulty_stats);
    EXPECT_EQ(differing_messages(clean, faulty), 1u);
  }
}

TEST(Fault, ChecksumLaneIsObservationOnly) {
  // An armed plan whose faults can never fire (a stall scheduled at an
  // unreachable phase) still runs the XOR checksum lane; the lane must be
  // pure observation -- bit-identical stats to an unarmed run.
  const Graph g = planted_arboricity(160, 3, 19);
  sim::RunStats plain;
  {
    sim::Runtime rt(g, 2);
    FloodAll flood(6);
    plain = rt.run_phase(flood, 32);
  }
  sim::Runtime rt(g, 2);
  sim::FaultPlan plan;
  plan.seed = 23;
  plan.checksum = true;
  plan.scheduled.push_back(
      {sim::FaultKind::kStall, /*phase=*/99, /*round=*/0, /*shard=*/-1,
       /*salt=*/-1});
  ASSERT_TRUE(plan.armed());
  rt.set_fault_plan(plan);
  FloodAll flood(6);
  const sim::RunStats lane = rt.run_phase(flood, 32);
  EXPECT_TRUE(plain == lane) << "checksum lane perturbed the run";
  EXPECT_EQ(rt.faults_injected(), 0u);
}

TEST(Fault, ScheduledAllocFailureRaisesStandardBadAlloc) {
  // Injected allocation failure shares the recovery path with genuine
  // exhaustion: it must surface as the STANDARD std::bad_alloc.
  const Graph g = cycle_graph(64);
  sim::Runtime rt(g, 2);
  sim::FaultPlan plan;
  plan.seed = 29;
  plan.scheduled.push_back(
      {sim::FaultKind::kAllocFailure, /*phase=*/0, /*round=*/0, /*shard=*/0,
       /*salt=*/-1});
  rt.set_fault_plan(plan);
  FloodAll flood(4);
  EXPECT_THROW(rt.run_phase(flood, 32), std::bad_alloc);
  EXPECT_EQ(rt.faults_injected(), 1u);
}

TEST(Fault, StallsAreOutputInvisible) {
  const Graph g = planted_arboricity(160, 3, 31);
  sim::RunStats plain;
  {
    sim::Runtime rt(g, 2);
    FloodAll flood(5);
    plain = rt.run_phase(flood, 32);
  }
  sim::Runtime rt(g, 2);
  sim::FaultPlan plan;
  plan.seed = 37;
  plan.stall_rate = 1.0;
  plan.stall_us = 1;
  rt.set_fault_plan(plan);
  FloodAll flood(5);
  const sim::RunStats stalled = rt.run_phase(flood, 32);
  EXPECT_TRUE(plain == stalled) << "a stall changed the output";
  EXPECT_GT(rt.faults_injected(), 0u);
}

TEST(Fault, SaltSeparatesRetryAttempts) {
  // A fault scheduled for attempt 0 (salt = 0) must leave attempt 1
  // (salt = 1) untouched -- the mechanism the service's retries lean on.
  const Graph g = cycle_graph(96);
  sim::FaultPlan plan;
  plan.seed = 41;
  plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/1, /*shard=*/-1,
       /*salt=*/0});

  sim::RunStats clean;
  {
    sim::Runtime rt(g, 2);
    FloodAll flood(5);
    clean = rt.run_phase(flood, 32);
  }
  {
    sim::Runtime rt(g, 2);
    plan.salt = 0;
    rt.set_fault_plan(plan);
    FloodAll flood(5);
    EXPECT_THROW(rt.run_phase(flood, 32), sim::fault_error);
  }
  {
    sim::Runtime rt(g, 2);
    plan.salt = 1;
    rt.set_fault_plan(plan);
    FloodAll flood(5);
    const sim::RunStats retry = rt.run_phase(flood, 32);
    EXPECT_TRUE(clean == retry) << "salted retry diverged from clean run";
    EXPECT_EQ(rt.faults_injected(), 0u);
  }
}

TEST(Fault, DirectCallerPlanInstallsForTheCall) {
  // The direct-call path: the caller installs the plan on the session it
  // owns with ScopedFaultPlan. An output-invisible plan (stalls only) must
  // color bit-identically, and the guard must restore the clean plan.
  const Graph g = planted_arboricity(200, 3, 43);
  Knobs knobs;
  knobs.shards = 1;
  const LegalColoringResult plain =
      color_graph(g, 3, Preset::NearLinearColors, knobs);

  sim::FaultPlan plan;
  plan.seed = 47;
  plan.stall_rate = 0.05;
  plan.stall_us = 1;
  sim::Runtime rt(g, 1);
  {
    const sim::ScopedFaultPlan guard(rt, plan);
    EXPECT_TRUE(rt.fault_plan().armed());
    const LegalColoringResult stalled =
        color_graph(rt, 3, Preset::NearLinearColors, knobs);
    expect_identical(plain, stalled, "stall-only plan on a caller session");
    EXPECT_GT(rt.faults_injected(), 0u) << "the plan never fired";
  }
  EXPECT_FALSE(rt.fault_plan().armed()) << "the guard must restore the plan";
}

// ---------------------------------------------------------------------------
// Watchdog: runaway programs fail structurally, not transiently

TEST(Watchdog, SilentProgramTripsPromptStructuralFailure) {
  const Graph g = cycle_graph(64);
  sim::Runtime rt(g, 2);
  rt.set_watchdog_idle_rounds(8);
  Silent silent;
  try {
    rt.run_phase(silent, 100000);  // would burn 100k rounds without the dog
    FAIL() << "watchdog did not trip";
  } catch (const sim::watchdog_error& e) {
    EXPECT_EQ(e.idle_rounds, 8);
    EXPECT_EQ(e.phase, 0);
    EXPECT_EQ(e.phase_label, "silent");
    EXPECT_NE(std::string(e.what()).find("in phase 'silent'"),
              std::string::npos);
  }

  // Structural classification: invariant_error (never retried), NOT a
  // transient_error -- re-running a silent program would idle identically.
  rt.reset_log();
  Silent again;
  try {
    rt.run_phase(again, 100000);
    FAIL() << "watchdog did not trip on the second run";
  } catch (const transient_error&) {
    FAIL() << "watchdog_error must not be transient";
  } catch (const invariant_error&) {
    // expected
  }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

TEST(Checkpoint, ResumeAtEveryPhaseBoundaryIsBitIdentical) {
  const Graph g = planted_arboricity(240, 3, 5);
  constexpr int kBound = 3;
  constexpr Preset kPreset = Preset::NearLinearColors;

  // Baseline, on the reference executor: count the pipeline's phase
  // boundaries (the interrupt hook is polled exactly once at the top of
  // every run_phase) and keep the result.
  dvc_test::ReferenceSession base(g);
  int polls = 0;
  base.runtime().set_interrupt([&polls] { ++polls; });
  const LegalColoringResult baseline =
      color_graph(base.runtime(), kBound, kPreset);
  ASSERT_GT(polls, 2) << "pipeline too short to exercise boundaries";

  struct Abort {};
  const int total = polls;
  for (int k = 0; k < total; ++k) {
    SCOPED_TRACE("boundary " + std::to_string(k) + " of " +
                 std::to_string(total));
    // Kill the run at the k-th boundary, checkpointing on the way out.
    std::vector<std::uint8_t> ckpt;
    sim::Runtime victim(g, 2);
    int seen = 0;
    victim.set_interrupt([&] {
      if (seen++ == k) {
        ckpt = victim.checkpoint();
        throw Abort{};
      }
    });
    try {
      color_graph(victim, kBound, kPreset);
      FAIL() << "interrupt hook never fired";
    } catch (const Abort&) {
    }
    ASSERT_FALSE(ckpt.empty());

    // Resume into a FRESH session and re-run the pipeline from the top:
    // the replay machinery verifies the first k phases against the
    // checkpoint, and the final result must equal the uninterrupted run.
    sim::Runtime resumed(g, 2);
    resumed.resume(ckpt);
    const LegalColoringResult after = color_graph(resumed, kBound, kPreset);
    expect_identical(baseline, after, "resume at boundary " + std::to_string(k));
  }
}

TEST(Checkpoint, ResumeCrossesShardCounts) {
  // The checkpoint stores shard-agnostic boundary state, so a run killed at
  // one shard count can resume at another -- and still lands bit-identical
  // (the shard-count bit-identity contract composes with resume).
  const Graph g = planted_arboricity(240, 3, 5);
  constexpr int kBound = 3;
  constexpr Preset kPreset = Preset::NearLinearColors;

  sim::Runtime base(g, 8);
  const LegalColoringResult baseline = color_graph(base, kBound, kPreset);

  struct Abort {};
  std::vector<std::uint8_t> ckpt;
  sim::Runtime victim(g, 2);
  int seen = 0;
  victim.set_interrupt([&] {
    if (seen++ == 3) {
      ckpt = victim.checkpoint();
      throw Abort{};
    }
  });
  try {
    color_graph(victim, kBound, kPreset);
    FAIL() << "interrupt hook never fired";
  } catch (const Abort&) {
  }

  sim::Runtime resumed(g, 8);
  resumed.resume(ckpt);
  const LegalColoringResult after = color_graph(resumed, kBound, kPreset);
  expect_identical(baseline, after, "checkpoint at shards=2, resume at 8");
}

// Checkpoint layout: magic u64 | version u32 | digest u64 | n i64 | slots
// i64 | congest_words i32 | stamp base i32 | ... | checksum u64.
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kCongestOffset = 36;
constexpr std::size_t kStampBaseOffset = 40;

/// `ckpt` with the i32 at `offset` set to `value` and the content checksum
/// recomputed, so only the resume path's own checks can reject it.
std::vector<std::uint8_t> reseal_i32(const std::vector<std::uint8_t>& ckpt,
                                     std::size_t offset, std::int32_t value) {
  std::vector<std::uint8_t> buf(ckpt.begin(), ckpt.end() - 8);
  for (int i = 0; i < 4; ++i) {
    buf[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(static_cast<std::uint32_t>(value) >> (8 * i));
  }
  constexpr std::uint64_t kCheckpointMagic = 0x647663434b505431ULL;
  const std::uint64_t sum = wire::checksum64(kCheckpointMagic, buf);
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<std::uint8_t>(sum >> (8 * i)));
  }
  return buf;
}

TEST(Checkpoint, ResumeRejectsForeignCorruptAndDivergentBuffers) {
  const Graph g = planted_arboricity(200, 3, 53);
  sim::Runtime rt(g, 2);
  FloodAll flood(4);
  rt.run_phase(flood, 32);
  const std::vector<std::uint8_t> ckpt = rt.checkpoint();

  {  // Wrong graph: digest-checked before anything is restored.
    const Graph other = planted_arboricity(200, 3, 54);
    sim::Runtime wrong(other, 2);
    EXPECT_THROW(wrong.resume(ckpt), precondition_error);
  }
  {  // Not a checkpoint at all.
    const std::vector<std::uint8_t> junk = {1, 2, 3, 4};
    sim::Runtime fresh(g, 2);
    EXPECT_THROW(fresh.resume(junk), precondition_error);
  }
  {  // A single flipped byte must fail the content checksum.
    std::vector<std::uint8_t> bad = ckpt;
    bad[bad.size() / 2] ^= 0x40;
    sim::Runtime fresh(g, 2);
    EXPECT_THROW(fresh.resume(bad), sim::corruption_error);
  }
  // Re-sealed buffers: a valid content checksum over a field the resume
  // path must reject on its own.
  const auto reseal = [&](std::size_t offset, std::int32_t value) {
    return reseal_i32(ckpt, offset, value);
  };
  {  // The re-sealing itself is sound: an unchanged budget resumes.
    sim::Runtime fresh(g, 2);
    EXPECT_NO_THROW(fresh.resume(reseal(kCongestOffset, 0)));
  }
  {  // A checkpoint from the version-1 format (which carried a scheduler
    // field) must be refused, not misread.
    sim::Runtime fresh(g, 2);
    EXPECT_THROW(fresh.resume(reseal(kVersionOffset, 1)), precondition_error);
  }
  {  // A negative CONGEST budget is not a state checkpoint() can produce.
    sim::Runtime fresh(g, 2);
    EXPECT_THROW(fresh.resume(reseal(kCongestOffset, -1)), precondition_error);
  }
  {  // A divergent replay (different phase than the checkpointed run) must
    // be caught at the first re-recorded phase.
    sim::Runtime fresh(g, 2);
    fresh.resume(ckpt);
    FloodAll other(4);
    try {
      fresh.run_phase(other, 32, "not-flood");
      FAIL() << "divergent replay was not detected";
    } catch (const invariant_error& e) {
      EXPECT_NE(std::string(e.what()).find("checkpoint replay diverged"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, StampWrapResetsEveryCellBeforeStampsRestart) {
  // A first run leaves every arena cell with a low stamp. A resumed
  // checkpoint whose stamp base sits just below INT32_MAX lifts the base
  // (it is taken as the max), so the next phase wraps it back to 0 -- and
  // the second run's low stamps meet the first run's cells again. The wrap
  // must reset them all (per-edge epochs, mail stamps, broadcast cells and
  // unicast stamps), or a stale cell reads as fresh mail.
  const Graph g = planted_arboricity(1 << 9, 4, 61);
  const LegalColoringResult want =
      dvc_test::reference_coloring(g, 4, Preset::PolylogTime);
  for (const int shards : {1, 2, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    sim::Runtime rt(g, shards);
    const LegalColoringResult first = color_graph(rt, 4, Preset::PolylogTime);
    EXPECT_EQ(first.colors, want.colors);
    rt.reset_log();
    rt.resume(reseal_i32(rt.checkpoint(), kStampBaseOffset,
                         std::numeric_limits<std::int32_t>::max() - 60));
    const LegalColoringResult again = color_graph(rt, 4, Preset::PolylogTime);
    EXPECT_EQ(again.colors, want.colors);
    EXPECT_TRUE(again.total == want.total);
    EXPECT_TRUE(again.phases == want.phases)
        << "phase log differs from the reference";
  }
}

// ---------------------------------------------------------------------------
// Service self-healing

TEST(ServiceChaos, RetryHealsTransientFaultBitIdentically) {
  const Graph g = planted_arboricity(400, 4, 9);
  Knobs solo_knobs;
  solo_knobs.shards = 1;
  const LegalColoringResult solo =
      color_graph(g, 4, Preset::NearLinearColors, solo_knobs);

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_base_ms = 0.0;  // no wait: unit test, not a schedule
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(g);

  JobSpec spec;
  spec.graph = ref;
  spec.arboricity_bound = 4;
  spec.preset = Preset::NearLinearColors;
  spec.fault_plan.seed = 42;
  spec.fault_plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/1, /*round=*/0, /*shard=*/-1,
       /*salt=*/0});  // kills attempt 0 only; the retry runs clean

  const JobResult res = svc.wait(svc.submit(spec));
  ASSERT_EQ(res.status, JobStatus::kOk) << res.error;
  EXPECT_EQ(res.attempts, 2);
  EXPECT_TRUE(res.recovered);
  expect_identical(solo, res.result, "healed job vs fault-free solo run");

  const auto m = svc.metrics();
  EXPECT_EQ(m.retries, 1u);
  EXPECT_EQ(m.recoveries, 1u);
  EXPECT_GE(m.faults_injected, 1u);
  EXPECT_EQ(m.quarantined, 0u);
}

TEST(ServiceChaos, ExhaustedRetriesFailWithStructuredContext) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 2;
  cfg.retry.backoff_base_ms = 0.0;
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 13));

  JobSpec spec;
  spec.graph = ref;
  spec.arboricity_bound = 3;
  spec.preset = Preset::LinearColors;
  spec.fault_plan.seed = 61;
  spec.fault_plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/0, /*shard=*/-1,
       /*salt=*/-1});  // fires on EVERY attempt

  const JobResult res = svc.wait(svc.submit(spec));
  EXPECT_EQ(res.status, JobStatus::kFailed);
  EXPECT_EQ(res.attempts, 2) << "both attempts must have been consumed";
  EXPECT_FALSE(res.recovered);
  EXPECT_NE(res.error.find("transient fault persisted"), std::string::npos)
      << res.error;
  EXPECT_FALSE(res.failed_phase.empty())
      << "the failing phase must be attributed";
  EXPECT_EQ(svc.metrics().retries, 1u);
  EXPECT_EQ(svc.metrics().recoveries, 0u);
}

TEST(ServiceChaos, QuarantineBreakerStopsBurningRetries) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 1;  // every transient failure is final...
  cfg.retry.quarantine_threshold = 2;  // ...and two in a row trip the breaker
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 67));

  JobSpec doomed;
  doomed.graph = ref;
  doomed.arboricity_bound = 3;
  doomed.preset = Preset::NearLinearColors;
  doomed.fault_plan.seed = 71;
  doomed.fault_plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/0, /*round=*/0, /*shard=*/-1,
       /*salt=*/-1});

  const JobResult first = svc.wait(svc.submit(doomed));
  EXPECT_EQ(first.status, JobStatus::kFailed) << first.error;

  const JobResult second = svc.wait(svc.submit(doomed));
  EXPECT_EQ(second.status, JobStatus::kQuarantined) << second.error;

  // The digest is now poisoned: jobs complete structurally WITHOUT a run.
  const JobResult third = svc.wait(svc.submit(doomed));
  EXPECT_EQ(third.status, JobStatus::kQuarantined) << third.error;
  EXPECT_EQ(third.attempts, 0) << "quarantined jobs must not consume runs";

  const auto m = svc.metrics();
  EXPECT_GE(m.quarantined, 2u);
  EXPECT_EQ(m.quarantined_digests, 1u);
}

TEST(ServiceChaos, CancelDuringFaultRetryBackoffIsTerminal) {
  // Race the cancellation token against a retry sitting in its backoff
  // window: whichever side wins, the ticket must land on a TERMINAL status
  // promptly -- never a hang, never a stuck queue entry.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_base_ms = 150.0;
  cfg.retry.backoff_cap_ms = 500.0;
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 73));

  JobSpec spec;
  spec.graph = ref;
  spec.arboricity_bound = 3;
  spec.preset = Preset::NearLinearColors;
  spec.fault_plan.seed = 79;
  spec.fault_plan.scheduled.push_back(
      {sim::FaultKind::kShardFailure, /*phase=*/1, /*round=*/0, /*shard=*/-1,
       /*salt=*/0});  // attempt 0 dies; the retry waits out ~150ms of backoff

  const JobTicket ticket = svc.submit(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  svc.cancel(ticket);
  const JobResult res = svc.wait(ticket);
  EXPECT_TRUE(res.status == JobStatus::kCancelled ||
              res.status == JobStatus::kOk)
      << "unexpected terminal status: " << service::job_status_name(res.status)
      << " (" << res.error << ")";
}

TEST(ServiceChaos, StructuralFailureReportsFailingPhase) {
  // A CONGEST-budget violation is structural: one attempt, no retries, and
  // the result names the phase that threw, with the "in phase '...'"
  // context baked into the error text.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.retry.max_attempts = 3;  // must NOT be consumed by a structural error
  cfg.retry.backoff_base_ms = 0.0;
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 83));

  JobSpec spec;
  spec.graph = ref;
  spec.arboricity_bound = 3;
  spec.preset = Preset::NearLinearColors;
  spec.knobs.congest_words = 1;  // paper path needs 3 words per message

  const JobResult res = svc.wait(svc.submit(spec));
  EXPECT_EQ(res.status, JobStatus::kFailed);
  EXPECT_EQ(res.attempts, 1) << "structural failures must not be retried";
  EXPECT_NE(res.error.find("in phase '"), std::string::npos) << res.error;
  EXPECT_FALSE(res.failed_phase.empty());
  EXPECT_EQ(svc.metrics().retries, 0u);
}

TEST(ServiceChaos, ArmedPlanBypassesResultCacheBothWays) {
  ServiceConfig cfg;
  cfg.workers = 1;
  ColoringService svc(cfg);
  const GraphRef ref = svc.intern(planted_arboricity(300, 3, 89));

  JobSpec clean;
  clean.graph = ref;
  clean.arboricity_bound = 3;
  clean.preset = Preset::NearLinearColors;

  const JobResult fresh = svc.wait(svc.submit(clean));
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_FALSE(fresh.cache_hit);

  // Same spec + an armed (but output-invisible) plan: must RUN, not hit.
  JobSpec chaotic = clean;
  chaotic.fault_plan.seed = 97;
  chaotic.fault_plan.stall_rate = 0.05;
  chaotic.fault_plan.stall_us = 1;
  const JobResult stormed = svc.wait(svc.submit(chaotic));
  ASSERT_TRUE(stormed.ok) << stormed.error;
  EXPECT_FALSE(stormed.cache_hit) << "armed plan must bypass the cache";
  expect_identical(fresh.result, stormed.result, "stall storm vs clean run");

  // And the faulted run must not have poisoned the cache for clean jobs.
  const JobResult cached = svc.wait(svc.submit(clean));
  ASSERT_TRUE(cached.ok) << cached.error;
  EXPECT_TRUE(cached.cache_hit);
  expect_identical(fresh.result, cached.result, "cache after storm");
}

}  // namespace
}  // namespace dvc
