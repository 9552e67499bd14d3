// Multi-process distribution: runs the simulator's round loop across OS
// processes (see DESIGN.md, "Distributed transport").
//
// A DistSession installs a PhaseExecutor on an inline-shards sim::Runtime.
// Every subsequent run_phase whose program opts in (VertexProgram::
// dist_capable) is executed by worker processes -- each owning a contiguous
// slice of the session's shard partition -- coordinated over a framed wire
// protocol (common/wire.hpp + dist/transport.hpp). The coordinator's own
// merge/stats/PhaseLog machinery runs unchanged on counters the workers
// report, so colors, RunStats and the PhaseLog are bit-identical to an
// in-process run at every shard and worker count; what changes is only
// WHERE sweeps execute and the session's wire metrics, reported separately
// (PhaseWireMetrics) precisely so the PhaseLog stays comparable.
//
// Backends:
//   * kFork     -- real OS processes: a socketpair per worker, fork() per
//                  phase (children inherit the canonical phase-start state
//                  copy-on-write, sweep their shards, and ship per-vertex
//                  program state back at the phase boundary).
//   * kLoopback -- the same worker logic and the same encoded frames, but
//                  in-process over in-memory queues: the measured wire
//                  traffic is byte-identical to fork, which makes loopback
//                  both the fast default and the oracle the fork backend is
//                  tested against.
//
// Worker death (kill -9, crash, channel loss) raises worker_lost_error, a
// dvc::transient_error: the service layer classifies it transient and heals
// the job through its retry + checkpoint-resume path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/runtime.hpp"

namespace dvc::dist {

enum class Backend : std::uint8_t {
  kLoopback = 0,
  kFork = 1,
};

inline const char* backend_name(Backend b) {
  return b == Backend::kFork ? "fork" : "loopback";
}

/// Configuration of one DistSession. The fault knobs are sweep-counter
/// based -- "the k-th distributed sweep this session executes" -- rather
/// than (phase, round) based, so a test's scheduled kill can never silently
/// miss because some phase declined distribution.
struct DistConfig {
  int workers = 2;
  Backend backend = Backend::kFork;
  /// Kill `kill_worker` at the start of distributed sweep #kill_at_sweep
  /// (0-based, cumulative across phases; -1 = never). Fork: SIGKILL the
  /// worker process mid-round. Loopback: the worker's channel goes dead.
  int kill_at_sweep = -1;
  int kill_worker = 0;
  /// Flip one payload byte of `corrupt_worker`'s stats frame on distributed
  /// sweep #corrupt_at_sweep (-1 = never): the coordinator's frame checksum
  /// validation must raise corruption_error.
  int corrupt_at_sweep = -1;
  int corrupt_worker = 0;
  /// Rewrites the payload of every kMsgs frame the coordinator relays,
  /// which then re-frames it with a valid checksum (empty = never): a
  /// worker whose encoder wrote a malformed entry, which only the
  /// destination's decoder can reject.
  std::function<void(std::vector<std::uint8_t>& payload)> tamper_msgs;
};

/// Measured wire accounting for one phase run under a DistSession,
/// alongside what the simulation itself declared. `wire_bytes` counts every
/// frame byte the coordinator sent or received (loopback and fork encode
/// identical frames); declared_words/declared_messages are the phase's
/// RunStats totals -- the CONGEST-model cost the paper reasons about. The
/// ratio of measured bytes to declared words is the transport's framing
/// overhead, reported by bench_dist.
struct PhaseWireMetrics {
  std::string label;
  int phase = -1;
  bool distributed = false;  ///< false: program declined, phase ran locally
  int workers = 0;
  int rounds = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  /// The part of wire_bytes in kMsgs frames (cross-worker messages), each
  /// counted on both of its hops: worker to coordinator, and the relay.
  std::uint64_t msgs_bytes = 0;
  std::uint64_t round_trips = 0;  ///< sweep fan-out/fan-in cycles + finish
  std::uint64_t declared_words = 0;
  std::uint64_t declared_messages = 0;
};

class DistExecutor;

/// RAII installation of the distributed executor on a session. The session
/// must have been built with inline shards
/// (sim::Runtime(g, shards, /*inline_shards=*/true)); set_phase_executor
/// enforces this. Uninstalls on destruction.
class DistSession {
 public:
  DistSession(sim::Runtime& rt, DistConfig cfg);
  ~DistSession();
  DistSession(const DistSession&) = delete;
  DistSession& operator=(const DistSession&) = delete;

  /// Per-phase wire accounting, one entry per run_phase since installation
  /// (declined phases included, flagged distributed = false).
  const std::vector<PhaseWireMetrics>& metrics() const;
  /// Sum over metrics() of the distributed phases' counters.
  PhaseWireMetrics totals() const;
  /// Number of workers a distributed phase uses on this session (config
  /// clamped to the session's shard count).
  int effective_workers() const;

 private:
  sim::Runtime* rt_;
  std::unique_ptr<DistExecutor> exec_;
};

}  // namespace dvc::dist
