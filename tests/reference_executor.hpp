// Tests-only reference executor: the oracle every bit-identity suite takes
// its baseline from.
//
// It plugs into sim::Runtime through the PhaseExecutor seam (the one the
// distributed transport uses) on a 1-shard inline session, so the
// session's counters, round loop, bandwidth caps and PhaseLog run
// unchanged while the sweep and the delivery are its own, written to be
// plainly correct rather than fast:
//   * every sweep calls begin()/step() for every non-halted vertex in
//     ascending order;
//   * after every sweep, a full scan of every slot copies each fresh
//     message -- in the slot's own per-edge cell, or else in its sender's
//     broadcast cell -- into an ordered std::map<slot, payload>;
//   * the next step sweep builds each inbox from that map (ascending slot
//     == ascending port).
// It shares neither the executor's live lists nor its step sweep, so a
// delivery bug in the production executor cannot cancel out against the
// baseline.
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <vector>

#include "common/check.hpp"
#include "core/api.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc::sim {

/// The reference executor's window into the session (befriended by
/// Runtime, Ctx and Inbox; see runtime.hpp).
struct ReferenceAccess {
  static Ctx ctx(Runtime& rt, V v) { return Ctx(rt, /*shard=*/0, v); }
  static std::vector<MsgView>& msgs(Inbox& inbox) { return inbox.msgs_; }
  static bool halted(const Runtime& rt, V v) {
    return rt.halted_[static_cast<std::size_t>(v)] != 0;
  }
  static void count_work(Runtime& rt, std::uint64_t items) {
    rt.shards_[0].work_items += items;
  }
  /// Parks a sweep error where the in-process pool does: merge_shards
  /// rethrows it after folding (and resetting) the shard counters.
  static void park_error(Runtime& rt, std::exception_ptr error) {
    rt.shards_[0].error = std::move(error);
  }
  /// The PRODUCTION sweep of one shard (live list, sleep check, port scan)
  /// over `program` -- for test executors that wrap a library program to
  /// count its activations. Not used by the reference executor below.
  static void production_sweep(Runtime& rt, int shard, VertexProgram& program,
                               bool is_begin) {
    rt.run_shard_phase(shard, program, is_begin);
  }
  /// Copies every message the sweep that just ran sent (stamped with the
  /// current session round) out of the out arena into `sent`: slot s holds
  /// one if its own per-edge cell carries the stamp, or else if the
  /// broadcast cell of its sender, slot_target(s), does.
  static void collect_sent(
      const Runtime& rt,
      std::map<std::int64_t, std::vector<std::int64_t>>& sent) {
    const Runtime::Arena& out = rt.arenas_[1 - rt.in_idx_];
    const std::int32_t stamp = rt.stamp_base_ + rt.round_;
    const std::vector<std::int64_t>& words = out.words[0];
    for (std::int64_t s = 0; s < rt.slots_; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const Runtime::Cell& cell =
          out.cell[static_cast<std::size_t>(rt.graph().slot_target(s))];
      std::uint32_t off = 0, len = 0;
      if (out.epoch[si] == stamp) {
        off = out.off[si];
        len = out.len[si];
      } else if (cell.stamp == stamp) {
        off = cell.off;
        len = cell.len;
      } else {
        continue;
      }
      sent[s].assign(words.begin() + off, words.begin() + off + len);
    }
  }
};

}  // namespace dvc::sim

namespace dvc_test {

class ReferenceExecutor : public dvc::sim::PhaseExecutor {
 public:
  bool begin_phase(dvc::sim::Runtime& rt,
                   dvc::sim::VertexProgram& program) override {
    DVC_REQUIRE(rt.shards() == 1,
                "the reference executor runs on a 1-shard session");
    program_ = &program;
    sent_.clear();
    return true;
  }

  void run_sweep(dvc::sim::Runtime& rt, bool is_begin) override {
    using Access = dvc::sim::ReferenceAccess;
    // This sweep's inboxes carry what the previous sweep sent.
    std::map<std::int64_t, std::vector<std::int64_t>> delivered;
    delivered.swap(sent_);
    const dvc::Graph& g = rt.graph();
    try {
      for (dvc::V v = 0; v < g.num_vertices(); ++v) {
        if (Access::halted(rt, v)) continue;
        dvc::sim::Ctx ctx = Access::ctx(rt, v);
        if (is_begin) {
          Access::count_work(rt, 1);
          program_->begin(ctx);
          continue;
        }
        dvc::sim::Inbox inbox;
        const std::int64_t base = g.slot(v, 0);
        for (auto it = delivered.lower_bound(base);
             it != delivered.end() && it->first < base + g.degree(v); ++it) {
          Access::msgs(inbox).push_back(dvc::sim::MsgView{
              static_cast<int>(it->first - base), it->second});
        }
        Access::count_work(rt, 1 + inbox.size());
        program_->step(ctx, inbox);
      }
    } catch (...) {
      Access::park_error(rt, std::current_exception());
    }
    Access::collect_sent(rt, sent_);
  }

  void end_phase(dvc::sim::Runtime&, dvc::sim::VertexProgram&,
                 bool) override {}

 private:
  dvc::sim::VertexProgram* program_ = nullptr;
  std::map<std::int64_t, std::vector<std::int64_t>> sent_;
};

/// A 1-shard inline session whose every phase runs on the reference
/// executor; pass runtime() wherever a session is taken.
class ReferenceSession {
 public:
  explicit ReferenceSession(const dvc::Graph& g)
      : rt_(g, /*shards=*/1, /*inline_shards=*/true) {
    rt_.set_phase_executor(&exec_);
  }
  dvc::sim::Runtime& runtime() { return rt_; }

 private:
  ReferenceExecutor exec_;  // outlives rt_, which borrows it
  dvc::sim::Runtime rt_;
};

/// Reference result of one preset pipeline: the baseline the identity
/// suites compare every optimized path against.
inline dvc::LegalColoringResult reference_coloring(
    const dvc::Graph& g, int arboricity_bound, dvc::Preset preset,
    const dvc::Knobs& knobs = dvc::Knobs{}) {
  ReferenceSession ref(g);
  return dvc::color_graph(ref.runtime(), arboricity_bound, preset, knobs);
}

}  // namespace dvc_test
