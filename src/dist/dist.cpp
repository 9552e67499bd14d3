#include "dist/dist.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <utility>

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/wire.hpp"
#include "dist/transport.hpp"

namespace dvc::dist {

namespace {

/// Shard-slice bookkeeping of one worker: contiguous shard, slot and vertex
/// ranges (contiguous because shards are vertex-contiguous).
struct WorkerSlice {
  int shard_lo = 0, shard_hi = 0;
  std::int64_t slot_lo = 0, slot_hi = 0;
  V vtx_lo = 0, vtx_hi = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// RuntimeAccess: the transport's window into sim::Runtime (its sole friend).
// Everything the worker/coordinator code touches of the session's private
// state goes through these named accessors, so the seam is auditable in one
// place.

struct RuntimeAccess {
  using R = sim::Runtime;
  using Shard = sim::Runtime::Shard;
  using Arena = sim::Runtime::Arena;

  static int num_shards(R& rt) { return rt.num_shards_; }
  static Shard& shard(R& rt, int i) {
    return rt.shards_[static_cast<std::size_t>(i)];
  }
  static Arena& out_arena(R& rt) { return rt.arenas_[1 - rt.in_idx_]; }
  static int round(R& rt) { return rt.round_; }
  static int phase_cur(R& rt) { return rt.phase_cur_; }
  static const sim::RunStats& stats(R& rt) { return rt.stats_; }
  static std::int32_t out_stamp(R& rt) { return rt.stamp_base_ + rt.round_; }
  static std::vector<std::uint8_t>& halted(R& rt) { return rt.halted_; }
  static bool phase_sleeps(R& rt) { return rt.phase_sleeps_; }

  static void run_shard(R& rt, int shard, sim::VertexProgram& program,
                        bool is_begin) {
    rt.run_shard_phase(shard, program, is_begin);
  }

  /// Worker-side round bookkeeping mirroring run_phase_body's loop head
  /// (the fork child never executes run_phase_body itself).
  static void advance_round(R& rt, int round) {
    rt.round_ = round;
    rt.in_idx_ = 1 - rt.in_idx_;
    for (auto& words : rt.arenas_[1 - rt.in_idx_].words) words.clear();
  }

  /// Points the capture at one worker's slot and vertex ranges, or (on =
  /// false) turns it off.
  static void set_capture(R& rt, bool on, const WorkerSlice& sl) {
    rt.dist_capture_ = on;
    rt.dist_slot_lo_ = sl.slot_lo;
    rt.dist_slot_hi_ = sl.slot_hi;
    rt.dist_vtx_lo_ = sl.vtx_lo;
    rt.dist_vtx_hi_ = sl.vtx_hi;
  }
  static std::vector<std::int64_t>& captured(R& rt, int shard) {
    return rt.dist_captured_[static_cast<std::size_t>(shard)];
  }
  static std::vector<V>& broadcasts(R& rt, int shard) {
    return rt.dist_broadcasts_[static_cast<std::size_t>(shard)];
  }

  /// Failure-path scrub: zero every per-shard counter and drop pending
  /// errors, so a phase abandoned mid-sweep (worker death before its stats
  /// landed) cannot leak partial counter fills into the next phase's first
  /// merge_shards on this persistent session.
  static void clear_shard_counters(R& rt) {
    for (Shard& sh : rt.shards_) {
      sh.messages = 0;
      sh.words = 0;
      sh.work_items = 0;
      sh.max_msg_words = 0;
      sh.newly_halted = 0;
      sh.error = nullptr;
    }
  }
};

namespace {

using wire::ByteReader;
using wire::ByteWriter;

constexpr std::uint8_t kErrInvariant = 0;
constexpr std::uint8_t kErrPrecondition = 1;
constexpr std::uint8_t kErrBandwidth = 2;
constexpr std::uint8_t kErrTransient = 3;
constexpr std::uint8_t kErrCorruption = 4;
constexpr std::uint8_t kErrBadAlloc = 5;

/// Encodes the exception a worker sweep raised into a kError frame whose
/// payload is: u8 kind, str what, then kind-specific fields (bandwidth:
/// vertex, port, round, words, cap, from_contract; corruption: phase_label,
/// phase, round, expected, observed).
std::vector<std::uint8_t> encode_error_frame() {
  ByteWriter w;
  wire::begin_frame(w, static_cast<std::uint8_t>(FrameType::kError), -1, -1);
  try {
    throw;
  } catch (const sim::bandwidth_error& e) {
    w.u8(kErrBandwidth);
    w.str(e.what());
    w.i32(e.vertex);
    w.i32(e.port);
    w.i32(e.round);
    w.i64(e.words);
    w.i64(e.cap);
    w.u8(e.from_contract ? 1 : 0);
  } catch (const corruption_error& e) {
    w.u8(kErrCorruption);
    w.str(e.what());
    w.str(e.phase_label);
    w.i32(e.phase);
    w.i32(e.round);
    w.u64(e.expected_messages);
    w.u64(e.observed_messages);
  } catch (const transient_error& e) {
    w.u8(kErrTransient);
    w.str(e.what());
  } catch (const precondition_error& e) {
    w.u8(kErrPrecondition);
    w.str(e.what());
  } catch (const std::bad_alloc&) {
    w.u8(kErrBadAlloc);
    w.str("std::bad_alloc in a worker sweep");
  } catch (const std::exception& e) {
    w.u8(kErrInvariant);
    w.str(e.what());
  } catch (...) {
    w.u8(kErrInvariant);
    w.str("non-standard exception in a worker sweep");
  }
  wire::end_frame(w);
  return std::move(w.buf);
}

/// Inverse of encode_error_frame's payload: rethrows the worker's exception
/// on the coordinator with its original type and fields, prefixed with the
/// worker id so a multi-process failure names its origin.
[[noreturn]] void rethrow_error_payload(std::span<const std::uint8_t> payload,
                                        int worker) {
  ByteReader r{payload, 0, "error frame"};
  const std::uint8_t kind = r.u8();
  const std::string what =
      "worker " + std::to_string(worker) + ": " + r.str();
  switch (kind) {
    case kErrBandwidth: {
      const V vertex = r.i32();
      const int port = r.i32();
      const int round = r.i32();
      const std::int64_t words = r.i64();
      const std::int64_t cap = r.i64();
      const bool from_contract = r.u8() != 0;
      throw sim::bandwidth_error(what, vertex, port, round, words, cap,
                                 from_contract);
    }
    case kErrCorruption: {
      std::string phase_label = r.str();
      const int phase = r.i32();
      const int round = r.i32();
      const std::uint64_t expected = r.u64();
      const std::uint64_t observed = r.u64();
      throw corruption_error(what, std::move(phase_label), phase, round,
                             expected, observed);
    }
    case kErrTransient:
      throw transient_error(what);
    case kErrPrecondition:
      throw precondition_error(what);
    case kErrBadAlloc:
      throw std::bad_alloc{};
    default:
      throw invariant_error(what);
  }
}

/// The worker half of the protocol -- identical logic for a forked process
/// (owns_runtime_state = true: it does its own round bookkeeping on its
/// private copy-on-write session) and a loopback worker
/// (owns_runtime_state = false: the coordinator's run_phase_body already
/// advanced the shared session's round state).
struct WorkerCore {
  sim::Runtime* rt = nullptr;
  sim::VertexProgram* program = nullptr;
  int worker = 0;
  /// Every worker's slice in worker order: this worker's own ranges and the
  /// routing table for what it sends.
  std::vector<WorkerSlice> slices;
  bool owns_runtime_state = false;
  /// Sweeps until the armed fault fires (-1 = disarmed), decremented at
  /// sweep entry; 0 means "this sweep".
  int kill_countdown = -1;
  int corrupt_countdown = -1;
  /// Reply frames, kept across sweeps (cleared, not freed) so a sweep's
  /// encoding allocates nothing once the buffers have grown: one kMsgs
  /// frame per destination worker, with its group count, whether its
  /// current sender shard's group is open, and the byte offset and value of
  /// the count that group is filling; the kStats frame and the kState frame.
  std::vector<ByteWriter> msgs_out;
  std::vector<std::uint32_t> msgs_groups;
  std::vector<std::uint8_t> group_open;
  std::vector<std::size_t> group_at;
  std::vector<std::uint32_t> group_entries;
  ByteWriter stats_out;
  ByteWriter state_out;

  const WorkerSlice& own() const {
    return slices[static_cast<std::size_t>(worker)];
  }

  int dest_worker_of(std::int64_t slot) const {
    const auto it =
        std::ranges::upper_bound(slices, slot, {}, &WorkerSlice::slot_lo);
    return static_cast<int>(it - slices.begin()) - 1;
  }

  /// Decodes one coordinator frame and runs its handler, handing each
  /// reply frame to `emit` in order (the frames live in this core's reply
  /// buffers until the next frame). Returns false, having run nothing, when
  /// the armed kill fires at this sweep: the caller decides what death
  /// looks like (SIGKILL for fork, a dead channel for loopback). Throws on
  /// a malformed or unexpected frame or a shard error; the caller encodes
  /// it as a kError frame.
  template <class Emit>
  bool serve(std::span<const std::uint8_t> frame, Emit&& emit) {
    const wire::FrameHeader h = wire::decode_frame_header(frame);
    const auto payload = wire::frame_payload(frame);
    switch (static_cast<FrameType>(h.type)) {
      case FrameType::kSweep:
        if (kill_countdown >= 0 && kill_countdown-- == 0) return false;
        handle_sweep(h, payload, emit);
        return true;
      case FrameType::kMsgs:
        apply_msgs(payload);
        return true;
      case FrameType::kFinish:
        handle_finish(h, emit);
        return true;
      default:
        throw corruption_error(
            "worker received an unexpected frame type " +
                std::to_string(static_cast<int>(h.type)),
            "", h.phase, h.round, 0, 0);
    }
  }

  /// Applies a relayed kMsgs payload into the post-sweep out arena, each
  /// entry into the cell it was sent from: a broadcast entry into the
  /// sender's broadcast cell, a per-slot entry into the receiver's per-edge
  /// cell. Its words are appended to the SENDER shard's flat buffer
  /// (offsets are recomputed locally -- the sender's offsets are
  /// meaningless in this process's buffers). In a sleeping phase it also
  /// stamps the mail of every receiver on this worker, so a sleeping
  /// receiver wakes: a broadcast's receivers here are a contiguous run of
  /// its sorted row, a per-slot entry's receiver is its slot's owner.
  /// Every check of an entry runs before its cell is written. FIFO
  /// transport order guarantees every round-r message lands before the
  /// round-r+1 sweep that consumes it.
  void apply_msgs(std::span<const std::uint8_t> payload) {
    ByteReader r{payload, 0, "messages frame"};
    const auto dest = static_cast<int>(r.u32());
    DVC_ENSURE(dest == worker, "messages frame routed to the wrong worker");
    const std::uint32_t n_groups = r.u32();
    auto& arena = RuntimeAccess::out_arena(*rt);
    const std::int32_t stamp = RuntimeAccess::out_stamp(*rt);
    const bool sleeps = RuntimeAccess::phase_sleeps(*rt);
    const Graph& g = rt->graph();
    const WorkerSlice& me = own();
    for (std::uint32_t gi = 0; gi < n_groups; ++gi) {
      const std::uint32_t sender_shard = r.u32();
      DVC_ENSURE(sender_shard < static_cast<std::uint32_t>(
                                    RuntimeAccess::num_shards(*rt)),
                 "relayed message names an unknown sender shard");
      DVC_ENSURE(static_cast<int>(sender_shard) < me.shard_lo ||
                     static_cast<int>(sender_shard) >= me.shard_hi,
                 "relayed message names a sender shard of this worker");
      const auto& from =
          RuntimeAccess::shard(*rt, static_cast<int>(sender_shard));
      auto& words = arena.words[sender_shard];
      // Decodes one entry's length and words onto the end of `words` and
      // returns {offset, length}. Every word takes at least one byte: a
      // length the payload cannot hold is corruption, caught before the
      // resize below allocates it.
      const auto take_words = [&] {
        const std::uint64_t len = r.uvarint();
        r.need(len);
        DVC_ENSURE(words.size() + len <= 0xffffffffu,
                   "a shard's per-round payload exceeds the 32-bit arena "
                   "offsets");
        const std::size_t at = words.size();
        words.resize(at + len);
        r.svarints(std::span<std::int64_t>(words).subspan(at));
        return std::pair{static_cast<std::uint32_t>(at),
                         static_cast<std::uint32_t>(len)};
      };
      const std::uint32_t n_broadcasts = r.u32();
      for (std::uint32_t i = 0; i < n_broadcasts; ++i) {
        const std::int64_t u = r.u32();
        DVC_ENSURE(u >= from.first && u < from.last,
                   "relayed broadcast names a vertex outside its sender shard");
        const std::span<const V> nbrs = g.neighbors(static_cast<V>(u));
        const auto here = std::lower_bound(nbrs.begin(), nbrs.end(), me.vtx_lo);
        DVC_ENSURE(here != nbrs.end() && *here < me.vtx_hi,
                   "relayed broadcast has no receiver on this worker");
        const auto [off, len] = take_words();
        arena.cell[static_cast<std::size_t>(u)] = {stamp, off, len};
        if (sleeps) {
          for (auto it = here; it != nbrs.end() && *it < me.vtx_hi; ++it) {
            arena.mail[static_cast<std::size_t>(*it)] = stamp;
          }
        }
      }
      const std::uint32_t n_edges = r.u32();
      for (std::uint32_t i = 0; i < n_edges; ++i) {
        const std::int64_t slot = r.u32();
        DVC_ENSURE(slot >= me.slot_lo && slot < me.slot_hi,
                   "relayed message slot outside this worker's range");
        const V sender = g.slot_target(slot);
        DVC_ENSURE(sender >= from.first && sender < from.last,
                   "relayed message slot's sender is outside its sender shard");
        const auto [off, len] = take_words();
        const auto s = static_cast<std::size_t>(slot);
        arena.epoch[s] = stamp;
        arena.off[s] = off;
        arena.len[s] = len;
        if (sleeps) {
          arena.mail[static_cast<std::size_t>(
              g.slot_target(g.mirror_slot(slot)))] = stamp;
        }
      }
    }
    DVC_ENSURE(r.pos == payload.size(),
               "messages frame has trailing bytes past its entries");
  }

  /// Appends one kMsgs entry: a u32 key (the sending vertex of a broadcast
  /// entry, the receiving slot of a per-slot entry), the LEB128 length and
  /// the zigzag-LEB128 words, grow-then-store.
  static void put_entry(ByteWriter& w, std::uint32_t key,
                        std::span<const std::int64_t> words) {
    std::uint8_t* p = w.grow(4 + wire::kMaxVarintBytes * (1 + words.size()));
    p = wire::put_u32(p, key);
    p = wire::put_uvarint(p, words.size());
    w.trim(wire::put_svarints(p, words));
  }

  /// Runs one sweep over the worker's shards and hands the response frames
  /// to `emit` in order: zero or more kMsgs (one per destination worker that
  /// received cross-worker messages) followed by exactly one kStats.
  template <class Emit>
  void handle_sweep(const wire::FrameHeader& h,
                    std::span<const std::uint8_t> payload, Emit& emit) {
    ByteReader r{payload, 0, "sweep frame"};
    const bool is_begin = r.u8() != 0;
    if (owns_runtime_state && !is_begin) {
      RuntimeAccess::advance_round(*rt, h.round);
    }
    // Capture gate: this worker's ranges (loopback workers share one
    // session, so the ranges are re-pointed before every sweep).
    const WorkerSlice& me = own();
    RuntimeAccess::set_capture(*rt, true, me);
    for (int s = me.shard_lo; s < me.shard_hi; ++s) {
      RuntimeAccess::captured(*rt, s).clear();
      RuntimeAccess::broadcasts(*rt, s).clear();
      RuntimeAccess::run_shard(*rt, s, *program, is_begin);
    }
    RuntimeAccess::set_capture(*rt, false, WorkerSlice{});
    // A sweep exception was parked in the shard struct (the in-process
    // pool's convention); surface the first one here, leaving the counters
    // to the coordinator's failure scrub.
    for (int s = me.shard_lo; s < me.shard_hi; ++s) {
      auto& sh = RuntimeAccess::shard(*rt, s);
      if (sh.error) {
        std::exception_ptr err = sh.error;
        sh.error = nullptr;
        std::rethrow_exception(err);
      }
    }

    const int phase = h.phase;
    const int round = h.round;
    // Cross-worker messages: one kMsgs frame per destination worker, its
    // entries grouped by sender shard. Payload layout:
    //   u32 dest_worker, u32 n_groups,
    //   n_groups x { u32 sender_shard,
    //                u32 n_broadcasts, n_broadcasts x { u32 vertex, entry },
    //                u32 n_edges, n_edges x { u32 slot, entry } }
    // where entry = { uvarint len, len x svarint words }. A broadcast
    // crosses once per destination worker holding one of its receivers.
    const auto workers = slices.size();
    const auto self = static_cast<std::size_t>(worker);
    msgs_out.resize(workers);
    msgs_groups.assign(workers, 0);
    group_at.resize(workers);
    group_entries.resize(workers);
    auto& arena = RuntimeAccess::out_arena(*rt);
    const Graph& g = rt->graph();
    // Patches the count dest d's group is filling and starts the next.
    const auto next_count = [&](std::size_t d) {
      ByteWriter& w = msgs_out[d];
      w.patch_u32(group_at[d], group_entries[d]);
      group_at[d] = w.buf.size();
      group_entries[d] = 0;
      w.u32(0);
    };
    // Opens dest d's group for sender shard s (and d's frame with its first
    // group), filling its broadcast count.
    const auto open_group = [&](std::size_t d, int s) {
      ByteWriter& w = msgs_out[d];
      if (msgs_groups[d]++ == 0) {
        wire::begin_frame(w, static_cast<std::uint8_t>(FrameType::kMsgs),
                          phase, round);
        w.u32(static_cast<std::uint32_t>(d));
        w.u32(0);  // group count, patched below
      }
      w.u32(static_cast<std::uint32_t>(s));
      group_open[d] = 1;
      group_at[d] = w.buf.size();
      group_entries[d] = 0;
      w.u32(0);
    };
    for (int s = me.shard_lo; s < me.shard_hi; ++s) {
      const auto& words = arena.words[static_cast<std::size_t>(s)];
      group_open.assign(workers, 0);
      // Broadcast entries, from the sender's cell: one lower_bound per
      // worker over the sorted row finds the destinations.
      auto& broadcasts = RuntimeAccess::broadcasts(*rt, s);
      for (const V u : broadcasts) {
        const auto& c = arena.cell[static_cast<std::size_t>(u)];
        const auto payload_words =
            std::span<const std::int64_t>(words).subspan(c.off, c.len);
        const std::span<const V> nbrs = g.neighbors(u);
        auto it = nbrs.begin();
        for (std::size_t d = 0; d < workers; ++d) {
          it = std::lower_bound(it, nbrs.end(), slices[d].vtx_lo);
          if (it == nbrs.end()) break;
          if (d == self || *it >= slices[d].vtx_hi) continue;
          if (!group_open[d]) open_group(d, s);
          ++group_entries[d];
          put_entry(msgs_out[d], static_cast<std::uint32_t>(u), payload_words);
        }
      }
      broadcasts.clear();
      for (std::size_t d = 0; d < workers; ++d) {
        if (group_open[d]) next_count(d);
      }
      // Per-slot entries: every per-edge cell bound for another worker.
      auto& captured = RuntimeAccess::captured(*rt, s);
      for (const std::int64_t slot : captured) {
        const auto d = static_cast<std::size_t>(dest_worker_of(slot));
        if (!group_open[d]) {
          open_group(d, s);
          next_count(d);
        }
        ++group_entries[d];
        const auto si = static_cast<std::size_t>(slot);
        put_entry(msgs_out[d], static_cast<std::uint32_t>(slot),
                  std::span<const std::int64_t>(words).subspan(arena.off[si],
                                                               arena.len[si]));
      }
      captured.clear();
      for (std::size_t d = 0; d < workers; ++d) {
        if (group_open[d]) {
          msgs_out[d].patch_u32(group_at[d], group_entries[d]);
        }
      }
    }
    for (std::size_t d = 0; d < workers; ++d) {
      if (msgs_groups[d] == 0) continue;
      ByteWriter& w = msgs_out[d];
      w.patch_u32(wire::kFrameHeaderBytes + 4, msgs_groups[d]);
      wire::end_frame(w);
      emit(std::span<const std::uint8_t>(w.buf));
    }

    // Per-shard sweep counters, ascending shard order:
    //   { u64 messages, u64 words, u64 work_items, u32 max_msg_words,
    //     i32 newly_halted } per owned shard.
    // Read-and-reset: on the shared loopback session the coordinator
    // re-assigns these from the frame, so the reset keeps fork and loopback
    // on one code path instead of two counter disciplines.
    ByteWriter& stats = stats_out;
    wire::begin_frame(stats, static_cast<std::uint8_t>(FrameType::kStats),
                      phase, round);
    for (int s = me.shard_lo; s < me.shard_hi; ++s) {
      auto& sh = RuntimeAccess::shard(*rt, s);
      stats.u64(sh.messages);
      stats.u64(sh.words);
      stats.u64(sh.work_items);
      stats.u32(sh.max_msg_words);
      stats.i32(sh.newly_halted);
      sh.messages = 0;
      sh.words = 0;
      sh.work_items = 0;
      sh.max_msg_words = 0;
      sh.newly_halted = 0;
    }
    wire::end_frame(stats);

    if (corrupt_countdown >= 0 && corrupt_countdown-- == 0) {
      // Injected wire damage: flip the first payload byte of the stats
      // frame AFTER encoding, so the frame checksum no longer matches and
      // the coordinator's validation must catch it.
      stats.buf[wire::kFrameHeaderBytes] ^= 0xff;
    }
    emit(std::span<const std::uint8_t>(stats.buf));
  }

  /// kFinish -> kState: every owned vertex's program state, in ascending
  /// vertex order, via the program's save hook.
  template <class Emit>
  void handle_finish(const wire::FrameHeader& h, Emit& emit) {
    ByteWriter& w = state_out;
    wire::begin_frame(w, static_cast<std::uint8_t>(FrameType::kState),
                      h.phase, h.round);
    for (V v = own().vtx_lo; v < own().vtx_hi; ++v) {
      program->save_vertex_state(v, w);
    }
    wire::end_frame(w);
    emit(std::span<const std::uint8_t>(w.buf));
  }
};

/// Forked worker process: a blocking serve loop on its socketpair end.
/// Exits via _exit only -- the child shares the parent's address space
/// copy-on-write and must not run the parent's destructors or atexit hooks.
[[noreturn]] void child_serve(WorkerCore& core, int fd) {
  SocketTransport link(fd, /*worker=*/-1);
  for (;;) {
    std::vector<std::uint8_t> frame;
    try {
      frame = link.recv();
    } catch (const worker_lost_error&) {
      // Coordinator gone (shutdown with frames in flight, or its own
      // death): nothing to report to, so a clean silent exit.
      _exit(0);
    } catch (...) {
      _exit(1);
    }
    try {
      if (!core.serve(frame, [&](std::span<const std::uint8_t> f) {
            link.send(f);
          })) {
        // The scheduled mid-round death: no goodbye frame, no teardown --
        // exactly what kill -9 on a real worker box looks like.
        ::raise(SIGKILL);
      }
    } catch (const worker_lost_error&) {
      _exit(0);  // coordinator vanished mid-reply
    } catch (...) {
      const std::vector<std::uint8_t> frame = encode_error_frame();
      try {
        link.send(frame);
      } catch (...) {
        _exit(1);
      }
    }
  }
}

/// In-process worker: the same WorkerCore over in-memory queues. send()
/// dispatches the frame synchronously (decode -> handle -> queue replies),
/// so the encoded wire traffic is byte-identical to the fork backend while
/// everything runs on the coordinator thread against the shared session.
class LoopbackTransport final : public Transport {
 public:
  LoopbackTransport(WorkerCore core) : core_(std::move(core)) {}

  void send(std::span<const std::uint8_t> frame) override {
    if (dead_) lost("send to a dead loopback worker");
    try {
      if (!core_.serve(frame, [&](std::span<const std::uint8_t> f) {
            outbox_.emplace_back(f.begin(), f.end());
          })) {
        // Simulated kill -9: the worker stops responding; queued replies
        // die with it.
        dead_ = true;
        outbox_.clear();
      }
    } catch (...) {
      outbox_.push_back(encode_error_frame());
    }
  }

  std::vector<std::uint8_t> recv() override {
    if (dead_) lost("recv from a dead loopback worker");
    DVC_ENSURE(!outbox_.empty(),
               "coordinator expects a reply the loopback worker never sent");
    std::vector<std::uint8_t> frame = std::move(outbox_.front());
    outbox_.pop_front();
    return frame;
  }

  bool alive() const override { return !dead_; }
  void shutdown() override {
    dead_ = true;
    outbox_.clear();
  }

 private:
  [[noreturn]] void lost(const std::string& why) {
    throw worker_lost_error("transport to worker " +
                                std::to_string(core_.worker) + " lost: " + why,
                            core_.worker, -1, -1);
  }

  WorkerCore core_;
  std::deque<std::vector<std::uint8_t>> outbox_;
  bool dead_ = false;
};

}  // namespace

// ---------------------------------------------------------------------------
// DistExecutor: the coordinator.

class DistExecutor final : public sim::PhaseExecutor {
 public:
  explicit DistExecutor(DistConfig cfg) : cfg_(cfg) {
    DVC_REQUIRE(cfg_.workers >= 1, "DistConfig.workers must be >= 1");
  }

  ~DistExecutor() override { teardown(/*kill=*/true); }

  std::vector<PhaseWireMetrics> metrics_;
  DistConfig cfg_;

  bool begin_phase(sim::Runtime& rt, sim::VertexProgram& program) override {
    const int phase = RuntimeAccess::phase_cur(rt);
    metrics_.push_back(PhaseWireMetrics{});
    PhaseWireMetrics& m = metrics_.back();
    m.label = std::string(rt.last_phase());
    m.phase = phase;
    if (!program.dist_capable()) return false;  // phase runs locally

    const int workers = effective_workers(rt);
    m.distributed = true;
    m.workers = workers;

    // Contiguous shard partition: worker w owns shards
    // [w*S/W, (w+1)*S/W) -- every worker non-empty because W <= S.
    const int S = RuntimeAccess::num_shards(rt);
    slices_.assign(static_cast<std::size_t>(workers), WorkerSlice{});
    for (int w = 0; w < workers; ++w) {
      WorkerSlice& sl = slices_[static_cast<std::size_t>(w)];
      sl.shard_lo = static_cast<int>(std::int64_t{w} * S / workers);
      sl.shard_hi = static_cast<int>((std::int64_t{w} + 1) * S / workers);
      sl.slot_lo = RuntimeAccess::shard(rt, sl.shard_lo).slot_lo;
      sl.slot_hi = RuntimeAccess::shard(rt, sl.shard_hi - 1).slot_hi;
      sl.vtx_lo = RuntimeAccess::shard(rt, sl.shard_lo).first;
      sl.vtx_hi = RuntimeAccess::shard(rt, sl.shard_hi - 1).last;
    }

    links_.clear();
    pids_.assign(static_cast<std::size_t>(workers), -1);
    for (int w = 0; w < workers; ++w) {
      WorkerCore core;
      core.rt = &rt;
      core.program = &program;
      core.worker = w;
      core.slices = slices_;
      if (cfg_.kill_at_sweep >= 0 && w == cfg_.kill_worker) {
        core.kill_countdown = cfg_.kill_at_sweep - sweeps_done_;
        if (core.kill_countdown < 0) core.kill_countdown = -1;  // already past
      }
      if (cfg_.corrupt_at_sweep >= 0 && w == cfg_.corrupt_worker) {
        core.corrupt_countdown = cfg_.corrupt_at_sweep - sweeps_done_;
        if (core.corrupt_countdown < 0) core.corrupt_countdown = -1;
      }
      if (cfg_.backend == Backend::kLoopback) {
        core.owns_runtime_state = false;
        links_.push_back(std::make_unique<LoopbackTransport>(std::move(core)));
        continue;
      }
      core.owns_runtime_state = true;
      int fds[2];
      DVC_REQUIRE(
          ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
          std::string("socketpair failed: ") + std::strerror(errno));
      const pid_t pid = ::fork();
      DVC_REQUIRE(pid >= 0, std::string("fork failed: ") + std::strerror(errno));
      if (pid == 0) {
        // Worker process. Inherits the session at its canonical phase-start
        // state (copy-on-write). Drop every coordinator-side fd -- ours and
        // the previously forked workers' -- so the coordinator observes
        // clean EOFs, then serve until the phase ends or the channel drops.
        ::close(fds[0]);
        for (auto& link : links_) link->shutdown();
        child_serve(core, fds[1]);  // never returns
      }
      ::close(fds[1]);
      pids_[static_cast<std::size_t>(w)] = pid;
      links_.push_back(std::make_unique<SocketTransport>(fds[0], w));
    }
    active_ = true;
    return true;
  }

  void run_sweep(sim::Runtime& rt, bool is_begin) override {
    const int phase = RuntimeAccess::phase_cur(rt);
    const int round = RuntimeAccess::round(rt);
    ++sweeps_done_;
    PhaseWireMetrics& m = metrics_.back();
    ++m.round_trips;
    try {
      ByteWriter sweep;
      wire::begin_frame(sweep, static_cast<std::uint8_t>(FrameType::kSweep),
                        phase, round);
      sweep.u8(is_begin ? 1 : 0);
      wire::end_frame(sweep);
      for (int w = 0; w < worker_count(); ++w) send_to(w, sweep.buf);

      // Drain every worker in order: relay-buffer its kMsgs, land its
      // kStats into the owned shards' counters (merge_shards folds them
      // exactly as it folds an in-process sweep's). Relays go out only
      // AFTER all workers reported -- every worker is then parked in
      // recv(), so the coordinator can never deadlock against a worker
      // still blocked writing its own frames.
      std::vector<std::pair<int, std::vector<std::uint8_t>>> relays;
      for (int w = 0; w < worker_count(); ++w) {
        for (;;) {
          std::vector<std::uint8_t> frame_in = recv_from(w);
          const wire::FrameHeader h = wire::decode_frame_header(frame_in);
          const auto payload = wire::frame_payload(frame_in);
          if (h.type == static_cast<std::uint8_t>(FrameType::kMsgs)) {
            ByteReader r{payload, 0, "messages frame"};
            const auto dest = static_cast<int>(r.u32());
            DVC_ENSURE(dest >= 0 && dest < worker_count(),
                       "messages frame names an unknown destination worker");
            m.msgs_bytes += frame_in.size();
            relays.emplace_back(dest, std::move(frame_in));
            continue;
          }
          if (h.type == static_cast<std::uint8_t>(FrameType::kError)) {
            rethrow_error_payload(payload, w);
          }
          DVC_ENSURE(h.type == static_cast<std::uint8_t>(FrameType::kStats),
                     "expected a stats frame, got type " +
                         std::to_string(static_cast<int>(h.type)));
          apply_stats(rt, w, payload);
          break;
        }
      }
      for (auto& [dest, frame_out] : relays) {
        if (cfg_.tamper_msgs) {
          const wire::FrameHeader h = wire::decode_frame_header(frame_out);
          const auto body = wire::frame_payload(frame_out);
          std::vector<std::uint8_t> payload(body.begin(), body.end());
          cfg_.tamper_msgs(payload);
          frame_out = wire::encode_frame(h.type, h.phase, h.round, payload);
        }
        m.msgs_bytes += frame_out.size();
        send_to(dest, frame_out);
      }
    } catch (worker_lost_error& e) {
      // Stamp the loss with the phase context the transport cannot know.
      throw worker_lost_error("in phase '" +
                                  std::string(rt.last_phase()) + "' (phase " +
                                  std::to_string(phase) + "), round " +
                                  std::to_string(round) + ": " + e.what(),
                              e.worker, phase, round);
    }
  }

  void end_phase(sim::Runtime& rt, sim::VertexProgram& program,
                 bool success) override {
    if (!active_) return;  // idempotent failure teardown
    if (!success) {
      // Unwinding: kill and reap whatever is left, scrub half-filled
      // counters so the next phase on this persistent session starts clean.
      teardown(/*kill=*/true);
      RuntimeAccess::clear_shard_counters(rt);
      return;
    }
    PhaseWireMetrics& m = metrics_.back();
    ++m.round_trips;
    const int phase = RuntimeAccess::phase_cur(rt);
    const auto finish = wire::encode_frame(
        static_cast<std::uint8_t>(FrameType::kFinish), phase, -1, {});
    for (int w = 0; w < worker_count(); ++w) send_to(w, finish);
    for (int w = 0; w < worker_count(); ++w) {
      std::vector<std::uint8_t> frame = recv_from(w);
      const wire::FrameHeader h = wire::decode_frame_header(frame);
      const auto payload = wire::frame_payload(frame);
      if (h.type == static_cast<std::uint8_t>(FrameType::kError)) {
        rethrow_error_payload(payload, w);
      }
      DVC_ENSURE(h.type == static_cast<std::uint8_t>(FrameType::kState),
                 "expected a state frame, got type " +
                     std::to_string(static_cast<int>(h.type)));
      ByteReader r{payload, 0, "state frame"};
      const WorkerSlice& sl = slices_[static_cast<std::size_t>(w)];
      for (V v = sl.vtx_lo; v < sl.vtx_hi; ++v) {
        program.load_vertex_state(v, r);
      }
      DVC_ENSURE(r.pos == payload.size(),
                 "worker " + std::to_string(w) +
                     " state frame size disagrees with the program's "
                     "save/load contract");
    }
    // The phase loop exited with live_ == 0, but the halts happened in the
    // workers: restore the coordinator's own halted bitmap to the phase-end
    // truth (every vertex halted).
    auto& halted = RuntimeAccess::halted(rt);
    std::fill(halted.begin(), halted.end(), 1);
    m.rounds = RuntimeAccess::round(rt);
    m.declared_words = RuntimeAccess::stats(rt).words;
    m.declared_messages = RuntimeAccess::stats(rt).messages;
    teardown(/*kill=*/false);
  }

  int effective_workers(sim::Runtime& rt) const {
    return std::min(cfg_.workers, RuntimeAccess::num_shards(rt));
  }

 private:
  int worker_count() const { return static_cast<int>(links_.size()); }

  void send_to(int w, std::span<const std::uint8_t> frame) {
    PhaseWireMetrics& m = metrics_.back();
    m.wire_bytes += frame.size();
    ++m.frames;
    links_[static_cast<std::size_t>(w)]->send(frame);
  }

  std::vector<std::uint8_t> recv_from(int w) {
    std::vector<std::uint8_t> frame =
        links_[static_cast<std::size_t>(w)]->recv();
    PhaseWireMetrics& m = metrics_.back();
    m.wire_bytes += frame.size();
    ++m.frames;
    return frame;
  }

  /// Lands one kStats payload into the owned shards' counter slots; the
  /// coordinator's unchanged merge_shards then folds them canonically.
  void apply_stats(sim::Runtime& rt, int w,
                   std::span<const std::uint8_t> payload) {
    ByteReader r{payload, 0, "stats frame"};
    const WorkerSlice& sl = slices_[static_cast<std::size_t>(w)];
    for (int s = sl.shard_lo; s < sl.shard_hi; ++s) {
      auto& sh = RuntimeAccess::shard(rt, s);
      sh.messages = r.u64();
      sh.words = r.u64();
      sh.work_items = r.u64();
      sh.max_msg_words = r.u32();
      sh.newly_halted = r.i32();
    }
    DVC_ENSURE(r.pos == payload.size(),
               "stats frame size disagrees with worker " + std::to_string(w) +
                   "'s shard count");
  }

  /// Releases workers. kill = false: the phase completed, workers exit on
  /// EOF when their channel closes. kill = true: failure path, SIGKILL
  /// survivors first. Reaps every forked child either way; never throws.
  void teardown(bool kill) noexcept {
    if (kill) {
      for (const pid_t pid : pids_) {
        if (pid > 0) ::kill(pid, SIGKILL);
      }
    }
    for (auto& link : links_) {
      if (link) link->shutdown();
    }
    links_.clear();
    for (pid_t& pid : pids_) {
      if (pid <= 0) continue;
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      pid = -1;
    }
    pids_.clear();
    active_ = false;
  }

  std::vector<WorkerSlice> slices_;
  std::vector<std::unique_ptr<Transport>> links_;
  std::vector<pid_t> pids_;
  int sweeps_done_ = 0;
  bool active_ = false;
};

// ---------------------------------------------------------------------------
// DistSession

DistSession::DistSession(sim::Runtime& rt, DistConfig cfg)
    : rt_(&rt), exec_(std::make_unique<DistExecutor>(cfg)) {
  rt.set_phase_executor(exec_.get());
}

DistSession::~DistSession() { rt_->set_phase_executor(nullptr); }

const std::vector<PhaseWireMetrics>& DistSession::metrics() const {
  return exec_->metrics_;
}

PhaseWireMetrics DistSession::totals() const {
  PhaseWireMetrics t;
  t.label = "total";
  for (const PhaseWireMetrics& m : exec_->metrics_) {
    if (!m.distributed) continue;
    t.distributed = true;
    t.workers = std::max(t.workers, m.workers);
    t.rounds += m.rounds;
    t.wire_bytes += m.wire_bytes;
    t.frames += m.frames;
    t.msgs_bytes += m.msgs_bytes;
    t.round_trips += m.round_trips;
    t.declared_words += m.declared_words;
    t.declared_messages += m.declared_messages;
  }
  return t;
}

int DistSession::effective_workers() const {
  return exec_->effective_workers(*rt_);
}

}  // namespace dvc::dist
