// Persistent LOCAL-model runtime (the paper's Section 1 machine model).
//
// Each vertex hosts a processor that knows only its own id (= vertex + 1,
// ids in {1..n}), its degree, and its port numbering. Computation proceeds
// in discrete rounds: every message sent in round r is delivered at the
// start of round r+1. The runtime counts rounds, messages and payload words;
// the round count of a run is exactly the paper's "running time".
//
// Programs are written against the VertexProgram interface:
//   * begin(ctx)         -- local initialization; may send and/or halt.
//   * step(ctx, inbox)   -- called once per round for every non-halted
//                           vertex with the messages delivered this round.
//
// A vertex that halts stops participating; a phase ends when every vertex
// has halted (stats.rounds then equals the number of communication rounds
// consumed) or throws when max_rounds is exceeded.
//
// Session architecture (see DESIGN.md, "Runtime sessions"): the paper's
// algorithms are long *compositions* of phases -- Algorithm 2 chains
// arbdefective refinement, H-partition, layer coloring, orientation and
// greedy sweeps. A Runtime is the session object for one such pipeline: it
// owns the graph binding, both mailbox arenas, the halted/live state and
// the parked shard thread pool, and `run_phase(program, max_rounds, label)`
// resets per-phase state WITHOUT freeing memory. An entire preset pipeline
// therefore performs heap allocation only while warming up its first
// phase(s) and never re-spawns threads at a phase boundary. Every completed
// phase is recorded in the session's PhaseLog, a flat arena-backed tree of
// named spans that replaces the hand-maintained `phases` bookkeeping the
// algorithm drivers used to carry.
//
// Mailbox architecture (see DESIGN.md, "Mailbox runtime"): messages go
// through a double-buffered arena. A broadcast writes one cell, the
// sender's own; the receiver's port scan finds it through the neighbor
// list. A send on one port lands directly in the mirror slot's inbox cell
// via the Graph's O(1) mirror map. Payload words are appended to a flat
// per-shard word buffer. There is no per-message heap allocation and no
// per-round sorting of the arena itself.
// A vertex may send at most one message per incident edge per round (the
// standard LOCAL convention; violating it throws invariant_error).
//
// Sparse scheduling (see DESIGN.md, "Sparse scheduling"): the paper's
// Section 1.4 observation that "all vertices are active at (almost) all
// times" holds for the headline presets as a whole, but most individual
// sub-phases (layer peeling, greedy sweeps, refinement tails) spend the
// bulk of their rounds with a small, shrinking live set. The executor
// therefore drives each round by the live set: every shard keeps a
// compacted, canonically ordered live-vertex list (maintained incrementally
// as vertices halt, not re-derived by an O(n) flag sweep), and a live
// vertex's inbox is the fresh cells among its own ports. Per-round
// cost is O(live + sum_{awake} deg) instead of O(n + 2m): a live vertex is
// *awake* unless its program declared it asleep (Ctx::sleep_until, in
// phases whose program declares VertexProgram::sleeps()) and neither mail
// nor its named round has reached it; a sleeper costs one flag check, no
// port scan and no step() call. Outputs, RunStats and the
// PhaseLog are checked bit-identical against the tests-only reference
// executor (tests/reference_executor.hpp), a full sweep over an ordered
// message map that shares none of this delivery code and ignores sleeps.
//
// Sharded execution: the vertex set is split into `shards` fixed contiguous
// blocks; each round, shards step their vertices concurrently and write
// into per-shard arenas that are merged in canonical slot order (implicitly:
// every cell has a unique writer -- the sending vertex's shard -- so the
// merge is free). RunStats and all program outputs are bit-identical for
// every shard count.
//
// CONGEST accounting (see DESIGN.md, "CONGEST accounting"): the paper's
// algorithms run with O(log n)-bit messages, so beyond counting rounds the
// runtime meters bandwidth. Every send records its payload width; RunStats
// and the PhaseLog carry the total word volume, the widest single message
// (`max_msg_words`) and a per-round word series. Two independent caps bound
// message width, and exceeding either raises a structured bandwidth_error
// naming the offending vertex, port and round:
//   * the session budget (`set_congest_words`; 0 = unlimited = LOCAL), and
//   * the program's own declared contract (VertexProgram::max_words),
//     enforced on every run so a program can never silently exceed the
//     width it advertises.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/wire.hpp"
#include "graph/graph.hpp"
#include "sim/fault.hpp"

namespace dvc::dist {
struct RuntimeAccess;  // distributed transport's window into the session
}

namespace dvc::sim {

/// The tests-only reference executor's window into the session
/// (tests/reference_executor.hpp defines it): Ctx construction, inbox
/// filling, the halted flags, shard 0's counters and the out arena --
/// nothing of the delivery machinery. It also lets a test executor run the
/// production shard sweep over a wrapper program (to count a program's
/// step() calls); the reference executor itself never does.
struct ReferenceAccess;

/// Raised when a message's payload exceeds the CONGEST word cap in force
/// for the phase -- the session budget (Runtime::set_congest_words) or the
/// program's own declared contract (VertexProgram::max_words), whichever is
/// tighter. Structured so tests and callers can attribute the violation
/// mechanically. Derives from invariant_error: exceeding the bandwidth of
/// the simulated model is a structural violation, like exceeding a round
/// cap.
class bandwidth_error : public invariant_error {
 public:
  bandwidth_error(const std::string& what, V vertex, int port, int round,
                  std::int64_t words, std::int64_t cap, bool from_contract)
      : invariant_error(what),
        vertex(vertex),
        port(port),
        round(round),
        words(words),
        cap(cap),
        from_contract(from_contract) {}

  V vertex;            ///< sending vertex (0-based)
  int port;            ///< sending port
  int round;           ///< round the send was issued in (0 = begin)
  std::int64_t words;  ///< offending payload width
  std::int64_t cap;    ///< the violated per-message word cap
  bool from_contract;  ///< true: program max_words(); false: session budget
};

struct RunStats {
  int rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t words = 0;
  /// Algorithmic work of the phase: one item per program activation (a
  /// begin() or step() call) plus one per delivered inbox message. By
  /// construction this is executor-invariant (it counts the work the
  /// algorithm demands, not executor-internal scanning), so benches can
  /// report work vs wall time and reference-executor runs stay bit-identical.
  std::uint64_t work_items = 0;
  /// Widest single message payload (words) observed during the phase; the
  /// phase ran within the CONGEST model iff this is <= the word budget.
  std::uint32_t max_msg_words = 0;
  /// Number of non-halted vertices at the start of each round. Sequential
  /// phase composition (PhaseLog::total) concatenates, so a composed
  /// driver's profile covers its whole pipeline. Used to validate the paper's
  /// Section 1.4 parallelism claim ("all vertices are active at (almost)
  /// all times").
  std::vector<std::int32_t> active_per_round;
  /// Payload words sent per execution step: index 0 is begin(), index r is
  /// round r. Sums to `words`. Sequential composition concatenates, like
  /// active_per_round (note the two series are offset by one: a phase with
  /// R rounds contributes R active counts but R+1 bandwidth samples).
  std::vector<std::uint64_t> words_per_round;

  /// Full bitwise comparison, counters and series alike: the test suite's
  /// shard-count/reference bit-identity checks and the benches' A/B
  /// attestations all compare through this one operator, so a new field
  /// can never be silently left out of an identity check.
  friend bool operator==(const RunStats&, const RunStats&) = default;
};

// ---------------------------------------------------------------------------
// Round-cap constants, audited across all drivers. Caps only bound the
// round loop (exceeding one throws invariant_error); they never change a
// program's output, so generosity is free.

/// Cap for one-shot exchange programs (broadcast in begin, respond once in
/// step, halt): 2 communication rounds plus slack.
inline constexpr int kOneExchangeRoundCap = 4;

/// Additive slack for schedule-driven programs whose exact round count is
/// known up front (cap = exact + kRoundCapSlack).
inline constexpr int kRoundCapSlack = 8;

/// Generous default round cap for open-ended drivers: c1 * log2(n) * scale
/// + c2.
int default_round_cap(V n, int scale = 1);

// ---------------------------------------------------------------------------
// PhaseLog: the unified per-phase bookkeeping record.

/// Flat, arena-backed log of named phase spans. Leaf entries are recorded by
/// Runtime::run_phase (one per simulated program); aggregate spans are
/// opened/closed by drivers (via PhaseSpan) so composed procedures appear as
/// a tree: `legal_coloring` shows `arbdefective -> partial-orientation ->
/// h-partition/...` with per-phase RunStats at every node.
///
/// Storage is three flat arenas (entries, name bytes, active counts), so
/// recording a phase into a warm log performs no heap allocation. Entry
/// `depth` encodes the tree: a span's subtree is the maximal following range
/// of entries with strictly greater depth.
class PhaseLog {
 public:
  PhaseLog() = default;
  /// Copies log CONTENT only: replay-verification state (see replaying())
  /// is session-internal and never travels with a copy -- result
  /// snapshots, slices and cache entries are plain logs.
  PhaseLog(const PhaseLog& other)
      : entries_(other.entries_),
        names_(other.names_),
        active_(other.active_),
        bandwidth_(other.bandwidth_),
        depth_(other.depth_) {}
  PhaseLog& operator=(const PhaseLog& other) {
    entries_ = other.entries_;
    names_ = other.names_;
    active_ = other.active_;
    bandwidth_ = other.bandwidth_;
    depth_ = other.depth_;
    replay_.reset();
    replay_cursor_ = 0;
    return *this;
  }
  PhaseLog(PhaseLog&&) = default;
  PhaseLog& operator=(PhaseLog&&) = default;

  struct Entry {
    std::uint32_t name_off = 0;
    std::uint32_t name_len = 0;
    std::int32_t depth = 0;    // nesting level; 0 = top of the slice
    bool span = false;         // aggregate over the nested subtree
    std::int32_t rounds = 0;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    /// Activations + delivered messages (see RunStats::work_items).
    std::uint64_t work_items = 0;
    /// Widest message of the phase (spans: max over the subtree).
    std::uint32_t max_msg_words = 0;
    std::uint32_t active_off = 0;  // into the active arena (leaves only)
    std::uint32_t active_len = 0;
    std::uint32_t bw_off = 0;  // into the bandwidth arena (leaves only)
    std::uint32_t bw_len = 0;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Entry& operator[](std::size_t i) const { return entries_[i]; }

  std::string_view name(const Entry& e) const {
    return std::string_view(names_.data() + e.name_off, e.name_len);
  }
  std::string_view name(std::size_t i) const { return name(entries_[i]); }

  /// Per-round live-vertex counts of a leaf entry (empty for spans; a span's
  /// profile is the concatenation of its subtree's leaves, see stats()).
  std::span<const std::int32_t> active(const Entry& e) const {
    return std::span<const std::int32_t>(active_.data() + e.active_off,
                                         e.active_len);
  }

  /// Per-step payload-word series of a leaf entry (index 0 = begin; empty
  /// for spans -- a span's series is the concatenation of its leaves).
  std::span<const std::uint64_t> bandwidth(const Entry& e) const {
    return std::span<const std::uint64_t>(bandwidth_.data() + e.bw_off,
                                          e.bw_len);
  }

  /// Materializes entry i as a RunStats: the composition of its subtree
  /// [i, subtree_end(i)). For spans, counters are the recorded aggregate and
  /// the per-round series concatenate the subtree's leaves in execution
  /// order.
  RunStats stats(std::size_t i) const;

  /// Index one past the end of entry i's subtree (i + 1 for leaves).
  std::size_t subtree_end(std::size_t i) const;

  /// Peak per-round live-vertex count of entry i (spans: max over the
  /// subtree's leaves). 0 for phases with no communication rounds. This is
  /// the `peak_live` field benches emit so live-set sizes are auditable
  /// from bench artifacts alone.
  std::int32_t peak_active(std::size_t i) const;

  /// Sequential composition of entries [first, size()) at their base depth
  /// (entries[first].depth, the rule slice() uses): counters sum over the
  /// base-depth entries -- spans aggregate their subtrees -- and the
  /// per-round series concatenate every leaf in execution order. Empty for
  /// an empty range. This is the one place run accounting is composed: a
  /// composite driver takes a mark (size()) on entry and reads its result's
  /// RunStats as total(mark) on exit. A driver inside its own span takes
  /// the mark after opening it, since an open span's counters are folded
  /// only when it closes.
  RunStats total(std::size_t first = 0) const;

  /// Copy of entries [first, size()) rebased to depth 0. Drivers snapshot
  /// their slice of a shared session log into their result structs.
  PhaseLog slice(std::size_t first) const;

  /// Pre-sizes the arenas so that recording stays allocation-free until the
  /// reserve is exceeded.
  void reserve(std::size_t entries, std::size_t name_bytes,
               std::size_t active_words, std::size_t bandwidth_words);

  /// Forgets all entries but keeps arena capacity (warm reuse).
  void clear();

  /// Opens an aggregate span at the current depth; subsequent entries nest
  /// under it until close_span. Returns the span's entry index.
  std::size_t open_span(std::string_view name);
  /// Closes the span, folding its direct children into its counters.
  void close_span(std::size_t idx);

  /// Appends a leaf entry at the current depth.
  void record(std::string_view name, const RunStats& stats);

  /// Replay verification (checkpoint resume, see Runtime::resume): the log
  /// starts EMPTY and re-fills normally as phases re-execute, but every
  /// appended entry is additionally matched against the restored target log
  /// at a cursor -- any divergence (name, counters, or per-round series)
  /// throws invariant_error, so a resumed run that would not be bit-
  /// identical to the original fails loudly instead of silently. The
  /// restored entries are held aside (never visible through size()/
  /// operator[]), so drivers that slice the log from a recorded mark keep
  /// working. Replay ends when the cursor exhausts the target.
  bool replaying() const { return replay_ != nullptr; }

  /// Semantic comparison (names + counters + series via the public
  /// accessors): entries_/names_/active_/bandwidth_/depth_, ignoring any
  /// replay-verification state. Written out manually because the replay
  /// members make the defaulted memberwise comparison both ill-formed
  /// (unique_ptr) and wrong (replay state is not log content).
  friend bool operator==(const PhaseLog& a, const PhaseLog& b) {
    return a.entries_ == b.entries_ && a.names_ == b.names_ &&
           a.active_ == b.active_ && a.bandwidth_ == b.bandwidth_ &&
           a.depth_ == b.depth_;
  }

 private:
  friend class Runtime;  // checkpoint serialization + replay installation

  std::uint32_t intern(std::string_view name);
  /// Composition of entries [first, end) at base depth entries[first].depth
  /// (see total()).
  RunStats compose(std::size_t first, std::size_t end) const;
  /// Installs `target` as the replay-verification target (requires empty()).
  void begin_replay(PhaseLog target);
  /// Match an incoming leaf/span against the replay target at the cursor
  /// BEFORE it is appended; throws invariant_error on divergence. Spans are
  /// verified on name/depth/shape only -- their counters are a pure fold of
  /// their (verified) leaves.
  void verify_replay_leaf(std::string_view name, const RunStats& stats);
  void verify_replay_span(std::string_view name);
  void advance_replay();

  std::vector<Entry> entries_;
  std::vector<char> names_;
  std::vector<std::int32_t> active_;
  std::vector<std::uint64_t> bandwidth_;
  std::int32_t depth_ = 0;
  /// Checkpoint-replay target and cursor (null/0 when not replaying).
  std::unique_ptr<PhaseLog> replay_;
  std::size_t replay_cursor_ = 0;
};

/// One received message: the port it arrived on and its payload words.
/// The data span points into the runtime's arena and is valid only for the
/// duration of the step() call that receives it.
struct MsgView {
  int port;
  std::span<const std::int64_t> data;
};

/// The messages a vertex received at the start of the current round,
/// ordered by arrival port.
class Inbox {
 public:
  std::size_t size() const { return msgs_.size(); }
  bool empty() const { return msgs_.empty(); }
  const MsgView& operator[](std::size_t i) const { return msgs_[i]; }
  auto begin() const { return msgs_.begin(); }
  auto end() const { return msgs_.end(); }

 private:
  friend class Runtime;
  friend struct ReferenceAccess;
  std::vector<MsgView> msgs_;
};

class Runtime;

/// Per-vertex API handed to VertexProgram callbacks.
class Ctx {
 public:
  V vertex() const { return v_; }
  /// Unique identity in {1..n} as assumed by the paper.
  std::int64_t id() const { return v_ + 1; }
  int degree() const;
  int round() const;

  /// Sends `payload` to the neighbor on `port`. Zero-copy into the mailbox
  /// arena: the words are copied once, directly into the receiver's inbox
  /// cell. At most one send per port per round.
  void send(int port, std::span<const std::int64_t> payload);
  /// Fixed-word fast path: `ctx.send(p, {a, b, c})` stages the words on the
  /// caller's stack, no heap traffic.
  void send(int port, std::initializer_list<std::int64_t> payload) {
    send(port, std::span<const std::int64_t>(payload.begin(), payload.size()));
  }
  /// Sends `payload` on every port. The words are copied once and the
  /// vertex's one broadcast cell points at them (see Runtime::Arena); the
  /// result (inboxes, RunStats, errors) equals send(p, payload) for
  /// p = 0..degree()-1 in ascending order. A bandwidth violation names
  /// port 0; a port already used this round throws invariant_error; degree
  /// 0 sends nothing.
  void broadcast(std::span<const std::int64_t> payload);
  void broadcast(std::initializer_list<std::int64_t> payload) {
    broadcast(std::span<const std::int64_t>(payload.begin(), payload.size()));
  }
  void halt();

  /// Sleep hint (see DESIGN.md, "Sleeping vertices"): promises that step()
  /// of this vertex on an EMPTY inbox in any round before `round` changes
  /// nothing and sends nothing. The runtime may then skip the vertex --
  /// no port scan, no step() call -- until a message reaches it or `round`
  /// arrives; it still counts as live and its skipped activation still
  /// counts as one work item, so RunStats are unchanged. kOnMail wakes on
  /// mail only. A sleep lasts until the vertex's next step() (which may
  /// renew it). Honoured only in phases whose program declares
  /// VertexProgram::sleeps(); ignored otherwise and by the reference
  /// executor, which is what makes the identity suites check each sleep.
  void sleep_until(int round);
  static constexpr int kOnMail = std::numeric_limits<int>::max();

  /// Runtime-owned scratch buffer (cleared by nobody: callers .clear() it).
  /// One instance per executor shard, so programs that need transient
  /// per-step workspace stay allocation-free AND race-free under sharded
  /// execution. `which` selects one of kNumScratch independent buffers.
  std::vector<std::int64_t>& scratch(int which = 0);

  static constexpr int kNumScratch = 2;

 private:
  friend class Runtime;
  friend struct ReferenceAccess;
  Ctx(Runtime& rt, int shard, V v) : rt_(&rt), shard_(shard), v_(v) {}
  Runtime* rt_;
  int shard_;
  V v_;
};

class VertexProgram {
 public:
  virtual ~VertexProgram() = default;
  virtual std::string name() const = 0;
  virtual void begin(Ctx& ctx) { (void)ctx; }
  virtual void step(Ctx& ctx, const Inbox& inbox) = 0;

  /// CONGEST contract: the worst-case payload width, in words, of any
  /// message this program ever sends (each word carries one O(log n)-bit
  /// quantity -- an id, color, level or key -- so a constant here means the
  /// program is a CONGEST algorithm). 0 = undeclared: no program-side cap,
  /// i.e. the LOCAL model. When positive the runtime enforces it on every
  /// send; a wider payload raises bandwidth_error, making the declared
  /// contract mechanically checked on every run.
  virtual int max_words() const { return 0; }

  /// Sleep contract: true iff the program may call Ctx::sleep_until. Only
  /// such phases pay the per-message mail stamp that wakes a sleeper; the
  /// stamp is one extra store per message, which the dense phases (every
  /// vertex stepping every round) must not be charged for.
  virtual bool sleeps() const { return false; }

  /// Distribution contract (see src/dist/): a dist-capable program promises
  /// that begin(v)/step(v) mutate only v-owned state -- per-vertex or
  /// per-v's-slot entries, including driver-owned arrays reached through
  /// pointers -- which is exactly the race-freedom contract sharded
  /// execution already demands. Under that promise a worker process that
  /// owns v's shard computes v's state correctly in isolation, and
  /// save/load_vertex_state below ship it back to the coordinator at the
  /// phase boundary. Programs that do not opt in run their phases locally
  /// on the coordinator (still bit-identical, just not distributed).
  virtual bool dist_capable() const { return false; }
  /// Serializes every per-vertex mutable of `v` (in a fixed order) into `w`.
  virtual void save_vertex_state(V v, wire::ByteWriter& w) const {
    (void)v;
    (void)w;
  }
  /// Inverse of save_vertex_state: overwrites v's mutables from `r`. Must
  /// consume exactly the bytes save_vertex_state wrote.
  virtual void load_vertex_state(V v, wire::ByteReader& r) {
    (void)v;
    (void)r;
  }
};

class Runtime;

/// Seam between the round loop and the distributed transport (src/dist/),
/// also used by the tests-only reference executor (ReferenceAccess):
/// run_phase_body offers each phase to the installed executor; an accepting
/// executor replaces the two shard-pool dispatches (begin sweep, step
/// sweeps) with its own -- worker processes sweeping their shard partitions
/// and exchanging arena words over the wire -- while the coordinator's own
/// merge/stats/PhaseLog machinery runs unchanged. Bit-identity of a
/// distributed phase is therefore structural: the executor's only output
/// channel is the same per-shard counters and arena cells an in-process
/// sweep fills.
class PhaseExecutor {
 public:
  virtual ~PhaseExecutor() = default;
  /// Offered a phase AFTER the per-phase reset (halted/live/round/arena
  /// state is at its canonical phase-start value -- everything a forked
  /// worker must inherit). Return false to decline: the runtime runs the
  /// phase on its own shards. fault-armed phases are never offered.
  virtual bool begin_phase(Runtime& rt, VertexProgram& program) = 0;
  /// Replaces dispatch(kBegin/kStep): on return, shards_[i] counters must
  /// hold the sweep's per-shard deltas (merge_shards folds and resets them)
  /// and the out-arena cells owned by this runtime must reflect every
  /// message addressed to them.
  virtual void run_sweep(Runtime& rt, bool is_begin) = 0;
  /// Phase teardown. success=true: all rounds completed -- write program
  /// state back and release workers (may throw; a throw is followed by a
  /// success=false call, which must be idempotent). success=false: the
  /// phase is unwinding -- kill/reap workers, never throw.
  virtual void end_phase(Runtime& rt, VertexProgram& program,
                         bool success) = 0;
};

/// Persistent simulation session bound to one graph. Construction allocates
/// the mailbox arenas and spawns the shard worker pool once; every
/// run_phase() call afterwards reuses them, so phases after the first (of a
/// given shape) allocate nothing and no phase boundary ever spawns a
/// thread. All completed phases are appended to the session PhaseLog.
class Runtime {
 public:
  /// `shards` <= 0 means 1 shard; shard counts above n are clamped. Any
  /// shard count yields bit-identical RunStats and program outputs.
  /// `inline_shards` keeps the same shard decomposition but spawns NO
  /// worker threads: multi-shard sweeps run sequentially on the calling
  /// thread (bit-identical, per the shard-determinism contract). Required
  /// for sessions that will host the distributed transport -- its
  /// fork()-based backend must not fork a multithreaded process.
  explicit Runtime(const Graph& g, int shards = 0, bool inline_shards = false);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs the program to completion (all vertices halted), records a leaf
  /// entry labelled `label` in the session log, and returns the phase's
  /// stats (valid until the next run_phase call). Throws invariant_error if
  /// max_rounds is exceeded -- which the library treats as "the algorithm's
  /// structural assumption was violated" (e.g. an arboricity bound below
  /// the true arboricity).
  const RunStats& run_phase(VertexProgram& program, int max_rounds,
                            std::string_view label);
  /// Convenience: labels the phase with program.name().
  const RunStats& run_phase(VertexProgram& program, int max_rounds);

  const Graph& graph() const { return *g_; }
  int shards() const { return num_shards_; }

  /// Session-level CONGEST budget: maximum payload width (words) of any
  /// single message, enforced on subsequent run_phase calls. 0 = unlimited
  /// (the LOCAL model; the default). A send wider than the budget -- or
  /// wider than the running program's own max_words() contract, whichever
  /// is tighter -- raises bandwidth_error identifying vertex/port/round.
  void set_congest_words(int words) { congest_words_ = words < 0 ? 0 : words; }
  int congest_words() const { return congest_words_; }

  PhaseLog& log() { return log_; }
  const PhaseLog& log() const { return log_; }
  /// Forgets recorded phases but keeps log arena capacity (warm reuse
  /// across pipeline repetitions, e.g. batched runs). Also restarts the
  /// phase counter, so fault-plan phase indices and phase-label context
  /// describe positions in the CURRENT pipeline -- a warm pooled session
  /// behaves exactly like a fresh one (the bit-identity contract).
  void reset_log() {
    log_.clear();
    phase_index_ = 0;
    phase_cur_ = 0;
    phase_label_.clear();
  }

  /// Called after every completed round (post stats merge) with the round
  /// number; used by tests to probe per-round behaviour such as allocation
  /// counts. Pass nullptr to clear.
  void set_round_observer(std::function<void(int)> observer) {
    observer_ = std::move(observer);
  }

  /// Per-session interrupt hook, polled at every PHASE boundary -- the top
  /// of run_phase, before any phase state is touched. The hook aborts the
  /// pipeline by THROWING; the exception propagates out of run_phase and the
  /// session stays structurally sound and reusable, exactly as after a
  /// program error (the service layer points the hook at a job's
  /// cancellation token and deadline, so a cancelled or expired multi-phase
  /// pipeline is abandoned between phases and its session returns to the
  /// pool). Never polled mid-round: a phase that starts always runs to
  /// completion, so the hook cannot perturb the determinism of any recorded
  /// phase. Pass nullptr to clear; sessions handed across jobs must clear it
  /// (see ScopedInterrupt).
  void set_interrupt(std::function<void()> hook) { interrupt_ = std::move(hook); }
  bool has_interrupt() const { return static_cast<bool>(interrupt_); }

  /// Installs a deterministic fault schedule for subsequent run_phase calls
  /// (see sim/fault.hpp). Faults reproduce bit-identically: every decision
  /// is a pure hash of (seed, salt, kind, phase, round, shard), and the
  /// message-level kinds (drops, corruptions) pick victims by canonical
  /// slot id so the same plan injects the same fault at any shard count.
  /// A drop un-sends a message by rewinding its slot's epoch stamp, which
  /// the port-scan delivery re-reads; the receiver's mail stamp stays, so a
  /// sleeping receiver wakes to an empty inbox (a no-op by the sleep
  /// contract). Pass a default-constructed plan to
  /// clear; sessions handed across jobs must clear it (see ScopedFaultPlan).
  void set_fault_plan(FaultPlan plan) {
    fault_plan_ = std::move(plan);
    fault_armed_ = fault_plan_.armed();
  }
  const FaultPlan& fault_plan() const { return fault_plan_; }

  /// Installs (or clears, with nullptr) the phase executor offered every
  /// subsequent run_phase (see PhaseExecutor). Only valid on a session
  /// built with inline_shards = true: the fork backend must never fork a
  /// process carrying parked shard threads, and the loopback backend
  /// matches fork bit-for-bit only when both sweep the shards on one
  /// thread. The executor is borrowed, not owned; it must outlive its
  /// installation.
  void set_phase_executor(PhaseExecutor* exec) {
    DVC_REQUIRE(exec == nullptr || threads_.empty(),
                "set_phase_executor requires an inline-shards session "
                "(Runtime(g, shards, /*inline_shards=*/true)): the fork "
                "transport cannot fork a session with parked shard threads");
    phase_executor_ = exec;
  }
  PhaseExecutor* phase_executor() const { return phase_executor_; }
  /// Count of faults this session has injected (all kinds, all phases).
  std::uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }

  /// Arms the progress watchdog: if `rounds` > 0 and that many CONSECUTIVE
  /// rounds complete in which no vertex halts and no message is sent, the
  /// phase throws watchdog_error -- converting a runaway program (burning
  /// rounds toward the round cap without any progress signal) into a prompt
  /// structural failure. 0 disables (the default). Deterministic: the
  /// trigger depends only on per-round halt/message counts.
  void set_watchdog_idle_rounds(int rounds) {
    watchdog_idle_rounds_ = rounds < 0 ? 0 : rounds;
  }
  int watchdog_idle_rounds() const { return watchdog_idle_rounds_; }

  /// Label of the most recently started phase (empty before the first
  /// run_phase). Survives a throwing phase, so error handlers can report
  /// which phase of a pipeline failed without parsing messages.
  std::string_view last_phase() const { return phase_label_; }
  /// Number of run_phase calls started on this session (the phase index
  /// fault plans key on: the next phase to run has index phases_run()).
  int phases_run() const { return phase_index_; }

  /// Serializes the session's phase-boundary state -- graph binding
  /// fingerprint, CONGEST budget, halted/live state, epoch stamp base, and
  /// the full PhaseLog -- into a flat byte buffer with a trailing content
  /// checksum. Only meaningful AT a phase boundary (which
  /// is the only place callers can run: run_phase is synchronous), e.g.
  /// from the interrupt hook or after catching a phase error. Requires
  /// that the session is not itself mid-replay of an earlier resume.
  std::vector<std::uint8_t> checkpoint() const;

  /// Restores a checkpoint()'d buffer into this session and arms replay
  /// verification: the phases already recorded in the checkpoint are
  /// re-executed by the caller (resume restores boundary state, then the
  /// caller re-runs its pipeline from the top) and every re-recorded phase
  /// is verified bit-identical -- name, counters and per-round series --
  /// against the checkpoint as it lands, throwing invariant_error on the
  /// first divergence. The session must be freshly constructed or
  /// reset_log()'d for the same graph (digest-checked). Throws
  /// precondition_error on a foreign/incompatible buffer and
  /// corruption_error on a checksum mismatch.
  void resume(std::span<const std::uint8_t> buffer);

  /// Worker threads owned by this session (== shards() - 1; spawned once at
  /// construction, parked between phases).
  int pool_threads() const { return static_cast<int>(threads_.size()); }
  /// Process-wide count of shard worker threads ever spawned. Regression
  /// hook: a full preset pipeline on one Runtime must not move it.
  static std::uint64_t lifetime_threads_spawned();

  /// True while the calling thread executes runtime machinery (the round
  /// loop, delivery sweeps, send/halt bookkeeping, log recording) as
  /// opposed to program callbacks. Allocation-regression tests hook
  /// operator new and count only allocations made with this flag set.
  static bool in_machinery();

  /// Heap bytes of all session state, split the way the per-slot budget in
  /// DESIGN.md ("Memory layout & giant graphs") is drawn up: the
  /// slot-indexed steady state (arenas + per-shard workspaces + per-vertex
  /// bookkeeping) is bounded per slot independent of traffic, while
  /// payload_bytes is the high-water capacity of the double-buffered
  /// message-word buffers -- proportional to the widest round's traffic:
  /// up to 2 x congest_words x 8 bytes per sending vertex for broadcasts,
  /// per slot only for per-port sends.
  struct MemoryBreakdown {
    std::uint64_t arena_bytes = 0;    ///< epoch/off/len, both arenas (exact)
    std::uint64_t payload_bytes = 0;  ///< message words, both arenas
    std::uint64_t index_bytes = 0;    ///< live lists, scratch, inboxes
    std::uint64_t vertex_bytes = 0;   ///< halted, wake, mail, cells, unicast
    std::uint64_t total() const {
      return arena_bytes + payload_bytes + index_bytes + vertex_bytes;
    }
    /// Everything except the traffic-proportional payload high-water.
    std::uint64_t steady_bytes() const { return total() - payload_bytes; }
  };
  MemoryBreakdown memory_breakdown() const;

  /// Heap bytes of all session state (mailbox arenas, payload buffers,
  /// per-shard workspaces, halted/live bookkeeping), by
  /// capacity. Together with Graph::memory_bytes() this is the number the
  /// scale benches divide by num_slots() for the bytes-per-slot budget.
  std::uint64_t memory_bytes() const { return memory_breakdown().total(); }

 private:
  friend class Ctx;
  /// The distributed transport's window into the session (src/dist/dist.cpp
  /// defines it): one named seam instead of a scatter of accessors for
  /// state only the transport may touch (arenas, shard counters, halted
  /// bitmap, epoch stamps).
  friend struct dvc::dist::RuntimeAccess;
  friend struct ReferenceAccess;

  /// What a dispatched sweep runs on each shard. kInit is issued once, from
  /// the constructor: every shard default-initializes ITS OWN slice of the
  /// slot-indexed arena arrays, so on NUMA machines the backing pages
  /// are first touched -- hence placed -- by the thread that will use them.
  /// (The arrays are allocated with make_unique_for_overwrite precisely so
  /// the allocating main thread does not fault the pages in first.)
  enum class Job { kInit, kBegin, kStep };

  /// A message cell: the session round (stamp_base_ + round_) that last
  /// wrote it, and where its payload sits in the sending shard's buffer.
  struct Cell {
    std::int32_t stamp;
    std::uint32_t off;
    std::uint32_t len;
  };

  /// One direction of the double buffer. A message reaches its receiver
  /// through one of two kinds of cell:
  ///   * the sender's BROADCAST cell `cell[from]`: a whole-row send outside
  ///     a fault-armed phase writes only this one cell, and the receiver's
  ///     port scan finds it at cell[neighbor(v, p)];
  ///   * the receiver's PER-EDGE cell, slot s (a directed edge endpoint):
  ///     `epoch[s]` stamps the round that last wrote it. Written by
  ///     Ctx::send and by every send of a fault-armed phase (so a drop or a
  ///     corruption hits exactly one message).
  /// A dist worker receives each kind as it was written: a relayed
  /// broadcast lands in the sender's cell, a relayed per-slot entry in the
  /// receiver's per-edge cell.
  /// Either way a cell holds at most one message per round, and stamps
  /// increase monotonically across phases, so stale cells are skipped
  /// without any per-round or per-PHASE clear: a warm phase start is O(n),
  /// not O(slots). Payload words live in flat per-shard buffers
  /// (`words[shard]`) to keep concurrent appends race-free; off/len locate
  /// a payload inside the sending shard's buffer. Several slots' off/len
  /// may alias one payload (a fault-armed broadcast writes its words once
  /// for all of the sender's mirror slots), so arena payloads are
  /// immutable once written; the only writer is the fault injector, which
  /// copies a victim's words to a fresh tail of the buffer before it
  /// corrupts them (copy on write).
  struct Arena {
    /// Slot-indexed arrays (12 bytes per slot): raw first-touch-initialized
    /// buffers, not vectors, so page placement follows the kInit job (see
    /// Job) instead of the constructing thread.
    std::unique_ptr<std::int32_t[]> epoch;
    std::unique_ptr<std::uint32_t[]> off;
    std::unique_ptr<std::uint32_t[]> len;
    /// Vertex-indexed broadcast cells (12 bytes per vertex), written only
    /// by the sender's own shard.
    std::unique_ptr<Cell[]> cell;
    /// Vertex-indexed mail stamp: the session round that last wrote ANY of
    /// the vertex's inbox slots. Written only in sleeping phases (see
    /// VertexProgram::sleeps), read only to wake a sleeper; shares the
    /// epoch's monotone stamps, double buffer and wrap reset.
    std::unique_ptr<std::int32_t[]> mail;
    std::vector<std::vector<std::int64_t>> words;  // one per shard
  };

  /// Mutable per-shard executor state. Everything a concurrent shard writes
  /// lives here (or in cells of the out-arena owned by this shard's
  /// vertices), so the round loop needs no locks.
  struct Shard {
    V first = 0, last = 0;  // vertex range [first, last)
    /// Slot range of the shard's vertices (contiguous because the vertex
    /// range is): the slice of the arena arrays this shard first-touches.
    std::int64_t slot_lo = 0, slot_hi = 0;
    Inbox inbox;
    std::array<std::vector<std::int64_t>, Ctx::kNumScratch> scratch;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    std::uint64_t work_items = 0;
    std::uint32_t max_msg_words = 0;
    V newly_halted = 0;
    std::exception_ptr error;
    /// Checksum-lane accumulators (fault plans with checksum only): what
    /// this shard SENT this round, folded order-independently (count sums,
    /// slot/word hashes XOR) so the cross-shard total is shard-count
    /// invariant. Snapshotted and reset by the round loop before faults are
    /// injected, then compared against what delivery OBSERVES.
    std::uint64_t lane_count = 0;
    std::uint64_t lane_xor_slots = 0;
    std::uint64_t lane_xor_words = 0;
    /// Set when this shard's sweep wrote a per-edge cell; merge_shards folds
    /// it into edge_mail_.
    bool wrote_edges = false;
    /// The shard's non-halted vertices in ascending (canonical) order.
    /// Rebuilt after begin(), then compacted in place
    /// during each step sweep -- a vertex can only halt itself, so the
    /// sweep that runs step(v) also decides v's survival. Never re-derived
    /// from the halted flags between rounds.
    std::vector<V> live;
  };

  int shard_of(V v) const { return static_cast<int>(v / chunk_); }
  /// First-touch initialization of the shard's slices of the slot-indexed
  /// arena arrays (Job::kInit).
  void init_shard(int shard);
  /// The one send path: `payload` to ports [first, first + count) of
  /// `from`. Ctx::send is count 1, Ctx::broadcast the whole row. Port, cap
  /// and offset checks, the payload copy and the message counters run once
  /// per call. A whole-row send outside a fault-armed phase then writes
  /// only the sender's broadcast cell; any other send stamps each slot's
  /// per-edge cell. The one-message-per-edge rule stays O(1) per call: a
  /// broadcast checks the sender's cell and unicast stamp, a per-port send
  /// the sender's cell and then each slot's epoch. The port loop runs only
  /// for per-edge cells and per-receiver work: a sleeping phase's mail
  /// stamps, the checksum lane and the dist capture of remote per-edge
  /// cells. A capturing broadcast records only its sender, once.
  void send_ports(int shard, V from, int first, int count,
                  std::span<const std::int64_t> payload);
  void do_halt(int shard, V v);
  /// Runs begin() (round 0) or step() for every live vertex of one shard.
  void run_shard_phase(int shard, VertexProgram& program, bool is_begin);
  /// Step sweep over the shard's live list: each live vertex's inbox is the
  /// epoch-fresh cells of its own ports, in port order, and the list is
  /// compacted in place as vertices halt.
  void sparse_step(int shard, VertexProgram& program);
  /// Folds per-shard counters into stats_/live_ (serial, canonical order)
  /// and rethrows the first shard error.
  void merge_shards();
  /// Dispatches one job (init/begin/step sweep) across the parked pool (or
  /// runs it inline when single-sharded).
  void dispatch(Job job);
  /// Everything of run_phase after the label/index bookkeeping; split out so
  /// run_phase can wrap it and annotate escaping invariant_errors with the
  /// phase label.
  const RunStats& run_phase_body(VertexProgram& program, int max_rounds,
                                 std::string_view label);
  /// Fault-plan hooks (no-ops unless a plan is armed). inject_shard_faults
  /// runs at sweep entry on the shard's own thread; the message-fault pair
  /// runs serially in the round loop: snapshot_send_lane folds the shards'
  /// send accumulators into lane_expected_ and applies scheduled/random
  /// drops and corruptions to the freshly-written out arena;
  /// verify_delivery_checksum re-derives the lane from the in arena at the
  /// next delivery boundary and throws corruption_error on mismatch.
  void inject_shard_faults(int shard, int round);
  void snapshot_send_lane_and_inject(int delivery_round);
  void verify_delivery_checksum();
  /// Order-independent fold of one slot's payload for the checksum lane.
  std::uint64_t lane_hash_slot(const Arena& a, std::int64_t s) const;

  const Graph* g_;
  int num_shards_ = 1;
  V chunk_ = 1;
  /// Cached g_->num_slots(): sizes the raw arena arrays (which, unlike
  /// vectors, do not carry their own length).
  std::int64_t slots_ = 0;
  std::vector<Shard> shards_;
  Arena arenas_[2];
  int in_idx_ = 0;  // arenas_[in_idx_] feeds this round's inboxes
  std::vector<std::uint8_t> halted_;
  /// Per-vertex sleep: v is asleep while round_ < wake_[v] (0 = awake).
  /// Reset at the start of every sleeping phase and before every step;
  /// written only by v's own shard.
  std::vector<std::int32_t> wake_;
  /// program.sleeps() of the running phase: gates the mail stamp, the
  /// sleep check in sparse_step and Ctx::sleep_until.
  bool phase_sleeps_ = false;
  /// Per-vertex unicast stamp: the session round in which v last wrote
  /// per-edge cells, so a later broadcast in that round is caught without
  /// a port scan. Written only by v's own shard.
  std::unique_ptr<std::int32_t[]> unicast_;
  /// True when the sweep that filled the in arena wrote any per-edge cell:
  /// only then does sparse_step read a slot's epoch before the sender's
  /// broadcast cell. Folded by merge_shards from Shard::wrote_edges.
  bool edge_mail_ = false;
  V live_ = 0;
  int round_ = 0;
  /// Session-round base of the current phase: epoch stamps are
  /// stamp_base_ + round_. Advanced past every stamp the finished phase
  /// wrote; wraps (with a full epoch reset) long before int32 overflow.
  std::int32_t stamp_base_ = 0;
  RunStats stats_;
  PhaseLog log_;
  std::function<void(int)> observer_;
  std::function<void()> interrupt_;
  /// Fault-injection state (see sim/fault.hpp). phase_cur_ is the index of
  /// the phase currently executing (the value phase_index_ had when it
  /// started); phase_label_ its label, kept after the phase ends so error
  /// paths can attribute failures.
  FaultPlan fault_plan_;
  bool fault_armed_ = false;
  std::atomic<std::uint64_t> faults_injected_{0};
  int phase_index_ = 0;
  int phase_cur_ = 0;
  std::string phase_label_;
  /// Progress watchdog (0 = off) and its consecutive-idle-round counter.
  int watchdog_idle_rounds_ = 0;
  int idle_rounds_ = 0;
  /// Expected delivery lane of the in-flight round (what was sent, folded
  /// before injection); valid only while lane_valid_.
  std::uint64_t lane_count_ = 0;
  std::uint64_t lane_xor_slots_ = 0;
  std::uint64_t lane_xor_words_ = 0;
  bool lane_valid_ = false;
  /// Session CONGEST budget (0 = LOCAL) and the per-phase effective
  /// per-message cap derived from it and the program contract: the
  /// tighter of the two positives, or int64 max when both are 0.
  int congest_words_ = 0;
  int phase_contract_words_ = 0;
  std::int64_t msg_word_cap_ = 0;
  /// Distributed-phase seam state. The executor (borrowed; see
  /// set_phase_executor) is offered every phase. While a worker process
  /// sweeps on behalf of the transport, dist_capture_ makes send_ports also
  /// record, per sending shard, what must cross the wire, in the form the
  /// runtime keeps it: in dist_broadcasts_ each broadcasting vertex with a
  /// neighbor outside the worker's vertex range [dist_vtx_lo_,
  /// dist_vtx_hi_) -- its one cell is shipped once per destination worker
  /// -- and in dist_captured_ each per-edge slot outside the worker's slot
  /// range [dist_slot_lo_, dist_slot_hi_).
  PhaseExecutor* phase_executor_ = nullptr;
  bool dist_capture_ = false;
  std::int64_t dist_slot_lo_ = 0, dist_slot_hi_ = 0;
  V dist_vtx_lo_ = 0, dist_vtx_hi_ = 0;
  std::vector<std::vector<std::int64_t>> dist_captured_;
  std::vector<std::vector<V>> dist_broadcasts_;

  // Parked worker pool: spawned once in the constructor, woken per
  // begin/step sweep, joined in the destructor.
  std::mutex mutex_;
  std::condition_variable start_cv_, done_cv_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  Job job_ = Job::kInit;
  bool stopping_ = false;
  VertexProgram* program_ = nullptr;
  std::vector<std::thread> threads_;
};

/// RAII aggregate span in a session log: drivers wrap composed procedures
/// so the PhaseLog shows them as one named subtree.
class PhaseSpan {
 public:
  PhaseSpan(Runtime& rt, std::string_view name)
      : log_(&rt.log()), idx_(log_->open_span(name)) {}
  PhaseSpan(PhaseLog& log, std::string_view name)
      : log_(&log), idx_(log.open_span(name)) {}
  ~PhaseSpan() { log_->close_span(idx_); }
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  PhaseLog* log_;
  std::size_t idx_;
};

/// Scoped install of a session's phase-boundary interrupt hook, cleared on
/// destruction (including unwinding out of the hook's own throw) -- so a
/// pooled session handed to the next job can never inherit the previous
/// job's cancellation token or deadline.
class ScopedInterrupt {
 public:
  ScopedInterrupt(Runtime& rt, std::function<void()> hook) : rt_(&rt) {
    rt_->set_interrupt(std::move(hook));
  }
  ~ScopedInterrupt() { rt_->set_interrupt(nullptr); }
  ScopedInterrupt(const ScopedInterrupt&) = delete;
  ScopedInterrupt& operator=(const ScopedInterrupt&) = delete;

 private:
  Runtime* rt_;
};

/// Scoped override of a session's CONGEST word budget; `words` <= 0 leaves
/// the current budget untouched (no-op guard). Restores on destruction, so
/// drivers can impose a model for their pipeline without mutating a
/// caller-provided session permanently.
class ScopedCongestWords {
 public:
  ScopedCongestWords(Runtime& rt, int words)
      : rt_(&rt), previous_(rt.congest_words()), active_(words > 0) {
    if (active_) rt_->set_congest_words(words);
  }
  ~ScopedCongestWords() {
    if (active_) rt_->set_congest_words(previous_);
  }
  ScopedCongestWords(const ScopedCongestWords&) = delete;
  ScopedCongestWords& operator=(const ScopedCongestWords&) = delete;

 private:
  Runtime* rt_;
  int previous_;
  bool active_;
};

/// Scoped install of a session's fault plan, restoring the previous plan on
/// destruction (including unwinding out of an injected fault) -- so a
/// pooled session handed to the next job can never inherit the previous
/// job's fault schedule. An unarmed plan makes the guard a no-op. This is
/// the one way a direct caller runs a pipeline under a plan: install it on
/// the session the caller owns, then call color_graph(rt, ...).
class ScopedFaultPlan {
 public:
  ScopedFaultPlan(Runtime& rt, FaultPlan plan)
      : rt_(&rt), active_(plan.armed()) {
    if (active_) {
      previous_ = rt_->fault_plan();
      rt_->set_fault_plan(std::move(plan));
    }
  }
  ~ScopedFaultPlan() {
    if (active_) rt_->set_fault_plan(std::move(previous_));
  }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  Runtime* rt_;
  FaultPlan previous_;
  bool active_;
};

/// Scoped arm of a session's progress watchdog; `rounds` <= 0 leaves the
/// current setting untouched (no-op guard). Restores on destruction.
class ScopedWatchdog {
 public:
  ScopedWatchdog(Runtime& rt, int rounds)
      : rt_(&rt), previous_(rt.watchdog_idle_rounds()), active_(rounds > 0) {
    if (active_) rt_->set_watchdog_idle_rounds(rounds);
  }
  ~ScopedWatchdog() {
    if (active_) rt_->set_watchdog_idle_rounds(previous_);
  }
  ScopedWatchdog(const ScopedWatchdog&) = delete;
  ScopedWatchdog& operator=(const ScopedWatchdog&) = delete;

 private:
  Runtime* rt_;
  int previous_;
  bool active_;
};

}  // namespace dvc::sim
