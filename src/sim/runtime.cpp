#include "sim/runtime.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>

#include "common/check.hpp"
#include "common/math.hpp"
#include "common/wire.hpp"

namespace dvc::sim {
namespace {

std::atomic<std::uint64_t> g_threads_spawned{0};

/// Seed of the per-round XOR checksum lane (see Runtime::send_ports /
/// verify_delivery_checksum): slot identities and payload words are folded
/// through digest_mix under this seed on the send path, XOR-combined across
/// shards (order-independent, hence shard-count invariant), and re-derived
/// from the arena at the delivery boundary.
constexpr std::uint64_t kLaneSeed = 0x64766c616e65ULL;  // "dvlane"

/// Order-dependent fold of one message's payload words. A broadcast folds
/// its shared payload once and binds the fold to each slot separately.
std::uint64_t lane_payload_fold(std::span<const std::int64_t> words) {
  std::uint64_t h = kLaneSeed;
  for (const std::int64_t w : words) {
    h = dvc::detail::digest_mix(h, std::bit_cast<std::uint64_t>(w));
  }
  return h;
}

/// A payload fold bound to its slot. XORing these per-slot hashes across
/// all fresh slots yields the round's word checksum: any dropped slot or
/// flipped payload bit changes it.
std::uint64_t lane_slot_hash(std::int64_t slot, std::uint64_t payload_fold) {
  return dvc::detail::digest_mix(payload_fold, static_cast<std::uint64_t>(slot));
}

// Checkpoint buffer format (see Runtime::checkpoint): little-endian fields,
// magic + version header, graph fingerprint, boundary state, the serialized
// PhaseLog, and a trailing word-wise fold checksum. The byte-level
// encode/decode/checksum idioms live in common/wire.hpp, shared with the
// distributed transport's frame protocol.
constexpr std::uint64_t kCkptMagic = 0x647663434b505431ULL;  // "dvcCKPT1"
constexpr std::uint32_t kCkptVersion = 2;

std::uint64_t ckpt_checksum(std::span<const std::uint8_t> bytes) {
  return dvc::wire::checksum64(kCkptMagic, bytes);
}

using ByteWriter = dvc::wire::ByteWriter;
using ByteReader = dvc::wire::ByteReader;

ByteReader ckpt_reader(std::span<const std::uint8_t> buf) {
  return ByteReader{buf, 0, "checkpoint buffer"};
}

// Depth counter (not a bool) so machinery scopes nest: the round loop is
// machinery, program callbacks are not, but Ctx::send called from a callback
// re-enters machinery.
thread_local int t_machinery_depth = 0;

struct MachineryScope {
  MachineryScope() { ++t_machinery_depth; }
  ~MachineryScope() { --t_machinery_depth; }
  MachineryScope(const MachineryScope&) = delete;
  MachineryScope& operator=(const MachineryScope&) = delete;
};

/// Inverse of MachineryScope: suspends the flag while control is inside a
/// program callback or a test observer.
struct ProgramScope {
  int saved;
  ProgramScope() : saved(t_machinery_depth) { t_machinery_depth = 0; }
  ~ProgramScope() { t_machinery_depth = saved; }
  ProgramScope(const ProgramScope&) = delete;
  ProgramScope& operator=(const ProgramScope&) = delete;
};

constexpr const char* kOneMessagePerEdge =
    "at most one message per edge-direction per round (LOCAL model)";

}  // namespace

// ---------------------------------------------------------------------------
// PhaseLog

RunStats PhaseLog::stats(std::size_t i) const {
  return compose(i, subtree_end(i));
}

std::size_t PhaseLog::subtree_end(std::size_t i) const {
  std::size_t j = i + 1;
  while (j < entries_.size() && entries_[j].depth > entries_[i].depth) ++j;
  return j;
}

std::int32_t PhaseLog::peak_active(std::size_t i) const {
  std::int32_t peak = 0;
  const std::size_t end = entries_[i].span ? subtree_end(i) : i + 1;
  for (std::size_t j = i; j < end; ++j) {
    if (entries_[j].span) continue;
    for (const std::int32_t a : active(entries_[j])) peak = std::max(peak, a);
  }
  return peak;
}

RunStats PhaseLog::total(std::size_t first) const {
  return compose(first, entries_.size());
}

RunStats PhaseLog::compose(std::size_t first, std::size_t end) const {
  RunStats out;
  if (first >= end) return out;
  const std::int32_t base = entries_[first].depth;
  for (std::size_t i = first; i < end; ++i) {
    const Entry& e = entries_[i];
    if (e.depth == base) {
      out.rounds += e.rounds;
      out.messages += e.messages;
      out.words += e.words;
      out.work_items += e.work_items;
      out.max_msg_words = std::max(out.max_msg_words, e.max_msg_words);
    }
    if (!e.span) {
      const auto a = active(e);
      out.active_per_round.insert(out.active_per_round.end(), a.begin(),
                                  a.end());
      const auto b = bandwidth(e);
      out.words_per_round.insert(out.words_per_round.end(), b.begin(),
                                 b.end());
    }
  }
  return out;
}

PhaseLog PhaseLog::slice(std::size_t first) const {
  PhaseLog out;
  if (first >= entries_.size()) return out;
  const std::int32_t base = entries_[first].depth;
  for (std::size_t i = first; i < entries_.size(); ++i) {
    Entry e = entries_[i];
    e.depth -= base;
    e.name_off = out.intern(name(entries_[i]));
    const auto a = active(entries_[i]);
    // Canonical offset 0 for empty ranges (spans, zero-round leaves) keeps
    // the defaulted operator== semantic: a log equals its slice(0).
    e.active_off =
        a.empty() ? 0 : static_cast<std::uint32_t>(out.active_.size());
    out.active_.insert(out.active_.end(), a.begin(), a.end());
    const auto b = bandwidth(entries_[i]);
    e.bw_off = b.empty() ? 0 : static_cast<std::uint32_t>(out.bandwidth_.size());
    out.bandwidth_.insert(out.bandwidth_.end(), b.begin(), b.end());
    out.entries_.push_back(e);
  }
  return out;
}

void PhaseLog::reserve(std::size_t entries, std::size_t name_bytes,
                       std::size_t active_words, std::size_t bandwidth_words) {
  entries_.reserve(entries);
  names_.reserve(name_bytes);
  active_.reserve(active_words);
  bandwidth_.reserve(bandwidth_words);
}

void PhaseLog::clear() {
  entries_.clear();
  names_.clear();
  active_.clear();
  bandwidth_.clear();
  depth_ = 0;
  // An unfinished checkpoint replay does not survive a reset: the caller is
  // abandoning the run the replay was verifying.
  replay_.reset();
  replay_cursor_ = 0;
}

void PhaseLog::begin_replay(PhaseLog target) {
  DVC_REQUIRE(entries_.empty(),
              "checkpoint replay requires an empty log (reset_log first)");
  replay_cursor_ = 0;
  if (target.empty()) {
    replay_.reset();
    return;
  }
  replay_ = std::make_unique<PhaseLog>(std::move(target));
}

void PhaseLog::advance_replay() {
  if (++replay_cursor_ >= replay_->entries_.size()) {
    // The checkpointed prefix has been fully re-verified; the rest of the
    // run is new ground.
    replay_.reset();
    replay_cursor_ = 0;
  }
}

namespace {
[[noreturn]] void replay_diverged(std::size_t index, std::string_view got_name,
                                  const std::string& what) {
  throw invariant_error(
      "checkpoint replay diverged at log entry " + std::to_string(index) +
      " ('" + std::string(got_name) + "'): " + what +
      " -- the resumed run is not bit-identical to the checkpointed run "
      "(different knobs, graph, or nondeterminism)");
}

template <typename T>
void replay_check_series(std::size_t index, std::string_view got_name,
                         const char* series, std::span<const T> want,
                         const std::vector<T>& got) {
  if (want.size() != got.size()) {
    replay_diverged(index, got_name,
                    std::string(series) + " series length " +
                        std::to_string(got.size()) + " != checkpointed " +
                        std::to_string(want.size()));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (want[i] != got[i]) {
      replay_diverged(index, got_name,
                      std::string(series) + " series diverges at step " +
                          std::to_string(i));
    }
  }
}
}  // namespace

void PhaseLog::verify_replay_leaf(std::string_view name,
                                  const RunStats& stats) {
  const PhaseLog& t = *replay_;
  const Entry& want = t.entries_[replay_cursor_];
  const std::size_t i = replay_cursor_;
  if (t.name(want) != name) {
    replay_diverged(i, name,
                    "expected phase '" + std::string(t.name(want)) + "'");
  }
  if (want.span) replay_diverged(i, name, "expected an aggregate span here");
  if (want.depth != depth_) {
    replay_diverged(i, name,
                    "nesting depth " + std::to_string(depth_) +
                        " != checkpointed " + std::to_string(want.depth));
  }
  if (want.rounds != stats.rounds || want.messages != stats.messages ||
      want.words != stats.words || want.work_items != stats.work_items ||
      want.max_msg_words != stats.max_msg_words) {
    replay_diverged(
        i, name,
        "counters (rounds/messages/words/work_items/max_msg_words) differ: "
        "got " + std::to_string(stats.rounds) + "/" +
            std::to_string(stats.messages) + "/" + std::to_string(stats.words) +
            "/" + std::to_string(stats.work_items) + "/" +
            std::to_string(stats.max_msg_words) + ", checkpoint has " +
            std::to_string(want.rounds) + "/" + std::to_string(want.messages) +
            "/" + std::to_string(want.words) + "/" +
            std::to_string(want.work_items) + "/" +
            std::to_string(want.max_msg_words));
  }
  replay_check_series<std::int32_t>(i, name, "active_per_round",
                                    t.active(want), stats.active_per_round);
  replay_check_series<std::uint64_t>(i, name, "words_per_round",
                                     t.bandwidth(want), stats.words_per_round);
  advance_replay();
}

void PhaseLog::verify_replay_span(std::string_view name) {
  const PhaseLog& t = *replay_;
  const Entry& want = t.entries_[replay_cursor_];
  const std::size_t i = replay_cursor_;
  if (t.name(want) != name) {
    replay_diverged(i, name,
                    "expected phase '" + std::string(t.name(want)) + "'");
  }
  if (!want.span) replay_diverged(i, name, "expected a leaf phase here");
  if (want.depth != depth_) {
    replay_diverged(i, name,
                    "nesting depth " + std::to_string(depth_) +
                        " != checkpointed " + std::to_string(want.depth));
  }
  advance_replay();
}

std::uint32_t PhaseLog::intern(std::string_view name) {
  const auto off = static_cast<std::uint32_t>(names_.size());
  names_.insert(names_.end(), name.begin(), name.end());
  return off;
}

std::size_t PhaseLog::open_span(std::string_view name) {
  if (replay_) verify_replay_span(name);
  Entry e;
  e.name_off = intern(name);
  e.name_len = static_cast<std::uint32_t>(name.size());
  e.depth = depth_++;
  e.span = true;
  entries_.push_back(e);
  return entries_.size() - 1;
}

void PhaseLog::close_span(std::size_t idx) {
  --depth_;
  Entry& e = entries_[idx];
  // Fold direct children only: nested spans were closed first and already
  // aggregate their own subtrees. Folded into locals then ASSIGNED (not
  // accumulated) so closing is idempotent on the entry's counters.
  std::int32_t rounds = 0;
  std::uint64_t messages = 0, words = 0, work_items = 0;
  std::uint32_t max_msg_words = 0;
  for (std::size_t j = idx + 1; j < entries_.size();) {
    if (entries_[j].depth <= e.depth) break;
    if (entries_[j].depth == e.depth + 1) {
      rounds += entries_[j].rounds;
      messages += entries_[j].messages;
      words += entries_[j].words;
      work_items += entries_[j].work_items;
      max_msg_words = std::max(max_msg_words, entries_[j].max_msg_words);
    }
    j = subtree_end(j);
  }
  e.rounds = rounds;
  e.messages = messages;
  e.words = words;
  e.work_items = work_items;
  e.max_msg_words = max_msg_words;
}

void PhaseLog::record(std::string_view name, const RunStats& stats) {
  if (replay_) verify_replay_leaf(name, stats);
  Entry e;
  e.name_off = intern(name);
  e.name_len = static_cast<std::uint32_t>(name.size());
  e.depth = depth_;
  e.rounds = stats.rounds;
  e.messages = stats.messages;
  e.words = stats.words;
  e.work_items = stats.work_items;
  e.max_msg_words = stats.max_msg_words;
  e.active_off = stats.active_per_round.empty()
                     ? 0
                     : static_cast<std::uint32_t>(active_.size());
  e.active_len = static_cast<std::uint32_t>(stats.active_per_round.size());
  active_.insert(active_.end(), stats.active_per_round.begin(),
                 stats.active_per_round.end());
  e.bw_off = stats.words_per_round.empty()
                 ? 0
                 : static_cast<std::uint32_t>(bandwidth_.size());
  e.bw_len = static_cast<std::uint32_t>(stats.words_per_round.size());
  bandwidth_.insert(bandwidth_.end(), stats.words_per_round.begin(),
                    stats.words_per_round.end());
  entries_.push_back(e);
}

// ---------------------------------------------------------------------------
// Runtime

std::uint64_t Runtime::lifetime_threads_spawned() {
  return g_threads_spawned.load(std::memory_order_relaxed);
}

bool Runtime::in_machinery() { return t_machinery_depth > 0; }

int Ctx::degree() const { return rt_->graph().degree(v_); }
int Ctx::round() const { return rt_->round_; }

void Ctx::send(int port, std::span<const std::int64_t> payload) {
  rt_->send_ports(shard_, v_, port, 1, payload);
}

void Ctx::broadcast(std::span<const std::int64_t> payload) {
  rt_->send_ports(shard_, v_, 0, degree(), payload);
}

void Ctx::halt() { rt_->do_halt(shard_, v_); }

void Ctx::sleep_until(int round) {
  if (rt_->phase_sleeps_) rt_->wake_[static_cast<std::size_t>(v_)] = round;
}

std::vector<std::int64_t>& Ctx::scratch(int which) {
  DVC_REQUIRE(which >= 0 && which < kNumScratch, "scratch index out of range");
  return rt_->shards_[static_cast<std::size_t>(shard_)]
      .scratch[static_cast<std::size_t>(which)];
}

Runtime::Runtime(const Graph& g, int shards, bool inline_shards) : g_(&g) {
  const V n = g.num_vertices();
  std::int64_t s = shards > 0 ? shards : 1;
  if (n > 0 && s > n) s = n;
  if (n == 0) s = 1;
  num_shards_ = static_cast<int>(s);
  chunk_ = n > 0 ? static_cast<V>((n + s - 1) / s) : 1;
  shards_.resize(static_cast<std::size_t>(num_shards_));
  for (int i = 0; i < num_shards_; ++i) {
    shards_[static_cast<std::size_t>(i)].first = static_cast<V>(
        std::min<std::int64_t>(n, std::int64_t{i} * chunk_));
    shards_[static_cast<std::size_t>(i)].last = static_cast<V>(
        std::min<std::int64_t>(n, (std::int64_t{i} + 1) * chunk_));
  }

  // All slot- and vertex-sized state is allocated here, once per session;
  // run_phase only resets it. The slot-indexed arena arrays are
  // allocated WITHOUT initialization: the kInit job dispatched below has
  // each shard default its own slice, so the backing pages are first
  // touched by the thread that will read and write them (NUMA first-touch
  // placement). Vectors below that are filled exclusively by their owning
  // shard (live, words) get the same property for free: reserve() maps
  // pages without faulting them in.
  const auto slots = static_cast<std::size_t>(g.num_slots());
  slots_ = g.num_slots();
  for (Arena& arena : arenas_) {
    arena.epoch = std::make_unique_for_overwrite<std::int32_t[]>(slots);
    arena.off = std::make_unique_for_overwrite<std::uint32_t[]>(slots);
    arena.len = std::make_unique_for_overwrite<std::uint32_t[]>(slots);
    arena.mail =
        std::make_unique_for_overwrite<std::int32_t[]>(static_cast<std::size_t>(n));
    arena.cell =
        std::make_unique_for_overwrite<Cell[]>(static_cast<std::size_t>(n));
    arena.words.resize(static_cast<std::size_t>(num_shards_));
  }
  unicast_ =
      std::make_unique_for_overwrite<std::int32_t[]>(static_cast<std::size_t>(n));
  halted_.assign(static_cast<std::size_t>(n), 0);
  wake_.assign(static_cast<std::size_t>(n), 0);
  dist_captured_.resize(static_cast<std::size_t>(num_shards_));
  dist_broadcasts_.resize(static_cast<std::size_t>(num_shards_));
  for (Shard& sh : shards_) {
    // Live list holds at most the shard's vertex range, inboxes at most the
    // shard's max degree. Reserving the exact bounds here makes every round
    // -- including the first of a cold phase -- provably allocation-free in
    // the delivery path.
    sh.slot_lo = sh.first < n ? g.slot(sh.first, 0) : g.num_slots();
    sh.slot_hi = sh.last < n ? g.slot(sh.last, 0) : g.num_slots();
    sh.live.reserve(static_cast<std::size_t>(sh.last - sh.first));
    int max_deg = 0;
    for (V v = sh.first; v < sh.last; ++v) {
      max_deg = std::max(max_deg, g.degree(v));
    }
    sh.inbox.msgs_.reserve(static_cast<std::size_t>(max_deg));
  }
  log_.reserve(/*entries=*/64, /*name_bytes=*/2048, /*active_words=*/4096,
               /*bandwidth_words=*/4096);

  // Parked worker pool: one thread per extra shard for the lifetime of the
  // session. Phase boundaries wake it via condition variable; nothing is
  // ever re-spawned. inline_shards keeps the pool empty: dispatch() then
  // sweeps every shard sequentially on the calling thread, which is
  // bit-identical (the shard-determinism contract) and leaves the process
  // single-threaded -- the property the fork-based transport needs.
  threads_.reserve(
      inline_shards ? 0 : static_cast<std::size_t>(num_shards_ - 1));
  for (int shard = 1; !inline_shards && shard < num_shards_; ++shard) {
    g_threads_spawned.fetch_add(1, std::memory_order_relaxed);
    threads_.emplace_back([this, shard] {
      MachineryScope machinery;
      std::uint64_t seen = 0;
      for (;;) {
        Job job;
        VertexProgram* program;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          start_cv_.wait(lock,
                         [&] { return stopping_ || generation_ != seen; });
          if (stopping_) return;
          seen = generation_;
          job = job_;
          program = program_;
        }
        if (job == Job::kInit) {
          init_shard(shard);
        } else {
          run_shard_phase(shard, *program, job == Job::kBegin);
        }
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (--pending_ == 0) done_cv_.notify_one();
        }
      }
    });
  }

  // First-touch pass: every shard faults in its own arena slices before any
  // phase runs (see Job::kInit).
  dispatch(Job::kInit);
}

Runtime::~Runtime() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Runtime::send_ports(int shard, V from, int first, int count,
                         std::span<const std::int64_t> payload) {
  MachineryScope machinery;
  DVC_REQUIRE(first >= 0 && count >= 0 && first <= g_->degree(from) - count,
              "send port out of range");
  if (count == 0) return;  // an isolated vertex's broadcast sends nothing
  const std::size_t len = payload.size();
  if (static_cast<std::int64_t>(len) > msg_word_cap_) {
    // Attribute the violation to the tighter of the two caps in force, and
    // to the first port of the range (port 0 for a broadcast).
    const bool from_contract =
        phase_contract_words_ > 0 &&
        static_cast<std::int64_t>(phase_contract_words_) == msg_word_cap_;
    const std::string source =
        from_contract ? "the program's declared max_words contract"
                      : "the session's congest_words budget";
    throw bandwidth_error(
        "bandwidth violation: vertex " + std::to_string(from) + " sent " +
            std::to_string(len) + " words on port " + std::to_string(first) +
            " in round " + std::to_string(round_) + ", exceeding " + source +
            " of " + std::to_string(msg_word_cap_) +
            " words (CONGEST model)",
        from, first, round_, static_cast<std::int64_t>(len), msg_word_cap_,
        from_contract);
  }
  Arena& out = arenas_[1 - in_idx_];
  const auto sid = static_cast<std::size_t>(shard);
  Shard& sh = shards_[sid];
  // One copy of the payload, shared by every slot of the range: arena
  // payloads are immutable once written (the fault injector copies before
  // it corrupts), so all `count` mirror slots may point at the same words.
  auto& words = out.words[sid];
  DVC_ENSURE(words.size() + len <= 0xffffffffu,
             "a shard's per-round payload exceeds the 32-bit arena offsets");
  const auto off = static_cast<std::uint32_t>(words.size());
  words.insert(words.end(), payload.begin(), payload.end());

  const std::int32_t stamp = stamp_base_ + round_;
  const auto fi = static_cast<std::size_t>(from);
  Cell& mine = out.cell[fi];
  DVC_ENSURE(mine.stamp != stamp, kOneMessagePerEdge);
  // A whole-row send writes only the sender's broadcast cell -- except in
  // a fault-armed phase, where every message keeps its own per-edge cell so
  // a drop or a corruption hits exactly one of them.
  const bool per_edge =
      fault_armed_ || first != 0 || count != g_->degree(from);
  if (per_edge) {
    unicast_[fi] = stamp;
    sh.wrote_edges = true;
  } else {
    DVC_ENSURE(unicast_[fi] != stamp, kOneMessagePerEdge);
    mine = Cell{stamp, off, static_cast<std::uint32_t>(len)};
    // Distributed sweep: a broadcast with a receiver outside this worker's
    // vertex range crosses the wire as its cell, once per destination
    // worker. The row is sorted, so its two ends decide.
    if (dist_capture_) {
      const std::span<const V> nbrs = g_->neighbors(from);
      if (nbrs.front() < dist_vtx_lo_ || nbrs.back() >= dist_vtx_hi_) {
        dist_broadcasts_[sid].push_back(from);
      }
    }
  }
  // Sleeping phases only: stamp each receiver so a sleeper wakes. Receivers
  // may live on other shards, hence the relaxed atomic store (every writer
  // of a cell this round stores the same stamp; the next round reads it
  // after the barrier).
  std::int32_t* const mail = phase_sleeps_ ? out.mail.get() : nullptr;
  // The port loop runs only for per-edge cells and per-receiver work.
  if (per_edge || mail) {
    const std::int64_t row = g_->slot(from, 0);
    // Checksum lane: fold what was ACTUALLY sent, before any injector can
    // touch the arena. XOR-combined across slots and shards, so the totals
    // are delivery-order and shard-count invariant.
    const bool lane = fault_armed_ && fault_plan_.checksum;
    const std::uint64_t lane_fold = lane ? lane_payload_fold(payload) : 0;
    const bool capture = dist_capture_ && per_edge;
    for (int port = first; port < first + count; ++port) {
      const std::int64_t s = g_->mirror_slot(row + port);
      const auto si = static_cast<std::size_t>(s);
      // Distributed sweep: a per-edge cell outside this worker's own slot
      // range crosses the wire to its owner as its own entry.
      const bool remote = capture && (s < dist_slot_lo_ || s >= dist_slot_hi_);
      if (per_edge) {
        DVC_ENSURE(out.epoch[si] != stamp, kOneMessagePerEdge);
        out.epoch[si] = stamp;
        out.off[si] = off;
        out.len[si] = static_cast<std::uint32_t>(len);
      }
      if (mail) {
        std::atomic_ref<std::int32_t>(
            mail[static_cast<std::size_t>(g_->slot_target(row + port))])
            .store(stamp, std::memory_order_relaxed);
      }
      if (remote) dist_captured_[sid].push_back(s);
      if (lane) {
        sh.lane_count += 1;
        sh.lane_xor_slots ^=
            detail::digest_mix(kLaneSeed, static_cast<std::uint64_t>(s));
        sh.lane_xor_words ^= lane_slot_hash(s, lane_fold);
      }
    }
  }
  sh.messages += static_cast<std::uint64_t>(count);
  sh.words += static_cast<std::uint64_t>(count) * len;
  if (static_cast<std::uint32_t>(len) > sh.max_msg_words) {
    sh.max_msg_words = static_cast<std::uint32_t>(len);
  }
}

void Runtime::do_halt(int shard, V v) {
  auto& h = halted_[static_cast<std::size_t>(v)];
  if (!h) {
    h = 1;
    ++shards_[static_cast<std::size_t>(shard)].newly_halted;
  }
}

void Runtime::run_shard_phase(int shard, VertexProgram& program, bool is_begin) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  try {
    if (fault_armed_) inject_shard_faults(shard, round_);
    if (is_begin) {
      for (V v = sh.first; v < sh.last; ++v) {
        Ctx ctx(*this, shard, v);
        ++sh.work_items;
        ProgramScope callback;
        program.begin(ctx);
      }
      // Seed the live list from the one post-begin halted sweep; from here
      // on it is only compacted, never re-derived.
      sh.live.clear();
      for (V v = sh.first; v < sh.last; ++v) {
        if (!halted_[static_cast<std::size_t>(v)]) sh.live.push_back(v);
      }
      return;
    }
    sparse_step(shard, program);
  } catch (...) {
    sh.error = std::current_exception();
  }
}

void Runtime::sparse_step(int shard, VertexProgram& program) {
  Shard& sh = shards_[static_cast<std::size_t>(shard)];
  const Arena& in = arenas_[in_idx_];
  const std::int32_t want = stamp_base_ + round_ - 1;
  // A 1-shard session has one word buffer; otherwise a message's payload
  // lives in its sender's shard buffer.
  const std::vector<std::int64_t>* sole_words =
      num_shards_ == 1 ? in.words.data() : nullptr;
  Inbox& inbox = sh.inbox;
  // A message is in the receiver's per-edge cell only if the sweep that
  // wrote this arena stamped some (a dist worker always looks: relayed
  // per-slot entries stamp cells its merge never hears of); otherwise, and
  // when that cell is stale, it is in the sender's broadcast cell -- a
  // relayed broadcast included.
  const std::int32_t* const epoch =
      edge_mail_ || dist_capture_ ? in.epoch.get() : nullptr;
  const Cell* const cell = in.cell.get();
  // Sleeping phases: a live vertex that is asleep (its named round not yet
  // here) with no mail stamped for this round is skipped. Its step() would
  // see an empty inbox and, by the sleep contract, do nothing -- so it
  // costs what that step would have counted (one work item) and stays live.
  const std::int32_t* const mail = phase_sleeps_ ? in.mail.get() : nullptr;
  // Sweep the live list in canonical (ascending) order, compacting it in
  // place: only step(v) itself can halt v, so survival is known right after
  // the call and the list never needs a separate rebuild pass.
  std::size_t w = 0;
  const std::size_t live_count = sh.live.size();
  for (std::size_t i = 0; i < live_count; ++i) {
    const V v = sh.live[i];
    if (mail) {
      std::int32_t& wake = wake_[static_cast<std::size_t>(v)];
      if (round_ < wake && mail[v] != want) {
        ++sh.work_items;
        sh.live[w++] = v;
        continue;
      }
      wake = 0;  // a sleep lasts until the vertex's next step
    }
    inbox.msgs_.clear();
    const std::span<const V> nbrs = g_->neighbors(v);
    const std::int64_t base = g_->slot(v, 0);
    for (int p = 0; p < static_cast<int>(nbrs.size()); ++p) {
      const V u = nbrs[static_cast<std::size_t>(p)];
      const auto s = static_cast<std::size_t>(base + p);
      std::uint32_t off, len;
      if (epoch && epoch[s] == want) {
        off = in.off[s];
        len = in.len[s];
      } else {
        const Cell& c = cell[static_cast<std::size_t>(u)];
        if (c.stamp != want) continue;
        off = c.off;
        len = c.len;
      }
      const auto& words =
          sole_words ? *sole_words
                     : in.words[static_cast<std::size_t>(shard_of(u))];
      inbox.msgs_.push_back(
          MsgView{p, std::span<const std::int64_t>(words.data() + off, len)});
    }
    sh.work_items += 1 + inbox.msgs_.size();
    {
      Ctx ctx(*this, shard, v);
      ProgramScope callback;
      program.step(ctx, inbox);
    }
    if (!halted_[static_cast<std::size_t>(v)]) sh.live[w++] = v;
  }
  sh.live.resize(w);
}

void Runtime::merge_shards() {
  // Canonical shard order keeps the fold deterministic for any shard count.
  edge_mail_ = false;
  for (Shard& sh : shards_) {
    edge_mail_ = edge_mail_ || sh.wrote_edges;
    sh.wrote_edges = false;
    stats_.messages += sh.messages;
    stats_.words += sh.words;
    stats_.work_items += sh.work_items;
    stats_.max_msg_words = std::max(stats_.max_msg_words, sh.max_msg_words);
    live_ -= sh.newly_halted;
    sh.messages = 0;
    sh.words = 0;
    sh.work_items = 0;
    sh.max_msg_words = 0;
    sh.newly_halted = 0;
  }
  // Clear every shard's error before rethrowing the first: a caught failure
  // must not leave stale exception_ptrs that would poison the next phase on
  // this (persistent) session.
  std::exception_ptr first_error;
  for (Shard& sh : shards_) {
    if (sh.error && !first_error) first_error = sh.error;
    sh.error = nullptr;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void Runtime::init_shard(int shard) {
  const Shard& sh = shards_[static_cast<std::size_t>(shard)];
  for (Arena& arena : arenas_) {
    std::fill(arena.epoch.get() + sh.slot_lo, arena.epoch.get() + sh.slot_hi,
              std::int32_t{-1});
    std::fill(arena.off.get() + sh.slot_lo, arena.off.get() + sh.slot_hi,
              std::uint32_t{0});
    std::fill(arena.len.get() + sh.slot_lo, arena.len.get() + sh.slot_hi,
              std::uint32_t{0});
    std::fill(arena.mail.get() + sh.first, arena.mail.get() + sh.last,
              std::int32_t{-1});
    std::fill(arena.cell.get() + sh.first, arena.cell.get() + sh.last,
              Cell{-1, 0, 0});
  }
  std::fill(unicast_.get() + sh.first, unicast_.get() + sh.last,
            std::int32_t{-1});
}

void Runtime::dispatch(Job job) {
  const auto run_mine = [&] {
    if (job == Job::kInit) {
      init_shard(0);
    } else {
      run_shard_phase(0, *program_, job == Job::kBegin);
    }
  };
  if (threads_.empty()) {
    // Single-sharded, or a multi-shard inline session (inline_shards):
    // sweep every shard sequentially on this thread. Shard sweeps are
    // independent by the race-freedom contract, so serial ascending order
    // is bit-identical to the pool's concurrent execution.
    run_mine();
    for (int shard = 1; shard < num_shards_; ++shard) {
      if (job == Job::kInit) {
        init_shard(shard);
      } else {
        run_shard_phase(shard, *program_, job == Job::kBegin);
      }
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    pending_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  run_mine();
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

const RunStats& Runtime::run_phase(VertexProgram& program, int max_rounds,
                                   std::string_view label) {
  MachineryScope machinery;
  // Phase-boundary interrupt poll: a cancelled/expired job aborts here by
  // throwing, before this phase touches any session state -- the session
  // stays warm and reusable, the already-recorded phases stay untouched.
  // (Polled before the label/index bookkeeping below: an aborted phase
  // never started, so it must not consume a phase index or relabel the
  // session's failure context.)
  if (interrupt_) {
    ProgramScope callback;
    interrupt_();
  }
  phase_label_.assign(label);
  phase_cur_ = phase_index_++;
  try {
    return run_phase_body(program, max_rounds, label);
  } catch (const bandwidth_error& e) {
    throw bandwidth_error("in phase '" + phase_label_ + "' (phase " +
                              std::to_string(phase_cur_) + "): " + e.what(),
                          e.vertex, e.port, e.round, e.words, e.cap,
                          e.from_contract);
  } catch (const watchdog_error&) {
    throw;  // constructed with the phase context already baked in
  } catch (const invariant_error& e) {
    throw invariant_error("in phase '" + phase_label_ + "' (phase " +
                          std::to_string(phase_cur_) + "): " + e.what());
  }
  // Everything else -- transient faults (which carry their own phase
  // fields), bad_alloc, preconditions, and non-std interrupt payloads --
  // propagates untouched.
}

const RunStats& Runtime::run_phase_body(VertexProgram& program, int max_rounds,
                                        std::string_view label) {
  const V n = g_->num_vertices();
  // Per-phase reset without freeing: every container below keeps its
  // capacity from earlier phases of this session. Epoch arenas are not
  // touched at all -- stamp_base_ leaps past every stamp the previous phase
  // wrote, so stale cells can never match (O(n) phase start, not O(slots)).
  if (stamp_base_ >
      std::numeric_limits<std::int32_t>::max() - std::max(max_rounds, 0) - 2) {
    for (Arena& arena : arenas_) {
      std::fill_n(arena.epoch.get(), static_cast<std::size_t>(slots_), -1);
      std::fill_n(arena.mail.get(), static_cast<std::size_t>(n), -1);
      std::fill_n(arena.cell.get(), static_cast<std::size_t>(n), Cell{-1, 0, 0});
    }
    std::fill_n(unicast_.get(), static_cast<std::size_t>(n), -1);
    stamp_base_ = 0;
  }
  // On every exit -- including a round-cap throw mid-phase -- advance the
  // base past the largest stamp this phase can have written, so a later
  // phase never observes a stale cell as fresh.
  struct StampGuard {
    Runtime& rt;
    ~StampGuard() { rt.stamp_base_ += rt.round_ + 1; }
  } stamp_guard{*this};

  std::fill(halted_.begin(), halted_.end(), 0);
  phase_sleeps_ = program.sleeps();
  if (phase_sleeps_) std::fill(wake_.begin(), wake_.end(), 0);
  live_ = n;
  round_ = 0;
  idle_rounds_ = 0;
  lane_valid_ = false;
  if (fault_armed_) {
    for (Shard& sh : shards_) {
      sh.lane_count = 0;
      sh.lane_xor_slots = 0;
      sh.lane_xor_words = 0;
    }
  }
  stats_.rounds = 0;
  stats_.messages = 0;
  stats_.words = 0;
  stats_.work_items = 0;
  stats_.max_msg_words = 0;
  stats_.active_per_round.clear();
  stats_.active_per_round.reserve(
      static_cast<std::size_t>(std::clamp(max_rounds, 0, 1 << 12)));
  stats_.words_per_round.clear();
  stats_.words_per_round.reserve(
      static_cast<std::size_t>(std::clamp(max_rounds, 0, 1 << 12)) + 1);
  for (Arena& arena : arenas_) {
    for (auto& words : arena.words) words.clear();
  }
  in_idx_ = 0;  // begin (round 0) writes arenas_[1]; round 1 reads it
  program_ = &program;
  // Effective per-message word cap for this phase: the tighter of the
  // session budget and the program's declared contract (0 = no cap).
  phase_contract_words_ = program.max_words();
  msg_word_cap_ = std::numeric_limits<std::int64_t>::max();
  if (congest_words_ > 0) msg_word_cap_ = congest_words_;
  if (phase_contract_words_ > 0) {
    msg_word_cap_ =
        std::min<std::int64_t>(msg_word_cap_, phase_contract_words_);
  }

  // Offer the phase to the installed transport executor, AFTER the
  // per-phase reset above (a forked worker inherits exactly this canonical
  // phase-start state). Fault-armed phases are never offered -- the
  // injection hooks run inside shard sweeps, which a remote worker executes
  // out of the coordinator's sight.
  PhaseExecutor* exec = phase_executor_;
  const bool dist = exec != nullptr && !fault_armed_ &&
                    exec->begin_phase(*this, program);
  // Unwind guard: a distributed phase that throws anywhere below must tear
  // its workers down (end_phase(success=false)) before the exception leaves
  // run_phase_body, or killed/abandoned worker processes would leak past
  // the phase boundary.
  struct ExecGuard {
    Runtime* rt;
    PhaseExecutor* exec;
    VertexProgram* program;
    void disarm() { exec = nullptr; }
    ~ExecGuard() {
      if (exec != nullptr) exec->end_phase(*rt, *program, /*success=*/false);
    }
  } exec_guard{this, dist ? exec : nullptr, &program};

  std::uint64_t words_before = stats_.words;
  std::uint64_t msgs_before = stats_.messages;
  if (dist) {
    exec->run_sweep(*this, /*is_begin=*/true);
  } else {
    dispatch(Job::kBegin);
  }
  merge_shards();
  stats_.words_per_round.push_back(stats_.words - words_before);
  if (fault_armed_) snapshot_send_lane_and_inject(round_ + 1);

  while (live_ > 0) {
    DVC_ENSURE(round_ < max_rounds,
               program.name() + " exceeded the round cap of " +
                   std::to_string(max_rounds) +
                   " (likely cause: a structural parameter such as the "
                   "arboricity bound is below the graph's true value)");
    ++round_;
    stats_.active_per_round.push_back(live_);
    in_idx_ = 1 - in_idx_;
    Arena& out = arenas_[1 - in_idx_];
    for (auto& words : out.words) words.clear();
    // Delivery-boundary integrity check: what this round is about to
    // deliver must match what last round's senders recorded in the lane.
    if (lane_valid_) verify_delivery_checksum();
    words_before = stats_.words;
    msgs_before = stats_.messages;
    const V live_before = live_;
    if (dist) {
      exec->run_sweep(*this, /*is_begin=*/false);
    } else {
      dispatch(Job::kStep);
    }
    merge_shards();
    stats_.words_per_round.push_back(stats_.words - words_before);
    if (fault_armed_) snapshot_send_lane_and_inject(round_ + 1);
    if (watchdog_idle_rounds_ > 0) {
      // Progress = somebody halted or somebody spoke. A phase that does
      // neither for the configured stretch is burning rounds toward the
      // round cap with no signal it will ever converge.
      const bool progressed =
          live_ != live_before || stats_.messages != msgs_before;
      idle_rounds_ = progressed ? 0 : idle_rounds_ + 1;
      if (idle_rounds_ >= watchdog_idle_rounds_) {
        throw watchdog_error(
            "watchdog: " + std::to_string(idle_rounds_) +
                " consecutive rounds without progress (no halts, no "
                "messages) in phase '" + phase_label_ + "' (phase " +
                std::to_string(phase_cur_) + "), round " +
                std::to_string(round_) + " of " + program.name() +
                " -- runaway phase converted to a structural failure",
            phase_label_, phase_cur_, round_, idle_rounds_);
      }
    }
    if (observer_) {
      ProgramScope callback;
      observer_(round_);
    }
  }
  program_ = nullptr;
  stats_.rounds = round_;
  if (dist) {
    // Successful completion: the executor ships per-vertex program state
    // back from the workers and releases them. May throw (a worker died
    // delivering its final state); the guard then issues the idempotent
    // failure teardown.
    exec->end_phase(*this, program, /*success=*/true);
    exec_guard.disarm();
  }
  log_.record(label, stats_);
  return stats_;
}

const RunStats& Runtime::run_phase(VertexProgram& program, int max_rounds) {
  return run_phase(program, max_rounds, program.name());
}

// ---------------------------------------------------------------------------
// Fault injection (see sim/fault.hpp and DESIGN.md, "Fault model & recovery")

void Runtime::inject_shard_faults(int shard, int round) {
  // Stall first (a slow shard still computes -- the chaos tests assert a
  // stall is output-invisible), then the fatal kinds.
  if (fault_plan_.fires(FaultKind::kStall, phase_cur_, round, shard)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(fault_plan_.stall_us));
  }
  if (fault_plan_.fires(FaultKind::kAllocFailure, phase_cur_, round, shard)) {
    // The standard library type, so injected and genuine memory exhaustion
    // share one recovery path through the service's transient classifier.
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    throw std::bad_alloc{};
  }
  if (fault_plan_.fires(FaultKind::kShardFailure, phase_cur_, round, shard)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    throw fault_error(
        "injected fault: shard " + std::to_string(shard) +
            " failed entering round " + std::to_string(round) +
            " of phase '" + phase_label_ + "' (phase " +
            std::to_string(phase_cur_) + ")",
        FaultKind::kShardFailure, phase_label_, phase_cur_, round, shard);
  }
}

std::uint64_t Runtime::lane_hash_slot(const Arena& a, std::int64_t s) const {
  const auto si = static_cast<std::size_t>(s);
  const std::size_t sender =
      num_shards_ == 1
          ? 0
          : static_cast<std::size_t>(
                shard_of(g_->slot_owner(g_->mirror_slot(s))));
  const auto& words = a.words[sender];
  return lane_slot_hash(s, lane_payload_fold(std::span<const std::int64_t>(
                              words.data() + a.off[si], a.len[si])));
}

void Runtime::snapshot_send_lane_and_inject(int delivery_round) {
  if (fault_plan_.checksum) {
    // Fold the per-shard send accumulators into the expected lane totals
    // for the upcoming delivery boundary. XOR-combining keeps the fold
    // independent of shard count and merge order.
    lane_count_ = 0;
    lane_xor_slots_ = 0;
    lane_xor_words_ = 0;
    for (Shard& sh : shards_) {
      lane_count_ += sh.lane_count;
      lane_xor_slots_ ^= sh.lane_xor_slots;
      lane_xor_words_ ^= sh.lane_xor_words;
      sh.lane_count = 0;
      sh.lane_xor_slots = 0;
      sh.lane_xor_words = 0;
    }
    lane_valid_ = true;
  }
  // Message-level faults are keyed on (phase, delivery round) alone and
  // pick their victim by canonical slot id, so the same plan injects the
  // same fault at any shard count.
  const bool drop = fault_plan_.fires(FaultKind::kMessageDrop, phase_cur_,
                                      delivery_round, /*shard=*/-1);
  const bool corrupt = fault_plan_.fires(FaultKind::kMessageCorrupt,
                                         phase_cur_, delivery_round,
                                         /*shard=*/-1);
  if (!drop && !corrupt) return;
  Arena& out = arenas_[1 - in_idx_];
  const std::int32_t stamp = stamp_base_ + round_;
  std::vector<std::int64_t> fresh;  // fault path only; allocation is fine
  for (std::int64_t s = 0; s < slots_; ++s) {
    if (out.epoch[s] == stamp) fresh.push_back(s);
  }
  if (fresh.empty()) return;
  std::size_t dropped = fresh.size();  // sentinel: nothing dropped
  if (drop) {
    const std::uint64_t h = fault_plan_.decision_hash(
        FaultKind::kMessageDrop, phase_cur_, delivery_round, /*shard=*/-2);
    dropped = static_cast<std::size_t>(h % fresh.size());
    // Rewinding the epoch un-sends the message: the delivery sweep wants
    // exactly `stamp`, and `stamp - 1` can never be a live stamp for this
    // arena (its previous stamps are at least 2 behind).
    out.epoch[fresh[dropped]] = stamp - 1;
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  if (corrupt) {
    const std::uint64_t h = fault_plan_.decision_hash(
        FaultKind::kMessageCorrupt, phase_cur_, delivery_round, /*shard=*/-2);
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      const std::size_t idx = static_cast<std::size_t>((h + k) % fresh.size());
      if (idx == dropped) continue;  // corrupting a dropped slot is invisible
      const std::int64_t s = fresh[idx];
      const auto si = static_cast<std::size_t>(s);
      if (out.len[si] == 0) continue;  // zero-word message: no bit to flip
      const std::size_t sender =
          num_shards_ == 1
              ? 0
              : static_cast<std::size_t>(
                    shard_of(g_->slot_owner(g_->mirror_slot(s))));
      const std::size_t word =
          static_cast<std::size_t>((h >> 17) % out.len[si]);
      // Copy on write: a broadcast's slots share one payload copy, so the
      // victim gets a private copy at the tail of the sender's buffer
      // before a bit flips -- only this one message is corrupted.
      auto& words = out.words[sender];
      const std::size_t tail = words.size();
      DVC_ENSURE(tail + out.len[si] <= 0xffffffffu,
                 "a shard's per-round payload exceeds the 32-bit arena "
                 "offsets");
      words.resize(tail + out.len[si]);
      std::copy_n(words.begin() + out.off[si], out.len[si],
                  words.begin() + static_cast<std::ptrdiff_t>(tail));
      out.off[si] = static_cast<std::uint32_t>(tail);
      // XOR with a nonzero mask: the payload word provably changes.
      words[tail + word] ^= static_cast<std::int64_t>(h | 1);
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
}

void Runtime::verify_delivery_checksum() {
  lane_valid_ = false;
  const Arena& in = arenas_[in_idx_];
  const std::int32_t want = stamp_base_ + round_ - 1;
  std::uint64_t count = 0, xor_slots = 0, xor_words = 0;
  for (std::int64_t s = 0; s < slots_; ++s) {
    if (in.epoch[s] != want) continue;
    ++count;
    xor_slots ^= detail::digest_mix(kLaneSeed, static_cast<std::uint64_t>(s));
    xor_words ^= lane_hash_slot(in, s);
  }
  if (count != lane_count_ || xor_slots != lane_xor_slots_ ||
      xor_words != lane_xor_words_) {
    std::string what =
        "message checksum lane mismatch at the delivery boundary of round " +
        std::to_string(round_) + " in phase '" + phase_label_ + "' (phase " +
        std::to_string(phase_cur_) + "): senders recorded " +
        std::to_string(lane_count_) + " messages, delivery observes " +
        std::to_string(count);
    what += count == lane_count_
                ? " with a payload/slot hash mismatch -- a message was "
                  "corrupted in the mailbox"
                : " -- a message was dropped in the mailbox";
    throw corruption_error(what, phase_label_, phase_cur_, round_,
                           lane_count_, count);
  }
}

// ---------------------------------------------------------------------------
// Phase-boundary checkpoint/resume

std::vector<std::uint8_t> Runtime::checkpoint() const {
  DVC_REQUIRE(!log_.replaying(),
              "checkpoint while an earlier resume is still replaying -- the "
              "prefix under verification is not yet trustworthy");
  ByteWriter w;
  w.u64(kCkptMagic);
  w.u32(kCkptVersion);
  // Graph binding fingerprint: a checkpoint only resumes onto a session for
  // the same graph (digest + shape double-check).
  w.u64(g_->digest());
  w.i64(static_cast<std::int64_t>(g_->num_vertices()));
  w.i64(slots_);
  // Session configuration at the boundary.
  w.i32(congest_words_);
  // Epoch-stamp base: at a phase boundary every arena cell is stale BY
  // CONSTRUCTION relative to this base (the stamp guard advanced it past
  // everything the last phase wrote), so the base alone captures the epoch
  // state; per-slot stamps and per-phase vertex scratch are canonically
  // empty at a boundary and need no bytes.
  w.i32(stamp_base_);
  w.u32(static_cast<std::uint32_t>(phase_index_));
  // Halted/live state at the boundary.
  w.u64(halted_.size());
  for (const std::uint8_t h : halted_) w.u8(h);
  // The full PhaseLog: entries with inline name + per-round series.
  w.u64(log_.entries_.size());
  for (const PhaseLog::Entry& e : log_.entries_) {
    w.str(log_.name(e));
    w.i32(e.depth);
    w.u8(e.span ? 1 : 0);
    w.i32(e.rounds);
    w.u64(e.messages);
    w.u64(e.words);
    w.u64(e.work_items);
    w.u32(e.max_msg_words);
    const auto a = log_.active(e);
    w.u32(static_cast<std::uint32_t>(a.size()));
    for (const std::int32_t x : a) w.i32(x);
    const auto b = log_.bandwidth(e);
    w.u32(static_cast<std::uint32_t>(b.size()));
    for (const std::uint64_t x : b) w.u64(x);
  }
  w.u64(ckpt_checksum(w.buf));
  return std::move(w.buf);
}

void Runtime::resume(std::span<const std::uint8_t> buffer) {
  DVC_REQUIRE(log_.empty(),
              "resume requires an empty session log (fresh session, or "
              "reset_log first)");
  DVC_REQUIRE(buffer.size() >= 8 + 4 + 8,
              "resume buffer is too small to be a checkpoint");
  // Verify the trailing content checksum before trusting a single field.
  const std::span<const std::uint8_t> body = buffer.first(buffer.size() - 8);
  std::uint64_t want_sum = 0;
  for (int i = 0; i < 8; ++i) {
    want_sum |= static_cast<std::uint64_t>(buffer[body.size() + i]) << (8 * i);
  }
  if (ckpt_checksum(body) != want_sum) {
    throw corruption_error(
        "checkpoint buffer failed its content checksum -- the bytes were "
        "corrupted between checkpoint() and resume()",
        /*phase_label=*/"", /*phase=*/-1, /*round=*/-1, 0, 0);
  }
  ByteReader r = ckpt_reader(body);
  if (r.u64() != kCkptMagic) {
    throw precondition_error("resume: buffer is not a dvc checkpoint");
  }
  const std::uint32_t version = r.u32();
  DVC_REQUIRE(version == kCkptVersion,
              "resume: unsupported checkpoint version " +
                  std::to_string(version));
  DVC_REQUIRE(r.u64() == g_->digest(),
              "resume: checkpoint was taken for a different graph (digest "
              "mismatch)");
  DVC_REQUIRE(r.i64() == static_cast<std::int64_t>(g_->num_vertices()),
              "resume: vertex count mismatch");
  DVC_REQUIRE(r.i64() == slots_, "resume: slot count mismatch");
  const std::int32_t congest_words = r.i32();
  DVC_REQUIRE(congest_words >= 0,
              "resume: negative CONGEST budget in checkpoint");
  congest_words_ = congest_words;
  // Monotonic: the restored base can only move this session's stamps
  // forward, never behind cells this session already wrote.
  stamp_base_ = std::max(stamp_base_, r.i32());
  r.u32();  // checkpointed phase_index: informational; replay re-runs from 0
  const std::uint64_t hn = r.u64();
  DVC_REQUIRE(hn == halted_.size(), "resume: halted bitmap size mismatch");
  V live = 0;
  for (std::size_t i = 0; i < halted_.size(); ++i) {
    halted_[i] = r.u8();
    if (!halted_[i]) ++live;
  }
  live_ = live;
  // Rebuild the checkpointed PhaseLog and arm replay verification: the
  // caller re-runs its pipeline from the top, and every re-recorded phase
  // is matched against this target as it lands (see PhaseLog::replaying).
  const std::uint64_t entries = r.u64();
  PhaseLog target;
  for (std::uint64_t i = 0; i < entries; ++i) {
    const std::string name = r.str();
    PhaseLog::Entry e;
    e.name_off = target.intern(name);
    e.name_len = static_cast<std::uint32_t>(name.size());
    e.depth = r.i32();
    e.span = r.u8() != 0;
    e.rounds = r.i32();
    e.messages = r.u64();
    e.words = r.u64();
    e.work_items = r.u64();
    e.max_msg_words = r.u32();
    const std::uint32_t alen = r.u32();
    e.active_off =
        alen == 0 ? 0 : static_cast<std::uint32_t>(target.active_.size());
    e.active_len = alen;
    for (std::uint32_t j = 0; j < alen; ++j) target.active_.push_back(r.i32());
    const std::uint32_t blen = r.u32();
    e.bw_off =
        blen == 0 ? 0 : static_cast<std::uint32_t>(target.bandwidth_.size());
    e.bw_len = blen;
    for (std::uint32_t j = 0; j < blen; ++j) {
      target.bandwidth_.push_back(r.u64());
    }
    target.entries_.push_back(e);
  }
  DVC_REQUIRE(r.pos == body.size(),
              "resume: trailing bytes after the checkpoint payload");
  log_.begin_replay(std::move(target));
}

Runtime::MemoryBreakdown Runtime::memory_breakdown() const {
  MemoryBreakdown mb;
  const auto slots = static_cast<std::uint64_t>(slots_);
  // Two arenas of slot-indexed epoch/off/len (raw arrays: exact).
  mb.arena_bytes =
      2 * slots * (sizeof(std::int32_t) + 2 * sizeof(std::uint32_t));
  for (const Arena& arena : arenas_) {
    for (const auto& w : arena.words) {
      mb.payload_bytes += w.capacity() * sizeof(std::int64_t);
    }
  }
  // Per-vertex: halted flags, wake rounds, unicast stamps, and both
  // arenas' mail stamps and broadcast cells (raw arrays of n: exact).
  const auto n = static_cast<std::uint64_t>(g_->num_vertices());
  mb.vertex_bytes += halted_.capacity() +
                     wake_.capacity() * sizeof(std::int32_t) +
                     n * sizeof(std::int32_t) +
                     2 * n * (sizeof(std::int32_t) + sizeof(Cell));
  for (const Shard& sh : shards_) {
    mb.index_bytes += sh.live.capacity() * sizeof(V);
    for (const auto& s : sh.scratch) {
      mb.index_bytes += s.capacity() * sizeof(std::int64_t);
    }
    mb.index_bytes += sh.inbox.msgs_.capacity() * sizeof(MsgView);
  }
  return mb;
}

int default_round_cap(V n, int scale) {
  const int logn = ilog2_ceil(static_cast<std::uint64_t>(std::max<V>(n, 2)));
  return 64 * logn * std::max(1, scale) + 256;
}

}  // namespace dvc::sim
