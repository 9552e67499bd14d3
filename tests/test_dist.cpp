// Distributed transport suite (src/dist/, common/wire.hpp): the simulator's
// round loop running across OS processes. The contract under test is the
// ROADMAP acceptance bar: a preset pipeline run over the loopback or
// fork/socketpair backend is BIT-IDENTICAL (colors, RunStats, PhaseLog) to
// the in-process run at every shard and worker count; measured wire traffic
// is reported next to the declared CONGEST words; and every transport
// failure edge -- truncated frame, checksum-corrupted frame, a worker
// SIGKILLed mid-round, coordinator teardown with frames in flight --
// surfaces as the structured error taxonomy (corruption_error /
// transient_error / precondition_error), never a hang, with the service's
// retry + checkpoint path healing a killed worker end to end.
//
// This file is the `dist` ctest label and runs in the ASan+UBSan and TSan
// CI legs (see .github/workflows/ci.yml): the fork backend crosses a real
// process boundary, so lifetime bugs around teardown are exactly what the
// sanitizers are for.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "baselines/cole_vishkin.hpp"
#include "common/check.hpp"
#include "common/wire.hpp"
#include "core/api.hpp"
#include "core/mis.hpp"
#include "core/simple_arbdefective.hpp"
#include "decomp/orientations.hpp"
#include "dist/dist.hpp"
#include "dist/transport.hpp"
#include "graph/arboricity.hpp"
#include "graph/coloring.hpp"
#include "graph/generators.hpp"
#include "reference_executor.hpp"
#include "service/service.hpp"
#include "sim/runtime.hpp"
#include "test_helpers.hpp"

namespace dvc {
namespace {

using dist::Backend;
using dist::DistConfig;
using dist::DistSession;
using dist::PhaseWireMetrics;
using dist::worker_lost_error;
using dvc_test::FloodAll;
using service::ColoringService;
using service::JobResult;
using service::JobSpec;
using service::JobStatus;
using service::ServiceConfig;

/// FloodAll with the distribution contract opted in: it keeps no per-vertex
/// mutable state, so the save/load hooks are empty and trivially correct.
class DistFlood : public FloodAll {
 public:
  using FloodAll::FloodAll;
  bool dist_capable() const override { return true; }
  void save_vertex_state(V, wire::ByteWriter&) const override {}
  void load_vertex_state(V, wire::ByteReader&) override {}
};

/// A hub calling its leaves: vertex 0 sleeps until round `at`, then sends
/// {7, -300} -- one broadcast, or one send per port when `per_port` -- and
/// halts. Every other vertex with a neighbor sleeps until mail arrives,
/// folds what it heard into its digest and halts; so in a distributed run
/// a leaf on another worker wakes only if the relay stamps its mail.
/// Vertices with no neighbor halt in begin(). The hub's one call is the
/// only traffic of the phase.
class HubCall : public sim::VertexProgram {
 public:
  HubCall(V n, int at, bool per_port)
      : heard_(static_cast<std::size_t>(n), 0), at_(at), per_port_(per_port) {}
  std::string name() const override { return "hub-call"; }
  bool sleeps() const override { return true; }
  bool dist_capable() const override { return true; }
  void begin(sim::Ctx& ctx) override {
    if (ctx.degree() == 0) {
      ctx.halt();
    } else {
      act(ctx);
    }
  }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    if (ctx.vertex() == 0 || inbox.empty()) {
      act(ctx);
      return;
    }
    std::int64_t& h = heard_[static_cast<std::size_t>(ctx.vertex())];
    for (const sim::MsgView& m : inbox) {
      for (const std::int64_t w : m.data) h = h * 31 + w + m.port;
    }
    ctx.halt();
  }
  void save_vertex_state(V v, wire::ByteWriter& w) const override {
    w.i64(heard_[static_cast<std::size_t>(v)]);
  }
  void load_vertex_state(V v, wire::ByteReader& r) override {
    heard_[static_cast<std::size_t>(v)] = r.i64();
  }
  const std::vector<std::int64_t>& heard() const { return heard_; }

 private:
  void act(sim::Ctx& ctx) {
    if (ctx.vertex() != 0) {
      ctx.sleep_until(sim::Ctx::kOnMail);
    } else if (ctx.round() < at_) {
      ctx.sleep_until(at_);
    } else {
      if (per_port_) {
        for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, {7, -300});
      } else {
        ctx.broadcast({7, -300});
      }
      ctx.halt();
    }
  }

  std::vector<std::int64_t> heard_;
  int at_;
  bool per_port_;
};

/// Bytes of one kMsgs frame carrying one group with one HubCall entry:
/// header; dest and group count; sender shard, broadcast count and edge
/// count; the entry's u32 key, its 1-byte length and the words 7 and -300
/// (zigzag 14 and 599: one byte and two); trailer. Each further entry adds
/// kHubEntry bytes.
constexpr std::uint64_t kHubEntry = 4 + 1 + 1 + 2;
constexpr std::uint64_t kOneHubEntryFrame =
    wire::kFrameHeaderBytes + 2 * 4 + 3 * 4 + kHubEntry +
    wire::kFrameTrailerBytes;

/// A graph on n vertices whose edges are the hub's (0, leaf) plus `extra`.
Graph hub_graph(V n, const std::vector<V>& leaves, EdgeList extra = {}) {
  for (const V leaf : leaves) extra.emplace_back(0, leaf);
  return Graph::from_edges(n, extra);
}

/// kMsgs bytes of the one phase `session` ran, which must have been
/// distributed.
std::uint64_t only_phase_msgs_bytes(const DistSession& session) {
  const std::vector<PhaseWireMetrics>& metrics = session.metrics();
  if (metrics.size() != 1 || !metrics[0].distributed) {
    ADD_FAILURE() << "expected one distributed phase, got " << metrics.size()
                  << " phase(s)";
    return 0;
  }
  return metrics[0].msgs_bytes;
}

void expect_identical(const LegalColoringResult& a,
                      const LegalColoringResult& b, const std::string& what) {
  EXPECT_EQ(a.colors, b.colors) << what;
  EXPECT_EQ(a.distinct, b.distinct) << what;
  EXPECT_TRUE(a.total == b.total) << what;
  EXPECT_TRUE(a.phases == b.phases) << what;
}

/// No unreaped child processes may survive a DistSession: the coordinator
/// reaps every forked worker at phase end and on every failure path.
void expect_no_zombie_children() {
  int status = 0;
  const pid_t r = ::waitpid(-1, &status, WNOHANG);
  EXPECT_TRUE(r < 0 && errno == ECHILD)
      << "a worker process outlived its DistSession (waitpid returned " << r
      << ")";
}

LegalColoringResult solo_run(const Graph& g, int bound, Preset preset,
                             int shards) {
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, shards);
  return color_graph(rt, bound, preset, knobs);
}

// ---------------------------------------------------------------------------
// Wire framing (common/wire.hpp)

TEST(Wire, FrameRoundTripPreservesHeaderAndPayload) {
  wire::ByteWriter payload;
  payload.u64(0xdeadbeefcafef00dULL);
  payload.str("hello frames");
  payload.i32(-7);
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(/*type=*/3, /*phase=*/5, /*round=*/12, payload.buf);

  const wire::FrameHeader h = wire::decode_frame_header(frame);
  EXPECT_EQ(h.type, 3);
  EXPECT_EQ(h.phase, 5);
  EXPECT_EQ(h.round, 12);
  EXPECT_EQ(h.payload_len, payload.buf.size());

  const auto body = wire::frame_payload(frame);
  ASSERT_EQ(body.size(), payload.buf.size());
  wire::ByteReader r{body, 0, "test payload"};
  EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.str(), "hello frames");
  EXPECT_EQ(r.i32(), -7);
  EXPECT_EQ(r.pos, body.size());
}

TEST(Wire, TruncatedFrameIsCorruption) {
  wire::ByteWriter payload;
  for (int i = 0; i < 64; ++i) payload.u32(static_cast<std::uint32_t>(i));
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(1, 0, 0, payload.buf);
  // Every proper prefix must be rejected structurally: a cut inside the
  // header, inside the payload, and inside the trailing checksum.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, wire::kFrameHeaderBytes,
        wire::kFrameHeaderBytes + 11, frame.size() - 1}) {
    const std::span<const std::uint8_t> cut(frame.data(), keep);
    EXPECT_THROW((void)wire::frame_payload(cut), corruption_error)
        << "prefix of " << keep << " bytes was accepted";
  }
}

TEST(Wire, FlippedBitAnywhereIsCorruption) {
  wire::ByteWriter payload;
  payload.str("checksum covers every byte");
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(2, 1, 3, payload.buf);
  ASSERT_NO_THROW((void)wire::frame_payload(frame));
  // The checksum folds 8-byte words plus a zero-padded tail word: a body
  // (header + payload) that is not a multiple of 8 puts bytes in that tail.
  ASSERT_NE((frame.size() - wire::kFrameTrailerBytes) % 8, 0u);
  // Every single-bit flip -- header, payload, tail word, trailer -- is
  // caught.
  for (std::size_t pos = 0; pos < frame.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> damaged = frame;
      damaged[pos] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_THROW((void)wire::frame_payload(damaged), corruption_error)
          << "flip of bit " << bit << " at byte " << pos << " was accepted";
    }
  }
}

TEST(Wire, TrailingBytesAfterTheChecksumAreCorruption) {
  wire::ByteWriter payload;
  payload.u64(42);
  const std::vector<std::uint8_t> frame =
      wire::encode_frame(1, 0, 0, payload.buf);
  ASSERT_NO_THROW((void)wire::frame_payload(frame));
  for (const std::size_t extra : {std::size_t{1}, std::size_t{8}}) {
    std::vector<std::uint8_t> longer = frame;
    longer.resize(frame.size() + extra, 0);
    EXPECT_THROW((void)wire::frame_payload(longer), corruption_error)
        << extra << " byte(s) past the trailer were accepted";
  }
}

TEST(Wire, BadMagicVersionAndInsaneLengthAreCorruption) {
  const std::vector<std::uint8_t> frame = wire::encode_frame(1, -1, -1, {});
  {
    std::vector<std::uint8_t> bad = frame;
    bad[0] ^= 0xff;  // magic
    EXPECT_THROW((void)wire::decode_frame_header(bad), corruption_error);
  }
  {
    std::vector<std::uint8_t> bad = frame;
    bad[4] += 1;  // version
    EXPECT_THROW((void)wire::decode_frame_header(bad), corruption_error);
  }
  {
    // A length field beyond the sanity cap must be rejected as corruption
    // BEFORE anything tries to allocate it.
    std::vector<std::uint8_t> bad = frame;
    const std::uint32_t huge = wire::kFrameMaxPayload + 1;
    for (int i = 0; i < 4; ++i) {
      bad[16 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(huge >> (8 * i));
    }
    EXPECT_THROW((void)wire::decode_frame_header(bad), corruption_error);
  }
}

TEST(Wire, ReaderBoundsChecksEveryRead) {
  const std::vector<std::uint8_t> buf = {1, 2, 3};
  wire::ByteReader r{buf, 0, "tiny buffer"};
  EXPECT_EQ(r.u8(), 1);
  EXPECT_THROW((void)r.u32(), corruption_error);
  wire::ByteReader r2{buf, 0, "tiny buffer"};
  EXPECT_THROW((void)r2.str(), corruption_error);  // length prefix missing
}

TEST(Wire, ZigzagVarintsRoundTripAtEveryWidthBoundary) {
  struct Case {
    std::int64_t word;
    std::size_t bytes;
  };
  // Zigzag puts magnitudes below 64 of either sign in one byte; -64 maps to
  // 127 (one byte) and 64 to 128 (two); the extremes take all ten.
  const std::vector<Case> cases = {{0, 1},   {1, 1},         {-1, 1},
                                   {63, 1},  {-63, 1},       {64, 2},
                                   {-64, 1}, {-65, 2},       {INT64_MIN, 10},
                                   {INT64_MAX, 10}};
  std::vector<std::int64_t> words;
  std::size_t total = 0;
  for (const Case& c : cases) {
    wire::ByteWriter w;
    w.svarint(c.word);
    EXPECT_EQ(w.buf.size(), c.bytes) << c.word;
    wire::ByteReader r{w.buf, 0, "varint"};
    EXPECT_EQ(r.svarint(), c.word);
    EXPECT_EQ(r.pos, w.buf.size());
    words.push_back(c.word);
    total += c.bytes;
  }
  // The bulk writer emits exactly the bytes of the word-at-a-time one, and
  // the bulk reader reads them back.
  wire::ByteWriter bulk;
  bulk.u8(7);
  bulk.svarints(words);
  bulk.svarints({});
  wire::ByteWriter one_by_one;
  one_by_one.u8(7);
  for (const std::int64_t x : words) one_by_one.svarint(x);
  EXPECT_EQ(bulk.buf, one_by_one.buf);
  ASSERT_EQ(bulk.buf.size(), 1 + total);
  wire::ByteReader r{bulk.buf, 0, "bulk varints"};
  EXPECT_EQ(r.u8(), 7);
  std::vector<std::int64_t> back(words.size());
  r.svarints(back);
  EXPECT_EQ(back, words);
  EXPECT_EQ(r.pos, bulk.buf.size());
  r.svarints({});  // an empty read at the end is in bounds
  // The unsigned form: LEB128, low group first.
  wire::ByteWriter u;
  u.uvarint(300);
  EXPECT_EQ(u.buf, (std::vector<std::uint8_t>{0xac, 0x02}));
  u.buf.clear();
  u.uvarint(UINT64_MAX);
  wire::ByteReader ur{u.buf, 0, "uvarint"};
  EXPECT_EQ(ur.uvarint(), UINT64_MAX);
}

TEST(Wire, MalformedVarintsAreCorruption) {
  const auto expect_corrupt = [](const std::vector<std::uint8_t>& bytes,
                                 const char* what) {
    wire::ByteReader r{bytes, 0, "varint"};
    EXPECT_THROW((void)r.uvarint(), corruption_error) << what;
    wire::ByteReader s{bytes, 0, "varint"};
    EXPECT_THROW((void)s.svarint(), corruption_error) << what;
  };
  expect_corrupt({}, "empty buffer");
  expect_corrupt({0x80}, "continuation bit on the last byte");
  expect_corrupt({0xff, 0xff, 0xff}, "truncated three-byte varint");
  // 11 bytes: ten continuation bytes, then a terminator.
  std::vector<std::uint8_t> overlong(10, 0x80);
  overlong.push_back(0x00);
  expect_corrupt(overlong, "11-byte overlong varint");
  // A 10th byte above 1 would set bits past the 64th.
  std::vector<std::uint8_t> wide(9, 0xff);
  wide.push_back(0x02);
  expect_corrupt(wide, "10th byte greater than 1");
  // ... while a 10th byte of 1 is the 64th bit, and valid.
  wide.back() = 0x01;
  wire::ByteReader ok{wide, 0, "varint"};
  EXPECT_EQ(ok.uvarint(), UINT64_MAX);

  // More words than the buffer has bytes: rejected, and nothing consumed.
  const std::vector<std::uint8_t> three = {1, 2, 3};
  wire::ByteReader cut{three, 1, "bulk varints"};
  std::vector<std::int64_t> too_many(3);
  EXPECT_THROW(cut.svarints(too_many), corruption_error);
  EXPECT_EQ(cut.pos, 1u);
  // Enough bytes for the count, but the last varint runs off the end.
  const std::vector<std::uint8_t> ragged = {1, 2, 0x80};
  wire::ByteReader rr{ragged, 0, "bulk varints"};
  std::vector<std::int64_t> out(3);
  EXPECT_THROW(rr.svarints(out), corruption_error);
}

TEST(Wire, MalformedMsgsEntriesAreRejectedOnReceipt) {
  // Two workers of two shards each: the hub (shard 0) calls its leaves 8..15
  // on worker 1 and its one local leaf, vertex 1. The coordinator relays
  // one kMsgs frame, worker 0 -> worker 1, which each case rewrites (with a
  // valid checksum) before the destination decodes it. Each malformed entry
  // must fail its check, which runs before the entry's cell is written, and
  // the error must reach the coordinator with its type.
  constexpr V kN = 16;
  std::vector<V> leaves = {1};
  for (V v = 8; v < kN; ++v) leaves.push_back(v);
  const Graph g = hub_graph(kN, leaves);
  // Payload offsets of the single group's fields (see DESIGN.md, "Wire
  // format"): dest 0, n_groups 4, sender_shard 8, n_broadcasts 12, then
  // the first broadcast entry's vertex 16 and length 20.
  constexpr std::size_t kShardAt = 8, kVertexAt = 16, kLenAt = 20;
  const auto put = [](std::vector<std::uint8_t>& p, std::size_t at,
                      std::uint32_t v) { wire::put_u32(p.data() + at, v); };
  struct Case {
    const char* what;
    bool per_port;
    std::function<void(std::vector<std::uint8_t>&)> tamper;
    const char* message;  // nullptr: the run must succeed
  };
  const std::vector<Case> cases = {
      {"untouched broadcast", false, [](auto&) {}, nullptr},
      {"untouched per-slot entries", true, [](auto&) {}, nullptr},
      {"vertex >= n", false,
       [&](auto& p) { put(p, kVertexAt, static_cast<std::uint32_t>(kN)); },
       "outside its sender shard"},
      {"vertex outside the named sender shard", false,
       [&](auto& p) { put(p, kVertexAt, 4); }, "outside its sender shard"},
      {"vertex in the destination's own range", false,
       [&](auto& p) {
         put(p, kShardAt, 2);
         put(p, kVertexAt, 8);
       },
       "sender shard of this worker"},
      {"vertex with no neighbor on the destination", false,
       [&](auto& p) { put(p, kVertexAt, 1); }, "no receiver on this worker"},
      {"length the payload cannot hold", false,
       [&](auto& p) { p[kLenAt] = 100; }, "truncated"},
      {"per-slot entry whose sender is outside the named shard", true,
       [&](auto& p) { put(p, kShardAt, 1); }, "outside its sender shard"},
  };
  for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(dist::backend_name(backend)) + ": " + c.what);
      sim::Runtime rt(g, 4, /*inline_shards=*/true);
      DistConfig cfg;
      cfg.workers = 2;
      cfg.backend = backend;
      int relayed = 0;
      cfg.tamper_msgs = [&](std::vector<std::uint8_t>& payload) {
        ++relayed;
        c.tamper(payload);
      };
      DistSession session(rt, cfg);
      HubCall program(kN, /*at=*/2, c.per_port);
      try {
        rt.run_phase(program, 16);
        EXPECT_EQ(c.message, nullptr) << "a malformed entry was applied";
        EXPECT_EQ(program.heard()[8], program.heard()[15]);
        EXPECT_NE(program.heard()[8], 0);
      } catch (const corruption_error& e) {
        ASSERT_NE(c.message, nullptr) << e.what();
        EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
            << e.what();
      } catch (const invariant_error& e) {
        ASSERT_NE(c.message, nullptr) << e.what();
        EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(relayed, 1);
    }
    expect_no_zombie_children();
  }
}

TEST(Wire, ChecksumMatchesCheckpointIdiom) {
  // checksum64 is the shared fold: order-dependent, seed-dependent.
  const std::vector<std::uint8_t> a = {1, 2, 3, 4};
  const std::vector<std::uint8_t> b = {4, 3, 2, 1};
  EXPECT_NE(wire::checksum64(1, a), wire::checksum64(1, b));
  EXPECT_NE(wire::checksum64(1, a), wire::checksum64(2, a));
  EXPECT_EQ(wire::checksum64(7, a), wire::checksum64(7, a));
  // Zero padding of the tail word must not hide an appended zero byte, nor
  // make the empty stream equal {0}: the fold ends with the byte count.
  std::vector<std::uint8_t> a0 = a;
  a0.push_back(0);
  EXPECT_NE(wire::checksum64(1, a), wire::checksum64(1, a0));
  const std::vector<std::uint8_t> zero = {0};
  EXPECT_NE(wire::checksum64(1, {}), wire::checksum64(1, zero));
  // The same at a full-word boundary: 8 bytes vs 8 bytes + a zero word.
  const std::vector<std::uint8_t> w8(8, 5);
  std::vector<std::uint8_t> w16 = w8;
  w16.resize(16, 0);
  EXPECT_NE(wire::checksum64(1, w8), wire::checksum64(1, w16));
}

// ---------------------------------------------------------------------------
// Bit-identity: distributed == the reference executor / in-process, at
// every shard/worker count

TEST(DistIdentity, LoopbackMatchesInProcessAcrossPresetsShardsWorkers) {
  struct Instance {
    std::string family;
    Graph g;
    int bound;
  };
  std::vector<Instance> instances;
  instances.push_back({"planted", planted_arboricity(150, 3, 11), 3});
  instances.push_back({"gnm", random_gnm(120, 360, 5), 0});
  for (Instance& inst : instances) {
    if (inst.bound == 0) {
      inst.bound = std::max(1, arboricity_bounds(inst.g).second);
    }
  }
  const std::vector<Preset> presets = {
      Preset::LinearColors,     Preset::NearLinearColors,
      Preset::PolylogTime,      Preset::FastSubquadratic,
      Preset::TradeoffAT,       Preset::DeltaPlusOneLowArb};
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;

  for (const Instance& inst : instances) {
    for (const Preset preset : presets) {
      const LegalColoringResult base =
          dvc_test::reference_coloring(inst.g, inst.bound, preset, knobs);
      EXPECT_TRUE(is_legal_coloring(inst.g, base.colors));
      for (const int shards : {1, 2, 8}) {
        for (const int workers : {2, 3}) {
          SCOPED_TRACE(inst.family + " preset=" + preset_name(preset) +
                       " shards=" + std::to_string(shards) +
                       " workers=" + std::to_string(workers));
          sim::Runtime rt(inst.g, shards, /*inline_shards=*/true);
          DistConfig cfg;
          cfg.workers = workers;
          cfg.backend = Backend::kLoopback;
          DistSession session(rt, cfg);
          const LegalColoringResult got =
              color_graph(rt, inst.bound, preset, knobs);
          expect_identical(base, got, "loopback diverged from the reference");
          // Wire accounting: at least one phase actually crossed the
          // (simulated) wire, and declared CONGEST totals match the stats.
          const PhaseWireMetrics totals = session.totals();
          EXPECT_TRUE(totals.distributed);
          EXPECT_GT(totals.wire_bytes, 0u);
          EXPECT_GT(totals.frames, 0u);
          EXPECT_GT(totals.round_trips, 0u);
        }
      }
    }
  }
}

TEST(DistIdentity, ForkMatchesInProcessAndLoopbackByteForByte) {
  const Graph g = planted_arboricity(140, 3, 7);
  const int bound = 3;
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  const LegalColoringResult base =
      solo_run(g, bound, Preset::PolylogTime, 2);

  for (const int shards : {1, 2, 8}) {
    for (const int workers : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      // Loopback first: the oracle for the wire traffic.
      std::vector<PhaseWireMetrics> loop_metrics;
      {
        sim::Runtime rt(g, shards, /*inline_shards=*/true);
        DistConfig cfg;
        cfg.workers = workers;
        cfg.backend = Backend::kLoopback;
        DistSession session(rt, cfg);
        const LegalColoringResult got =
            color_graph(rt, bound, Preset::PolylogTime, knobs);
        expect_identical(base, got, "loopback diverged");
        loop_metrics = session.metrics();
      }
      // Fork: real processes over socketpairs, same frames on the wire.
      {
        sim::Runtime rt(g, shards, /*inline_shards=*/true);
        DistConfig cfg;
        cfg.workers = workers;
        cfg.backend = Backend::kFork;
        DistSession session(rt, cfg);
        const LegalColoringResult got =
            color_graph(rt, bound, Preset::PolylogTime, knobs);
        expect_identical(base, got, "fork diverged");
        const auto& fork_metrics = session.metrics();
        ASSERT_EQ(fork_metrics.size(), loop_metrics.size());
        for (std::size_t i = 0; i < fork_metrics.size(); ++i) {
          EXPECT_EQ(fork_metrics[i].distributed, loop_metrics[i].distributed);
          EXPECT_EQ(fork_metrics[i].wire_bytes, loop_metrics[i].wire_bytes)
              << "phase '" << fork_metrics[i].label
              << "': fork and loopback must encode identical wire traffic";
          EXPECT_EQ(fork_metrics[i].frames, loop_metrics[i].frames);
          EXPECT_EQ(fork_metrics[i].round_trips, loop_metrics[i].round_trips);
        }
      }
      expect_no_zombie_children();
    }
  }
}

TEST(DistIdentity, WorkerCountAboveShardsClampsAndStillMatches) {
  const Graph g = random_gnm(90, 240, 3);
  const int bound = std::max(1, arboricity_bounds(g).second);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  const LegalColoringResult base =
      solo_run(g, bound, Preset::NearLinearColors, 2);
  sim::Runtime rt(g, /*shards=*/2, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 16;  // only 2 shards exist: clamps to 2 workers
  cfg.backend = Backend::kFork;
  DistSession session(rt, cfg);
  EXPECT_EQ(session.effective_workers(), 2);
  const LegalColoringResult got =
      color_graph(rt, bound, Preset::NearLinearColors, knobs);
  expect_identical(base, got, "clamped worker count diverged");
  expect_no_zombie_children();
}

TEST(DistIdentity, DeclaredCongestWordsMatchRunStatsTotals) {
  const Graph g = planted_arboricity(120, 3, 19);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kLoopback;
  DistSession session(rt, cfg);
  const LegalColoringResult got =
      color_graph(rt, 3, Preset::LinearColors, knobs);
  // Per-phase declared words/messages are the phase's RunStats totals: the
  // CONGEST cost the paper reasons about, reported NEXT TO measured bytes.
  // The measured bytes and frames are pinned exactly for this graph, so any
  // change to the wire format shows here as a deliberate edit.
  struct Pinned {
    const char* label;
    std::uint64_t wire_bytes;
    std::uint64_t frames;
  };
  const std::vector<Pinned> pinned = {{"h-partition", 4152, 32},
                                      {"linial", 1314, 8},
                                      {"kw-reduce", 27110, 270},
                                      {"final-orient", 3424, 16},
                                      {"greedy-by-orientation", 12696, 84}};
  std::uint64_t declared_words = 0;
  std::uint64_t declared_messages = 0;
  std::size_t seen = 0;
  for (const PhaseWireMetrics& m : session.metrics()) {
    if (!m.distributed) continue;
    declared_words += m.declared_words;
    declared_messages += m.declared_messages;
    ASSERT_LT(seen, pinned.size()) << "unpinned phase '" << m.label << "'";
    const Pinned& want = pinned[seen++];
    EXPECT_EQ(m.label, want.label);
    EXPECT_EQ(m.wire_bytes, want.wire_bytes) << "phase '" << m.label << "'";
    EXPECT_EQ(m.frames, want.frames) << "phase '" << m.label << "'";
  }
  EXPECT_EQ(seen, pinned.size());
  EXPECT_LE(declared_words, got.total.words);
  EXPECT_LE(declared_messages, got.total.messages);
  EXPECT_GT(declared_words, 0u);
}

TEST(DistIdentity, ProgramsOutsideThePresetsShipTheirVertexState) {
  // Simple-Arbdefective, Cole-Vishkin and the MIS color sweep are
  // dist-capable, but no preset pipeline runs them, so only a direct call
  // exercises their save/load_vertex_state hooks. Each phase must run on
  // the workers and leave outputs and RunStats equal to the in-process run.
  // Loopback workers share the coordinator's program object, so only the
  // fork backend catches a load hook that drops a value.
  const auto expect_distributed = [](const DistSession& session,
                                     const std::string& label) {
    int seen = 0;
    for (const PhaseWireMetrics& m : session.metrics()) {
      if (m.label != label) continue;
      ++seen;
      EXPECT_TRUE(m.distributed) << "phase '" << label << "' ran locally";
      EXPECT_GT(m.wire_bytes, 0u) << label;
    }
    EXPECT_EQ(seen, 1) << label;
  };
  const Graph g = planted_arboricity(160, 3, 23);
  const Graph ring = cycle_graph(97);

  sim::Runtime arb_local(g, 2, /*inline_shards=*/true);
  const CompleteOrientationResult ori = complete_orientation(arb_local, 3);
  const SimpleArbResult arb_want = simple_arbdefective(arb_local, ori.sigma, 3);
  sim::Runtime cv_local(ring, 2, /*inline_shards=*/true);
  const RingColoringResult cv_want = cole_vishkin_ring(cv_local);
  sim::Runtime mis_local(g, 2, /*inline_shards=*/true);
  const MisResult mis_want = deterministic_mis(mis_local, 3);

  for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
    SCOPED_TRACE(dist::backend_name(backend));
    DistConfig cfg;
    cfg.workers = 2;
    cfg.backend = backend;
    {
      sim::Runtime rt(g, 2, /*inline_shards=*/true);
      DistSession session(rt, cfg);
      const SimpleArbResult got = simple_arbdefective(rt, ori.sigma, 3);
      EXPECT_EQ(got.colors, arb_want.colors);
      EXPECT_TRUE(got.stats == arb_want.stats);
      expect_distributed(session, "simple-arbdefective");
    }
    {
      sim::Runtime rt(ring, 2, /*inline_shards=*/true);
      DistSession session(rt, cfg);
      const RingColoringResult got = cole_vishkin_ring(rt);
      EXPECT_TRUE(is_legal_coloring(ring, got.colors));
      EXPECT_EQ(got.colors, cv_want.colors);
      EXPECT_TRUE(got.stats == cv_want.stats);
      expect_distributed(session, "cole-vishkin");
    }
    {
      sim::Runtime rt(g, 2, /*inline_shards=*/true);
      DistSession session(rt, cfg);
      const MisResult got = deterministic_mis(rt, 3);
      EXPECT_EQ(got.in_mis, mis_want.in_mis);
      EXPECT_EQ(got.colors_used, mis_want.colors_used);
      EXPECT_TRUE(got.total == mis_want.total);
      EXPECT_TRUE(got.phases == mis_want.phases);
      expect_distributed(session, "mis-color-sweep");
    }
    expect_no_zombie_children();
  }
}

/// A LOCAL-model program (no declared width) whose every message is wide
/// enough to need a two-byte length and whose words take every varint
/// width from one byte to ten: negatives, INT64_MIN, INT64_MAX and the
/// receiver's running digest. Each vertex folds every word it hears into
/// its digest, so a word damaged anywhere on the wire changes an output.
class WideWords : public sim::VertexProgram {
 public:
  WideWords(V n, int rounds)
      : digest_(static_cast<std::size_t>(n), 0), rounds_(rounds) {}
  std::string name() const override { return "wide-words"; }
  bool dist_capable() const override { return true; }
  void begin(sim::Ctx& ctx) override { speak(ctx); }
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    std::uint64_t& h = digest_[static_cast<std::size_t>(ctx.vertex())];
    for (const sim::MsgView& m : inbox) {
      h = dvc::detail::digest_mix(h, static_cast<std::uint64_t>(m.port));
      for (const std::int64_t w : m.data) {
        h = dvc::detail::digest_mix(h, static_cast<std::uint64_t>(w));
      }
    }
    if (ctx.round() >= rounds_) {
      ctx.halt();
      return;
    }
    speak(ctx);
  }
  void save_vertex_state(V v, wire::ByteWriter& w) const override {
    w.u64(digest_[static_cast<std::size_t>(v)]);
  }
  void load_vertex_state(V v, wire::ByteReader& r) override {
    digest_[static_cast<std::size_t>(v)] = r.u64();
  }
  const std::vector<std::uint64_t>& digests() const { return digest_; }

 private:
  void speak(sim::Ctx& ctx) {
    const std::int64_t v = ctx.vertex();
    const std::int64_t h = static_cast<std::int64_t>(
        digest_[static_cast<std::size_t>(v)]);
    std::vector<std::int64_t>& words = ctx.scratch();
    words.clear();
    words.push_back(INT64_MIN);
    words.push_back(INT64_MAX);
    const std::int64_t width = 128 + (v + ctx.round()) % 5;
    for (std::int64_t i = 2; i < width; ++i) {
      const auto u = static_cast<std::uint64_t>(i);
      switch (i % 4) {
        case 0:
          words.push_back(-i);
          break;
        case 1:  // up to 63 significant bits, so it may wrap negative
          words.push_back(static_cast<std::int64_t>(u << (i % 57)));
          break;
        case 2:
          words.push_back(-(v + 1) * static_cast<std::int64_t>(u << (i % 41)));
          break;
        default:
          words.push_back(h ^ i);
          break;
      }
    }
    ctx.broadcast(words);
  }

  std::vector<std::uint64_t> digest_;
  int rounds_;
};

TEST(DistIdentity, WideLocalPayloadsCrossBothBackendsIntact) {
  // Under the LOCAL model (no word budget) payloads of 128+ words take the
  // multi-byte length and every varint width across processes. Every
  // backend and worker count must reproduce the in-process run, and fork and
  // loopback must put identical bytes on the wire.
  const Graph g = planted_arboricity(90, 3, 29);
  const int rounds = 4;
  sim::Runtime solo(g, 3, /*inline_shards=*/true);
  ASSERT_EQ(solo.congest_words(), 0);
  WideWords want_program(g.num_vertices(), rounds);
  const sim::RunStats want = solo.run_phase(want_program, 16);
  ASSERT_GE(want.max_msg_words, 128u);

  for (const int workers : {2, 3}) {
    std::vector<PhaseWireMetrics> per_backend;
    for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
      SCOPED_TRACE(std::string(dist::backend_name(backend)) +
                   " workers=" + std::to_string(workers));
      sim::Runtime rt(g, 3, /*inline_shards=*/true);
      DistConfig cfg;
      cfg.workers = workers;
      cfg.backend = backend;
      DistSession session(rt, cfg);
      WideWords program(g.num_vertices(), rounds);
      const sim::RunStats got = rt.run_phase(program, 16);
      EXPECT_TRUE(got == want);
      EXPECT_EQ(program.digests(), want_program.digests());
      ASSERT_EQ(session.metrics().size(), 1u);
      EXPECT_TRUE(session.metrics()[0].distributed);
      per_backend.push_back(session.metrics()[0]);
      expect_no_zombie_children();
    }
    EXPECT_EQ(per_backend[0].wire_bytes, per_backend[1].wire_bytes)
        << "fork and loopback must encode identical wire traffic";
    EXPECT_EQ(per_backend[0].frames, per_backend[1].frames);
  }
}

TEST(DistIdentity, HubBroadcastCrossesOncePerDestinationWhateverItsFanIn) {
  // The hub on worker 0, its k leaves on worker 1. A broadcast crosses as
  // one entry whatever k is; a send per port crosses as one entry per
  // remote edge.
  for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
    SCOPED_TRACE(dist::backend_name(backend));
    for (const bool per_port : {false, true}) {
      std::vector<std::uint64_t> msgs_bytes;
      for (const V k : {4, 64}) {
        SCOPED_TRACE((per_port ? "per-port k=" : "broadcast k=") +
                     std::to_string(k));
        std::vector<V> leaves;
        for (V v = k; v < 2 * k; ++v) leaves.push_back(v);
        const Graph g = hub_graph(2 * k, leaves);
        sim::Runtime rt(g, 2, /*inline_shards=*/true);
        DistConfig cfg;
        cfg.workers = 2;
        cfg.backend = backend;
        DistSession session(rt, cfg);
        HubCall program(g.num_vertices(), /*at=*/1, per_port);
        EXPECT_EQ(rt.run_phase(program, 16).messages,
                  static_cast<std::uint64_t>(k));
        EXPECT_NE(program.heard()[static_cast<std::size_t>(2 * k - 1)], 0);
        msgs_bytes.push_back(only_phase_msgs_bytes(session));
      }
      // One frame, relayed: two hops.
      const std::uint64_t entries_at_4 = per_port ? 4 : 1;
      EXPECT_EQ(msgs_bytes[0],
                2 * (kOneHubEntryFrame + (entries_at_4 - 1) * kHubEntry));
      EXPECT_EQ(msgs_bytes[1] - msgs_bytes[0],
                per_port ? 2 * (64 - 4) * kHubEntry : 0);
    }
    expect_no_zombie_children();
  }
}

TEST(DistIdentity, StarSplitAcrossTwoWorkersWakesSleepersAndMatchesReference) {
  // Three workers of 8 vertices each. The hub (0) has two local leaves, and
  // its remote leaves are a run in the middle of its row on worker 1 and a
  // run at its end on worker 2; two leaf-leaf edges shift port numbers. The
  // leaves sleep until mail, so a fork worker's leaves wake only through
  // the mail stamps its own apply_msgs writes into its private arena.
  const std::vector<V> leaves = {1, 2, 9, 11, 12, 15, 16, 17, 20, 23};
  const Graph g = hub_graph(24, leaves, {{9, 16}, {2, 20}});
  for (const bool per_port : {false, true}) {
    SCOPED_TRACE(per_port ? "per-port" : "broadcast");
    dvc_test::ReferenceSession ref(g);
    HubCall want_program(g.num_vertices(), /*at=*/3, per_port);
    const sim::RunStats want = ref.runtime().run_phase(want_program, 16);
    ASSERT_EQ(want.messages, leaves.size());
    for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
      SCOPED_TRACE(dist::backend_name(backend));
      sim::Runtime rt(g, 3, /*inline_shards=*/true);
      DistConfig cfg;
      cfg.workers = 3;
      cfg.backend = backend;
      DistSession session(rt, cfg);
      HubCall program(g.num_vertices(), /*at=*/3, per_port);
      EXPECT_TRUE(rt.run_phase(program, 16) == want);
      EXPECT_EQ(program.heard(), want_program.heard());
      // Two frames (to workers 1 and 2), each relayed: four hops. A
      // broadcast is one entry per frame; sends per port are one entry per
      // remote leaf, four per frame.
      const std::uint64_t per_frame =
          kOneHubEntryFrame + (per_port ? 3 * kHubEntry : 0);
      EXPECT_EQ(only_phase_msgs_bytes(session), 4 * per_frame);
    }
    expect_no_zombie_children();
  }
}

TEST(DistIdentity, FaultArmedPhaseNeverReachesTheWire) {
  // Fault-armed phases keep every message in its own per-edge cell for the
  // injector, and are never offered to the transport: under a DistSession
  // the phase runs on the coordinator, records no wire metrics and crosses
  // no wire.
  const std::vector<V> leaves = {1, 2, 9, 11, 12, 15, 16, 17, 20, 23};
  const Graph g = hub_graph(24, leaves);
  dvc_test::ReferenceSession ref(g);
  HubCall want_program(g.num_vertices(), /*at=*/3, /*per_port=*/false);
  const sim::RunStats want = ref.runtime().run_phase(want_program, 16);
  sim::Runtime rt(g, 3, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 3;
  cfg.backend = Backend::kLoopback;
  DistSession session(rt, cfg);
  sim::FaultPlan plan;
  plan.scheduled.push_back({sim::FaultKind::kShardFailure, /*phase=*/99});
  sim::ScopedFaultPlan faults(rt, plan);
  HubCall program(g.num_vertices(), /*at=*/3, /*per_port=*/false);
  EXPECT_TRUE(rt.run_phase(program, 16) == want);
  EXPECT_EQ(program.heard(), want_program.heard());
  EXPECT_TRUE(session.metrics().empty()) << "the phase was offered";
  EXPECT_EQ(session.totals().wire_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Failure edges: structured errors, never hangs, never leaks processes

TEST(DistFailure, SigkilledForkWorkerRaisesTransientWorkerLost) {
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kFork;
  cfg.kill_at_sweep = 3;  // SIGKILL worker 1 mid-pipeline, mid-round
  cfg.kill_worker = 1;
  DistSession session(rt, cfg);
  try {
    (void)color_graph(rt, 3, Preset::PolylogTime, knobs);
    FAIL() << "killed worker did not surface";
  } catch (const worker_lost_error& e) {
    EXPECT_EQ(e.worker, 1);
    EXPECT_GE(e.phase, 0);
    EXPECT_NE(std::string(e.what()).find("worker 1"), std::string::npos);
    // The taxonomy contract: worker death is TRANSIENT (retry-safe), which
    // is what routes it into the service's self-healing path.
    const transient_error& as_transient = e;
    (void)as_transient;
  }
  expect_no_zombie_children();
}

TEST(DistFailure, LoopbackKillRaisesTheSameTaxonomy) {
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kLoopback;
  cfg.kill_at_sweep = 3;
  cfg.kill_worker = 0;
  DistSession session(rt, cfg);
  EXPECT_THROW((void)color_graph(rt, 3, Preset::PolylogTime, knobs),
               worker_lost_error);
}

TEST(DistFailure, CorruptedStatsFrameIsDetectedByTheChecksum) {
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
    SCOPED_TRACE(dist::backend_name(backend));
    sim::Runtime rt(g, 4, /*inline_shards=*/true);
    DistConfig cfg;
    cfg.workers = 2;
    cfg.backend = backend;
    cfg.corrupt_at_sweep = 2;  // flip a payload byte AFTER frame encoding
    cfg.corrupt_worker = 1;
    DistSession session(rt, cfg);
    EXPECT_THROW((void)color_graph(rt, 3, Preset::PolylogTime, knobs),
                 corruption_error);
    expect_no_zombie_children();
  }
}

TEST(DistFailure, SessionStaysSoundAfterAWorkerDeath) {
  // The pool-reuse contract extended to the transport: a session whose
  // distributed phase lost a worker is scrubbed at the phase boundary and
  // then serves bit-identical results again.
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  const LegalColoringResult base =
      solo_run(g, 3, Preset::NearLinearColors, 4);

  sim::Runtime rt(g, 4, /*inline_shards=*/true);
  {
    DistConfig cfg;
    cfg.workers = 2;
    cfg.backend = Backend::kFork;
    cfg.kill_at_sweep = 2;
    DistSession session(rt, cfg);
    EXPECT_THROW(
        (void)color_graph(rt, 3, Preset::NearLinearColors, knobs),
        worker_lost_error);
  }
  expect_no_zombie_children();
  rt.reset_log();
  {
    DistConfig cfg;
    cfg.workers = 2;
    cfg.backend = Backend::kFork;
    DistSession session(rt, cfg);
    const LegalColoringResult healed =
        color_graph(rt, 3, Preset::NearLinearColors, knobs);
    expect_identical(base, healed, "post-death session diverged");
  }
  expect_no_zombie_children();
}

TEST(DistFailure, CoordinatorTeardownWithFramesInFlightNeverHangs) {
  // Tear the coordinator down while workers are mid-phase (frames queued,
  // workers parked in recv): the DistSession destructor must kill, reap and
  // return -- a hang here would time the whole suite out.
  const Graph g = planted_arboricity(140, 3, 7);
  Knobs knobs;
  knobs.congest_words = kCongestWordsPaperPath;
  auto rt = std::make_unique<sim::Runtime>(g, 4, /*inline_shards=*/true);
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kFork;
  cfg.kill_at_sweep = 4;
  auto session = std::make_unique<DistSession>(*rt, cfg);
  EXPECT_THROW((void)color_graph(*rt, 3, Preset::PolylogTime, knobs),
               worker_lost_error);
  // Unwind order mirrors a crashing coordinator: session first (kills and
  // reaps the abandoned workers of the failed phase), then the runtime.
  session.reset();
  rt.reset();
  expect_no_zombie_children();
}

TEST(DistFailure, ThreadedSessionRejectsTheTransportStructurally) {
  // The fork backend must never fork a process carrying parked shard
  // threads; set_phase_executor enforces inline shards at install time.
  const Graph g = cycle_graph(64);
  sim::Runtime rt(g, 4);  // threaded session
  DistConfig cfg;
  cfg.workers = 2;
  EXPECT_THROW({ DistSession session(rt, cfg); }, std::exception);
}

TEST(DistFailure, BandwidthErrorInAWorkerCrossesTheWireIntact) {
  // A CONGEST violation inside a worker process must arrive at the
  // coordinator as the SAME structured type with its fields -- the error
  // taxonomy survives serialization.
  const Graph g = cycle_graph(96);
  Knobs knobs;
  sim::Runtime rt(g, 2, /*inline_shards=*/true);
  rt.set_congest_words(2);  // FloodAll sends 3-word payloads
  DistConfig cfg;
  cfg.workers = 2;
  cfg.backend = Backend::kFork;
  DistSession session(rt, cfg);
  DistFlood flood(4);
  try {
    rt.run_phase(flood, 16);
    FAIL() << "bandwidth violation did not surface";
  } catch (const sim::bandwidth_error& e) {
    EXPECT_EQ(e.words, 3);
    EXPECT_EQ(e.cap, 2);
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
  expect_no_zombie_children();
}

/// DistFlood that throws one error kind from `victim`'s step in round 1.
class ThrowingFlood : public DistFlood {
 public:
  enum class Kind {
    kTransient,
    kCorruption,
    kPrecondition,
    kBadAlloc,
    kInvariant
  };
  ThrowingFlood(Kind kind, V victim)
      : DistFlood(4), kind_(kind), victim_(victim) {}
  void step(sim::Ctx& ctx, const sim::Inbox& inbox) override {
    if (ctx.vertex() == victim_ && ctx.round() == 1) {
      switch (kind_) {
        case Kind::kTransient:
          throw transient_error("transient probe");
        case Kind::kCorruption:
          throw corruption_error("corruption probe", "probe-phase", 5, 1, 11,
                                 22);
        case Kind::kPrecondition:
          throw precondition_error("precondition probe");
        case Kind::kBadAlloc:
          throw std::bad_alloc{};
        case Kind::kInvariant:
          throw invariant_error("invariant probe");
      }
    }
    DistFlood::step(ctx, inbox);
  }

 private:
  Kind kind_;
  V victim_;
};

TEST(DistFailure, EveryErrorKindCrossesTheWireWithItsType) {
  // Each kind a worker sweep can raise is encoded into a kError frame and
  // rethrown on the coordinator with its original type, its fields, and a
  // prefix naming the worker (the runtime may add phase context in front of
  // that). Vertex 80 of 96 lives in shard 1, which is worker 1's.
  using Kind = ThrowingFlood::Kind;
  const Graph g = cycle_graph(96);
  const V victim = 80;
  const auto expect_from_worker_1 = [](const std::exception& e,
                                       const std::string& what) {
    const std::string got = e.what();
    const std::string want = "worker 1: " + what;
    EXPECT_TRUE(got.size() >= want.size() &&
                got.compare(got.size() - want.size(), want.size(), want) == 0)
        << got;
  };
  for (const Backend backend : {Backend::kLoopback, Backend::kFork}) {
    for (const Kind kind : {Kind::kTransient, Kind::kCorruption,
                            Kind::kPrecondition, Kind::kBadAlloc,
                            Kind::kInvariant}) {
      SCOPED_TRACE(std::string(dist::backend_name(backend)) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      sim::Runtime rt(g, 2, /*inline_shards=*/true);
      DistConfig cfg;
      cfg.workers = 2;
      cfg.backend = backend;
      DistSession session(rt, cfg);
      ThrowingFlood program(kind, victim);
      try {
        rt.run_phase(program, 16);
        ADD_FAILURE() << "the worker's error did not surface";
      } catch (const corruption_error& e) {
        EXPECT_EQ(kind, Kind::kCorruption);
        expect_from_worker_1(e, "corruption probe");
        EXPECT_EQ(e.phase_label, "probe-phase");
        EXPECT_EQ(e.phase, 5);
        EXPECT_EQ(e.round, 1);
        EXPECT_EQ(e.expected_messages, 11u);
        EXPECT_EQ(e.observed_messages, 22u);
      } catch (const worker_lost_error& e) {
        ADD_FAILURE() << "a thrown error surfaced as a lost worker: "
                      << e.what();
      } catch (const transient_error& e) {
        EXPECT_EQ(kind, Kind::kTransient);
        expect_from_worker_1(e, "transient probe");
      } catch (const precondition_error& e) {
        EXPECT_EQ(kind, Kind::kPrecondition);
        expect_from_worker_1(e, "precondition probe");
      } catch (const std::bad_alloc&) {
        EXPECT_EQ(kind, Kind::kBadAlloc);
      } catch (const invariant_error& e) {
        EXPECT_EQ(kind, Kind::kInvariant);
        expect_from_worker_1(e, "invariant probe");
      }
      expect_no_zombie_children();
    }
  }
}

// ---------------------------------------------------------------------------
// Service integration: pool scheduling jobs onto worker processes

JobSpec dist_spec(ColoringService& svc, const Graph& g, int workers,
                  Backend backend) {
  JobSpec spec;
  spec.graph = svc.intern(Graph(g));
  spec.arboricity_bound = 3;
  spec.preset = Preset::NearLinearColors;
  spec.knobs.congest_words = kCongestWordsPaperPath;
  spec.dist.workers = workers;
  spec.dist.backend = backend;
  return spec;
}

TEST(DistService, DistributedJobMatchesInProcessJobAndReportsWireBytes) {
  const Graph g = planted_arboricity(150, 3, 11);
  const LegalColoringResult base =
      solo_run(g, 3, Preset::NearLinearColors, 2);

  ServiceConfig config;
  config.workers = 2;
  config.default_shards = 2;
  // A distributed run is bit-identical to the in-process run, so the result
  // cache deliberately shares entries across the two flavors; disable it so
  // the distributed job actually executes and fills its wire metadata.
  config.result_cache_capacity = 0;
  ColoringService svc(config);
  // In-process job for reference...
  JobSpec plain = dist_spec(svc, g, /*workers=*/0, Backend::kFork);
  const JobResult plain_res = svc.wait(svc.submit(std::move(plain)));
  ASSERT_TRUE(plain_res.ok) << plain_res.error;
  expect_identical(base, plain_res.result, "in-process service job");
  EXPECT_EQ(plain_res.dist_workers, 0);
  EXPECT_EQ(plain_res.wire_bytes, 0u);
  // ...then the same work over 2 worker processes.
  JobSpec dist = dist_spec(svc, g, /*workers=*/2, Backend::kFork);
  const JobResult dist_res = svc.wait(svc.submit(std::move(dist)));
  ASSERT_TRUE(dist_res.ok) << dist_res.error;
  expect_identical(base, dist_res.result, "distributed service job");
  EXPECT_EQ(dist_res.dist_workers, 2);
  EXPECT_GT(dist_res.wire_bytes, 0u);
  EXPECT_GT(dist_res.wire_frames, 0u);
}

TEST(DistService, PoolKeysThreadedAndInlineSessionsSeparately) {
  // A distributed job must never be handed a threaded session or vice
  // versa: the two flavors pool under distinct keys, so alternating jobs
  // still warm-hit their own kind.
  const Graph g = planted_arboricity(150, 3, 11);
  ServiceConfig config;
  config.workers = 1;
  config.default_shards = 2;
  config.result_cache_capacity = 0;  // force every job through a session
  ColoringService svc(config);
  for (int round = 0; round < 2; ++round) {
    JobSpec plain = dist_spec(svc, g, 0, Backend::kFork);
    JobSpec dist = dist_spec(svc, g, 2, Backend::kLoopback);
    const JobResult a = svc.wait(svc.submit(std::move(plain)));
    const JobResult b = svc.wait(svc.submit(std::move(dist)));
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.result.colors, b.result.colors);
    if (round == 1) {
      // Second round: both flavors should have found a warm session of
      // their own kind in the pool.
      EXPECT_TRUE(a.warm_session);
      EXPECT_TRUE(b.warm_session);
    }
  }
}

TEST(DistService, SigkilledWorkerIsHealedByRetryCheckpointBitIdentically) {
  // The acceptance bar, end to end: a worker process SIGKILLed mid-round
  // fails the attempt with a transient worker_lost_error; the service
  // retries on a fresh session, resuming from the checkpoint captured at
  // the failed run's last completed phase boundary (replay-verified), and
  // the healed result is BITWISE-equal to the fault-free run.
  const Graph g = planted_arboricity(150, 3, 11);
  const LegalColoringResult base =
      solo_run(g, 3, Preset::NearLinearColors, 2);

  ServiceConfig config;
  config.workers = 1;
  config.default_shards = 2;
  config.retry.max_attempts = 2;
  config.retry.backoff_base_ms = 0.0;
  ColoringService svc(config);

  JobSpec spec = dist_spec(svc, g, /*workers=*/2, Backend::kFork);
  spec.dist.kill_at_sweep = 4;  // mid-pipeline, past the first boundary
  spec.dist.kill_worker = 1;
  spec.dist.kill_attempt = 0;  // attempt 0 dies; the retry runs clean
  const JobResult res = svc.wait(svc.submit(std::move(spec)));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.recovered) << "the job must have healed through a retry";
  EXPECT_EQ(res.attempts, 2);
  expect_identical(base, res.result, "healed result diverged from fault-free");

  const auto metrics = svc.metrics();
  EXPECT_GE(metrics.retries, 1u);
  EXPECT_GE(metrics.recoveries, 1u);
  expect_no_zombie_children();
}

TEST(DistService, ArmedKillBypassesTheResultCacheBothWays) {
  const Graph g = planted_arboricity(150, 3, 11);
  ServiceConfig config;
  config.workers = 1;
  config.default_shards = 2;
  config.retry.max_attempts = 2;
  config.retry.backoff_base_ms = 0.0;
  ColoringService svc(config);
  // Populate the cache with a clean distributed run...
  JobSpec warm = dist_spec(svc, g, 2, Backend::kLoopback);
  ASSERT_TRUE(svc.wait(svc.submit(std::move(warm))).ok);
  // ...then an armed-kill job with the identical key must RUN (and fault,
  // and heal), not answer from the cache.
  JobSpec chaos = dist_spec(svc, g, 2, Backend::kLoopback);
  chaos.dist.kill_at_sweep = 3;
  const JobResult res = svc.wait(svc.submit(std::move(chaos)));
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.cache_hit);
  EXPECT_TRUE(res.recovered);
}

TEST(DistService, NegativeDistWorkersAreRejectedAtSubmit) {
  const Graph g = cycle_graph(32);
  ServiceConfig config;
  config.workers = 1;
  ColoringService svc(config);
  JobSpec spec;
  spec.graph = svc.intern(Graph(g));
  spec.arboricity_bound = 2;
  spec.dist.workers = -1;
  EXPECT_THROW((void)svc.submit(std::move(spec)), precondition_error);
}

}  // namespace
}  // namespace dvc
