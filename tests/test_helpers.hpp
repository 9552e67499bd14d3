// Hook-free shared test helpers. Safe to include from ANY test TU --
// unlike tests/test_support.hpp, which additionally defines the global
// operator new/delete replacements (one TU per binary) and includes this
// header for the helpers below.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/wire.hpp"
#include "graph/graph.hpp"
#include "sim/runtime.hpp"

namespace dvc_test {

/// `copies` disjoint K_k cliques with vertex ids shuffled by `seed`
/// (Fisher-Yates over the repo's own generator, so the graph is the same
/// under every standard library). With k = 6, 32 copies, arboricity bound 5
/// and eta = 2, Corollary 4.7's pipeline colors the cliques' groups from
/// overlapping palettes and overshoots Delta + 1, which forces
/// delta_plus_one_low_arb's Kuhn-Wattenhofer fallback.
inline dvc::Graph shuffled_cliques(int k, int copies, std::uint64_t seed) {
  const dvc::V n = static_cast<dvc::V>(k) * copies;
  std::vector<dvc::V> id(static_cast<std::size_t>(n));
  for (dvc::V i = 0; i < n; ++i) id[static_cast<std::size_t>(i)] = i;
  dvc::Rng rng(seed);
  for (dvc::V i = n - 1; i > 0; --i) {
    std::swap(id[static_cast<std::size_t>(i)],
              id[rng.uniform(static_cast<std::uint64_t>(i) + 1)]);
  }
  dvc::EdgeList edges;
  for (int c = 0; c < copies; ++c) {
    for (int i = 0; i < k; ++i) {
      for (int j = i + 1; j < k; ++j) {
        edges.emplace_back(id[static_cast<std::size_t>(c * k + i)],
                           id[static_cast<std::size_t>(c * k + j)]);
      }
    }
  }
  return dvc::Graph::from_edges(n, edges);
}

inline bool same_stats(const dvc::sim::RunStats& a, const dvc::sim::RunStats& b) {
  return a == b;  // RunStats::operator== covers every field, new ones too
}

/// Densest LOCAL-model schedule: every vertex broadcasts a 3-word payload
/// for `rounds` rounds (2m messages per round), with no program-side
/// allocation -- the canonical workload for warm-loop regression tests.
class FloodAll : public dvc::sim::VertexProgram {
 public:
  explicit FloodAll(int rounds) : rounds_(rounds) {}
  std::string name() const override { return "flood"; }
  void begin(dvc::sim::Ctx& ctx) override { ctx.broadcast({1, 2, 3}); }
  void step(dvc::sim::Ctx& ctx, const dvc::sim::Inbox&) override {
    if (ctx.round() >= rounds_) ctx.halt();
    else ctx.broadcast({1, 2, 3});
  }

 private:
  int rounds_;
};

/// Speaks on every port with a 1-3-word payload that varies per vertex and
/// round -- by one broadcast, by send(p) for ascending p (kPerPort), which
/// must be indistinguishable, or (kMixed) by either, chosen per vertex and
/// round, so one round carries both kinds of cell -- and appends every
/// delivered message to its receiver's transcript as {round, port, width,
/// words...}. Vertices fall silent on some rounds and halt on a staggered
/// schedule, so the transcripts also cover quiet senders and messages to
/// halted vertices. `sparse` lets a vertex speak only one round in 32, so
/// most cells the delivery sweep scans are stale. Dist-capable: a vertex's
/// state is its transcript.
class Chatter : public dvc::sim::VertexProgram {
 public:
  using Transcripts = std::vector<std::vector<std::int64_t>>;
  enum class Speak { kBroadcast, kPerPort, kMixed };
  Chatter(Speak speak, int rounds, Transcripts& heard, bool sparse = false)
      : speak_(speak), sparse_(sparse), rounds_(rounds), heard_(heard) {}
  Chatter(bool per_port, int rounds, Transcripts& heard, bool sparse = false)
      : Chatter(per_port ? Speak::kPerPort : Speak::kBroadcast, rounds, heard,
                sparse) {}
  std::string name() const override { return "chatter"; }
  int max_words() const override { return 3; }
  void begin(dvc::sim::Ctx& ctx) override { speak(ctx); }
  void step(dvc::sim::Ctx& ctx, const dvc::sim::Inbox& inbox) override {
    auto& t = heard_[static_cast<std::size_t>(ctx.vertex())];
    for (const dvc::sim::MsgView& m : inbox) {
      t.push_back(ctx.round());
      t.push_back(m.port);
      t.push_back(static_cast<std::int64_t>(m.data.size()));
      t.insert(t.end(), m.data.begin(), m.data.end());
    }
    if (ctx.round() + ctx.id() % 3 >= rounds_) {
      ctx.halt();
      return;
    }
    speak(ctx);
  }

  bool dist_capable() const override { return true; }
  void save_vertex_state(dvc::V v, dvc::wire::ByteWriter& w) const override {
    const auto& t = heard_[static_cast<std::size_t>(v)];
    w.u64(t.size());
    for (const std::int64_t x : t) w.i64(x);
  }
  void load_vertex_state(dvc::V v, dvc::wire::ByteReader& r) override {
    auto& t = heard_[static_cast<std::size_t>(v)];
    t.resize(r.u64());
    for (std::int64_t& x : t) x = r.i64();
  }

 private:
  void speak(dvc::sim::Ctx& ctx) {
    const std::int64_t id = ctx.id();
    const std::int64_t r = ctx.round();
    if (sparse_ ? (id + r) % 32 != 0 : (id + r) % 5 == 0) return;
    const std::int64_t words[3] = {id, r, id * 131 + r};
    const std::span<const std::int64_t> payload(
        words, static_cast<std::size_t>(1 + (id + 2 * r) % 3));
    const bool per_port = speak_ == Speak::kPerPort ||
                          (speak_ == Speak::kMixed && (id * 7 + r) % 3 == 0);
    if (!per_port) {
      ctx.broadcast(payload);
      return;
    }
    for (int p = 0; p < ctx.degree(); ++p) ctx.send(p, payload);
  }
  Speak speak_;
  bool sparse_;
  int rounds_;
  Transcripts& heard_;
};

}  // namespace dvc_test
