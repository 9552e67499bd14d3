// The benchmark's own arithmetic: percentiles, phase/gap attribution from
// the runtime's hook timestamps, and span self time. Header-only and free of
// library types so tests/test_trace.cpp can check it on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A percentile as reported: its value, the percentile asked for, the one
/// it really is after the ten-samples-beyond rule, and the sample count.
struct Quantile {
  double value = 0.0;
  double requested = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile `p` (0..100] of `values`: the ceil(p/100 * n)-th
/// smallest sample. The rank is lowered until at least `beyond` samples lie
/// above it, so a tail percentile never rests on fewer than `beyond`
/// observations; it is never lowered below the median's rank. With too few
/// samples for any tail, the median is what comes back, and `percentile`
/// says so. An empty set gives all zeros.
inline Quantile tail_quantile(std::vector<double> values, double p,
                              std::size_t beyond = 10) {
  Quantile q;
  q.requested = p;
  q.samples = values.size();
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  auto rank_of = [n](double pct) {
    const auto r = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
  };
  std::size_t rank = rank_of(p);
  // Highest rank that leaves `beyond` samples above it.
  const std::size_t cap = n > beyond ? n - beyond : 0;
  if (rank > cap) rank = std::max(cap, std::min(rank, rank_of(50.0)));
  q.value = values[rank - 1];
  q.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return q;
}

/// Nearest-rank median (no tail rule applies to it).
inline Quantile median(std::vector<double> values) {
  return tail_quantile(std::move(values), 50.0, 0);
}

/// Hook timestamps of one simulated phase: when the runtime's interrupt hook
/// fired at the top of run_phase, and when its round observer fired after
/// each completed round.
struct PhaseMarks {
  double start_ms = 0.0;
  std::vector<double> round_end_ms;
};

/// Where the wall time of one pipeline call went.
struct Attribution {
  /// Per phase: start to its last completed round (0 for a phase that
  /// finished in begin() without a round -- its work lands in the gap).
  std::vector<double> phase_ms;
  /// Every round of every phase, in order: from the previous round's end
  /// (or the phase start, for the first round, which includes begin()).
  std::vector<double> round_ms;
  /// The call's wall time outside every phase: before the first phase,
  /// between a phase's last round and the next phase's start, and after the
  /// last phase: the pipeline code that runs outside the round loop.
  double gap_ms = 0.0;
};

/// Splits the wall time of one call, [call_ms, return_ms], into phases and
/// gaps from the hook timestamps. phase_ms + gap_ms sums to the call's wall
/// time.
inline Attribution attribute(double call_ms, double return_ms,
                             const std::vector<PhaseMarks>& phases) {
  Attribution a;
  double cursor = call_ms;
  for (const PhaseMarks& ph : phases) {
    a.gap_ms += ph.start_ms - cursor;
    double prev = ph.start_ms;
    for (const double end : ph.round_end_ms) {
      a.round_ms.push_back(end - prev);
      prev = end;
    }
    a.phase_ms.push_back(prev - ph.start_ms);
    cursor = prev;
  }
  a.gap_ms += return_ms - cursor;
  return a;
}

/// One traced interval. `parent` is the id of the span that caused it, -1
/// for a root; spans of one solve share the solve's root.
struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  std::string module;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval that its direct children cover. Children are clipped
/// to the parent and overlaps between children are counted once.
inline std::vector<double> self_ms(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> kids;  // parent id -> intervals
  for (const Span& c : spans) {
    if (c.parent >= 0) kids[c.parent].emplace_back(c.start_ms, c.end_ms);
  }
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    std::vector<std::pair<double, double>> mine;
    if (const auto it = kids.find(s.id); it != kids.end()) mine = it->second;
    std::sort(mine.begin(), mine.end());
    double covered = 0.0;
    double reach = s.start_ms;
    for (const auto& [lo, hi] : mine) {
      const double from = std::max(lo, reach);
      const double to = std::min(hi, s.end_ms);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    out.push_back((s.end_ms - s.start_ms) - covered);
  }
  return out;
}

}  // namespace perfbench
