// The repo benchmark: time to a verified legal coloring on two workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (and
// writes the traced solves' spans into --out-dir). The last line of stdout is
// the result JSON; the exit code is 1 when any operation failed or any
// output check did not hold. perfbench/run.py builds this binary and runs it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload rmat-polylog|dist-loopback --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

/// True when the flags the library and this binary were compiled with ask
/// for optimisation. An unoptimised build measures a different program.
bool optimised_build() {
#ifdef __OPTIMIZE__
  const std::string flags = PERFBENCH_CXX_FLAGS;
  for (const char* o : {"-O1", "-O2", "-O3", "-Os", "-Ofast"}) {
    if (flags.find(o) != std::string::npos) return true;
  }
#endif
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage();

  const bool optimised = optimised_build();
  std::printf(
      "perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u compiler=\"%s\" "
      "build_type=%s flags=\"%s\" optimised=%s\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, std::thread::hardware_concurrency(), __VERSION__,
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, optimised ? "yes" : "NO");
  if (!optimised) {
    std::printf("WARNING: unoptimised build -- these timings measure a different program\n");
  }
  std::fflush(stdout);

  perfbench::Report report;
  if (opt.workload == "rmat-polylog") {
    perfbench::run_rmat(opt, report);
  } else if (opt.workload == "dist-loopback") {
    perfbench::run_dist(opt, report);
  } else {
    return usage();
  }
  report.print(opt);
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
