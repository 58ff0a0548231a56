// Shared plumbing for the paper-exhibit benchmark binaries.
//
// Every bench binary regenerates one table or figure of the paper (see
// DESIGN.md section 4) and prints its rows/series as aligned text plus a
// CSV block that can be piped into a plotting tool. Common knobs come from
// environment variables so `for b in build/bench/*; do $b; done` works
// unattended:
//   SIMMR_BENCH_RUNS   - Monte-Carlo repetitions for Figures 7/8
//                        (default 40; the paper used 400)
//   SIMMR_BENCH_SEED   - master seed (default 42)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_sim.h"
#include "core/simmr.h"
#include "trace/mr_profiler.h"

namespace simmr::bench {

/// Reads a positive integer environment knob with a default.
std::uint64_t EnvOrDefault(const char* name, std::uint64_t fallback);

/// Prints the standard header for a bench binary.
void PrintHeader(const std::string& exhibit, const std::string& description);

/// Prints a section separator.
void PrintSection(const std::string& title);

/// The standard validation testbed: the paper's 66-node cluster (64
/// workers, 1+1 slots per node).
cluster::TestbedOptions PaperTestbed(std::uint64_t seed);

/// Runs each ValidationSuite job alone on the paper testbed under FIFO and
/// returns (log, per-job profiles). Cached per process.
struct ValidationRun {
  cluster::HistoryLog log;
  std::vector<trace::JobProfile> profiles;
};
const ValidationRun& RunValidationSuiteOnce(std::uint64_t seed);

/// SimConfig matching the paper testbed (64 + 64 slots).
core::SimConfig PaperSimConfig();

/// Relative error in percent.
double ErrorPercent(double simulated, double actual);

}  // namespace simmr::bench
