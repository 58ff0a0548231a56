// SimMR facade: the one-call entry points most users need.
//
// Typical flow (mirrors Figure 4 of the paper):
//   1. obtain profiles — MRProfiler over a testbed log, or Synthetic
//      TraceGen, or a TraceDatabase load;
//   2. assemble a WorkloadTrace (arrivals + deadlines);
//   3. pick a SchedulerPolicy (src/sched);
//   4. Replay() and inspect the SimResult.
#pragma once

#include <vector>

#include "core/engine.h"

namespace simmr::core {

/// Runs one workload under one policy. Convenience around SimulatorEngine.
SimResult Replay(const trace::WorkloadTrace& workload, SchedulerPolicy& policy,
                 const SimConfig& config);

/// T_J of Section V-B: the profile's completion time when it runs alone
/// with the whole cluster, replayed under FIFO with all of `config`'s
/// slots. The replay runs without `config`'s observer.
double MeasureSoloCompletion(const trace::JobProfile& profile,
                             const SimConfig& config);

/// MeasureSoloCompletion of every profile, aligned by index.
std::vector<double> MeasureSoloCompletions(
    const std::vector<trace::JobProfile>& profiles, const SimConfig& config);

}  // namespace simmr::core
