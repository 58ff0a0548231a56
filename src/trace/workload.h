// Workload assembly: profiles -> a replayable multi-job trace.
//
// Section V-B: "We generate an equally probable random permutation of
// arrival of these jobs and assume that the inter-arrival time of the jobs
// is exponential. The job deadline ... is set to be uniformly distributed
// in the interval [T_J, df * T_J], where T_J is the completion time of job
// J given all the cluster resources and df >= 1 is a given deadline
// factor."
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "simcore/rng.h"
#include "simcore/time.h"
#include "trace/job_profile.h"

namespace simmr::trace {

/// One entry of a replayable trace: a profile plus arrival and deadline.
struct TraceJob {
  JobProfile profile;
  SimTime arrival = 0.0;
  /// Absolute completion deadline; 0 means none.
  double deadline = 0.0;
  /// Completion time of the job given the whole cluster (T_J); carried so
  /// analyses can normalize against it. 0 when unknown.
  double solo_completion = 0.0;
};

using WorkloadTrace = std::vector<TraceJob>;

struct WorkloadParams {
  int num_jobs = 0;                 // 0 = one instance of each pool entry
  double mean_interarrival_s = 100.0;
  double deadline_factor = 1.0;     // df >= 1; 0 disables deadlines
  bool permute = true;              // random permutation of the pool order
};

/// Builds a trace from a pool of profiles and their solo completion times
/// (aligned by index; see MeasureSoloCompletions in core/simmr.h for the
/// standard way to obtain them). When params.num_jobs exceeds the pool
/// size, pool entries are sampled uniformly with replacement.
/// Throws std::invalid_argument on an empty pool, mismatched sizes, or
/// deadline_factor in (0, 1).
WorkloadTrace MakeWorkload(const std::vector<JobProfile>& pool,
                           const std::vector<double>& solo_completions,
                           const WorkloadParams& params, Rng& rng);

/// MakeWorkload's first draws: which pool entries run, in which order. It
/// reads only the pool size, so a caller can fill just these entries of a
/// lazily read pool before AssembleWorkload. Throws as MakeWorkload does
/// on an empty pool or bad params.
std::vector<std::size_t> DrawJobOrder(std::size_t pool_size,
                                      const WorkloadParams& params, Rng& rng);

/// The rest of MakeWorkload: the trace of `order`'s pool entries, with
/// arrivals and deadlines drawn from `rng` after DrawJobOrder's draws.
/// Only the entries `order` names are read. `solo_completions` is aligned
/// with `pool`, or empty when T_J is unknown (every job then carries 0
/// and no deadline). Throws std::invalid_argument on any other size.
WorkloadTrace AssembleWorkload(const std::vector<JobProfile>& pool,
                               std::span<const double> solo_completions,
                               const std::vector<std::size_t>& order,
                               const WorkloadParams& params, Rng& rng);

}  // namespace simmr::trace
