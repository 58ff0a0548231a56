// SimSession: the run-spec layer over the SimMR engine.
//
// Every replay-style consumer (simmr_replay, simmr_sweep, the Monte-Carlo
// benchmarks) used to repeat the same wiring: load a profile pool, measure
// solo completion times, assemble a workload, build the policy from its
// name, attach observers, run the engine. SimSession owns the shared
// inputs (the pool and its solo completions) and turns one ReplaySpec into
// one RunResult.
//
// A session over a trace database costs what its replays sample: it reads
// only index.tsv up front, parses a profile the first time a replay draws
// it, and measures its solo completion T_J the first time a replay with a
// deadline draws it. Each slot fills once, behind its own guard, and then
// never changes, so the pool a replay sees is the same whichever replays
// ran before it. Sessions are safe to share across threads as long as each
// Replay() call gets its own spec — everything the run mutates (policy,
// engine, RNG) is local to the call, which is what makes simmr_sweep's
// ParallelFor over specs race-free.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backend/run_result.h"
#include "core/engine.h"
#include "obs/observer.h"
#include "trace/job_profile.h"
#include "trace/workload.h"

namespace simmr::backend {

/// Builds a scheduler policy from its CLI name: fifo | maxedf | minedf |
/// fair | capacity. The slot counts parameterize the policies that need
/// the cluster size (MinEDF's ARIA allocations, Capacity's queue shares).
/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<core::SchedulerPolicy> MakePolicy(const std::string& name,
                                                  int map_slots,
                                                  int reduce_slots);

/// Everything that varies between replays of one profile pool.
struct ReplaySpec {
  std::string policy = "fifo";
  int map_slots = 64;
  int reduce_slots = 64;
  double slowstart = 0.05;        // minMapPercentCompleted gate
  bool record_tasks = false;
  /// Workload assembly (Section V-B): job count (0 = one instance of each
  /// pool entry), exponential inter-arrival mean scaled by arrival_scale,
  /// deadlines in [T_J, deadline_factor * T_J] when deadline_factor >= 1.
  int num_jobs = 0;
  double mean_interarrival_s = 100.0;
  double arrival_scale = 1.0;
  double deadline_factor = 0.0;
  std::uint64_t seed = 42;
  /// Borrowed live-instrumentation sink; null keeps the engine's
  /// no-observer fast path.
  obs::SimObserver* observer = nullptr;
  /// Borrowed deterministic fault plan forwarded to
  /// core::SimConfig::fault_plan (see the geometry contract there); null
  /// keeps the fault-free fast path.
  const fault::FaultPlan* fault_plan = nullptr;
};

class SimSession {
 public:
  /// Takes the shared inputs, every slot filled: the profile pool and its
  /// solo completion times (T_J, aligned by index; empty disables deadline
  /// assembly and requires deadline_factor == 0 in every spec).
  SimSession(std::shared_ptr<const std::vector<trace::JobProfile>> pool,
             std::shared_ptr<const std::vector<double>> solo_completions);

  /// A session over a trace database that reads only its index now. A
  /// profile file is read the first time a replay samples it, and its T_J
  /// measured under `solo_config`'s cluster (the standard definition: the
  /// job alone with all slots; neither its observer nor its fault plan is
  /// kept) the first time a replay with a deadline samples it. Throws on a
  /// bad index or an empty database; a bad profile file throws, with
  /// TraceDatabase::Load's text, from every replay that samples it.
  static SimSession FromDatabase(const std::string& db_dir,
                                 const core::SimConfig& solo_config);

  /// Every profile and every T_J (empty for a pool given without them),
  /// filling the slots no replay has sampled yet.
  const std::vector<trace::JobProfile>& pool() const;
  const std::vector<double>& solo_completions() const;

  /// The workload a replay of `spec` runs: the job order drawn from the
  /// spec's seed, then arrivals and deadlines, as trace::MakeWorkload
  /// draws them. Without a deadline every job's solo_completion is 0.
  trace::WorkloadTrace Workload(const ReplaySpec& spec) const;

  /// One full replay: assemble the workload, build the policy, run the
  /// engine, adapt to RunResult. Const and reentrant — concurrent calls on
  /// one session are safe.
  RunResult Replay(const ReplaySpec& spec) const;

 private:
  struct Store;
  explicit SimSession(std::shared_ptr<Store> store);

  std::shared_ptr<Store> store_;
};

}  // namespace simmr::backend
