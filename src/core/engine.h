// The SimMR Simulator Engine (Section III-B).
//
// A task-level discrete-event simulator of the Hadoop job master. It keeps
// a priority queue over the seven event types of events.h, tracks free map
// and reduce slots, and makes a new slot-allocation decision whenever a
// task completes, delegating job selection to the pluggable
// SchedulerPolicy. Reduce tasks become schedulable for a job once
// `min_map_percent_completed` of its maps have finished; first-wave
// reduces are modeled as filler tasks of unknown (infinite) duration whose
// completion is patched at MAP_STAGE_DONE to
//     map_stage_end + first_shuffle(non-overlap) + reduce,
// which is exactly how the paper reproduces the overlapped shuffle.
#pragma once

#include <vector>

#include "core/metrics.h"
#include "core/scheduler.h"
#include "fault/fault_plan.h"
#include "obs/observer.h"
#include "simcore/choice.h"
#include "trace/workload.h"

namespace simmr::core {

struct SimConfig {
  /// Cluster-wide slot totals (the 66-node testbed default: 64 + 64).
  int map_slots = 64;
  int reduce_slots = 64;

  /// Fraction of a job's maps that must complete before its reduces may be
  /// scheduled (the paper's minMapPercentCompleted; Hadoop default 0.05).
  double min_map_percent_completed = 0.05;

  /// Record per-task timeline entries into SimResult::tasks.
  bool record_tasks = false;

  /// Optional live-instrumentation sink (borrowed; must outlive the run).
  /// Null (the default) costs one branch per hook site and nothing else;
  /// see src/obs/observer.h for the callback contract and
  /// docs/OBSERVABILITY.md for the ready-made sinks.
  obs::SimObserver* observer = nullptr;

  /// Allow policies to kill filler (first-wave) reduces of other jobs to
  /// free reduce slots for more urgent work — the engine then consults
  /// SchedulerPolicy::ChooseReducePreemptionVictim. Off by default: the
  /// paper's schedulers never preempt (Section V-B discusses the
  /// consequences).
  bool allow_filler_preemption = false;

  /// Optional deterministic fault plan (borrowed; must outlive the run).
  /// The engine has no node identity, so node faults translate into slot
  /// terms: a crash removes the plan's per-node slot counts from the
  /// cluster capacity and kills the most recently launched attempt per
  /// lost slot (requeued with a fresh profile-sampled duration — work is
  /// lost, not replayed); a restore returns the capacity. A heartbeat-loss
  /// window at least tasktracker_expiry_interval long behaves as
  /// crash+restore, shorter windows are invisible at task granularity,
  /// and node slowdowns are ignored (the engine has no node speeds) —
  /// both deliberate abstractions whose cost `simmr_analyze availability`
  /// quantifies against the testbed. Plans with geometry must satisfy
  /// num_nodes * slots_per_node == the engine slot totals; geometry-free
  /// plans (num_nodes == 0) may only contain kill_attempt actions. Run()
  /// throws std::invalid_argument otherwise.
  const fault::FaultPlan* fault_plan = nullptr;

  /// Heartbeat-loss windows at least this long count as node loss,
  /// mirroring ClusterConfig::tasktracker_expiry_interval on the testbed.
  double tasktracker_expiry_interval = 600.0;
};

class SimulatorEngine {
 public:
  /// The policy must outlive the engine run.
  SimulatorEngine(SimConfig config, SchedulerPolicy& policy);

  /// Replays the trace to completion. Jobs may arrive in any time order
  /// (the queue sorts them); profiles are validated first. A non-null
  /// `oracle` picks among events that share the earliest time (the
  /// kernel's choice points, as cluster::TestbedOptions::oracle does for
  /// the testbed); null keeps insertion order.
  /// Throws std::invalid_argument on invalid profiles or a nonpositive slot
  /// count, and std::logic_error if the policy returns an ineligible job.
  SimResult Run(const trace::WorkloadTrace& workload,
                ScheduleOracle* oracle = nullptr);

 private:
  SimConfig config_;
  SchedulerPolicy* policy_;
};

}  // namespace simmr::core
