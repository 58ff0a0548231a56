#include "core/engine.h"

#include <memory>
#include <stdexcept>

#include "obs/event_log.h"
#include "obs/timeseries.h"
#include "prof/profiler.h"
#include "simcore/log.h"
#include "simcore/sim_kernel.h"

namespace simmr::core {
namespace {

/// The engine body, templated on the concrete observer type. The generic
/// instantiation (TObs = obs::SimObserver) calls hooks virtually as
/// before; Run() also instantiates against final observer classes on the
/// hot recording path (EventLogObserver) so every hook call devirtualizes
/// and inlines — with half a million callbacks per thousand-job replay,
/// the indirect-call tax alone is ~15% of engine wall-clock.
template <class TObs>
class EngineImpl {
 public:
  EngineImpl(const SimConfig& config, SchedulerPolicy& policy,
             const trace::WorkloadTrace& workload, TObs* obs,
             ScheduleOracle* oracle)
      : config_(config),
        policy_(&policy),
        workload_(&workload),
        obs_(obs),
        oracle_(oracle) {
    if (config_.map_slots <= 0 || config_.reduce_slots <= 0)
      throw std::invalid_argument("SimulatorEngine: nonpositive slot count");
    if (config_.min_map_percent_completed < 0.0 ||
        config_.min_map_percent_completed > 1.0)
      throw std::invalid_argument(
          "SimulatorEngine: min_map_percent_completed outside [0,1]");
    for (const auto& job : workload) {
      const std::string error = job.profile.Validate();
      if (!error.empty())
        throw std::invalid_argument("SimulatorEngine: invalid profile for '" +
                                    job.profile.app_name + "': " + error);
    }
    if (config_.fault_plan != nullptr) {
      const fault::FaultPlan& plan = *config_.fault_plan;
      std::string err = fault::ValidateFaultPlan(plan);
      if (err.empty() && plan.num_nodes > 0 &&
          (plan.num_nodes * plan.map_slots_per_node != config_.map_slots ||
           plan.num_nodes * plan.reduce_slots_per_node !=
               config_.reduce_slots))
        err = "plan geometry does not match the engine slot totals";
      if (!err.empty())
        throw std::invalid_argument("SimulatorEngine: invalid fault plan: " +
                                    err);
      faults_enabled_ = true;
    }
  }

  SimResult Run() {
    slots_.free_maps = config_.map_slots;
    slots_.free_reduces = config_.reduce_slots;
    if (obs_ != nullptr) task_times_.resize(workload_->size());
    if (faults_enabled_) {
      map_epoch_.resize(workload_->size());
      reduce_epoch_.resize(workload_->size());
    }
    jobs_.reserve(workload_->size());
    for (std::size_t i = 0; i < workload_->size(); ++i) {
      const trace::TraceJob& tj = (*workload_)[i];
      jobs_.push_back(std::make_unique<JobState>(
          static_cast<JobId>(i), tj.profile, tj.arrival, tj.deadline,
          tj.solo_completion));
      jobs_.back()->reduce_gate_threshold =
          jobs_.back()->ReduceGateThreshold(config_.min_map_percent_completed);
      kernel_.Schedule(tj.arrival, Event{EventType::kJobArrival,
                                         static_cast<JobId>(i), 0});
    }
    ready_.Reset(jobs_);
    if (faults_enabled_) ScheduleFaultActions();

    kernel_.DrainUntilOracle(
        [] { return false; }, obs_,
        [](const Event& ev) { return EventTypeName(ev.type); },
        [](const Event& ev) {
          return ChoiceOption{EventTypeName(ev.type), ev.job, ev.aux};
        },
        [this](const Event& ev) { Dispatch(ev); }, oracle_);
    if (completed_jobs_ != jobs_.size())
      throw std::logic_error("SimulatorEngine: queue drained with jobs open");

    result_.events_processed = kernel_.TotalScheduled();
    return std::move(result_);
  }

 private:
  SimTime now() const { return kernel_.now(); }

  void Dispatch(const Event& ev) {
    switch (ev.type) {
      case EventType::kJobArrival:
        OnJobArrival(*jobs_[ev.job]);
        break;
      case EventType::kJobDeparture:
        OnJobDeparture(*jobs_[ev.job]);
        break;
      case EventType::kMapTaskArrival:
        AssignMapSlots();
        break;
      case EventType::kMapTaskDeparture:
        OnMapTaskDeparture(*jobs_[ev.job], ev.aux, ev.epoch);
        break;
      case EventType::kReduceTaskArrival:
        AssignReduceSlots();
        break;
      case EventType::kReduceTaskDeparture:
        OnReduceTaskDeparture(*jobs_[ev.job], ev.aux, ev.epoch);
        break;
      case EventType::kMapStageDone:
        OnMapStageDone(*jobs_[ev.job]);
        break;
      case EventType::kFaultAction:
        OnFaultAction(ev.aux);
        break;
    }
  }

  void OnJobArrival(JobState& job) {
    ready_.Arrive(job);
    prof::RaiseHighWater(prof::HighWater::kReadySet, ready_.size());
    if (faults_enabled_) {
      map_epoch_[job.id()].assign(job.num_maps(), 0);
      reduce_epoch_[job.id()].assign(job.num_reduces(), 0);
    }
    if (obs_ != nullptr) {
      // Size the timing tables up front so the per-launch path below is a
      // plain store (kills in preemptive runs relaunch under the same
      // index, so these never need to regrow).
      task_times_[job.id()].map_start.resize(job.num_maps());
      task_times_[job.id()].reduce.resize(job.num_reduces());
      obs_->OnJobArrival(now(), job.id(), job.profile().app_name,
                         job.deadline());
    }
    // Zero-threshold gates (or jobs with no maps to gate on) open now.
    if (job.maps_completed >= job.reduce_gate_threshold) OpenReduceGate(job);
    policy_->OnJobArrival(job, now());
    kernel_.Schedule(now(), Event{EventType::kMapTaskArrival, job.id(), 0});
  }

  void OpenReduceGate(JobState& job) {
    if (job.reduce_gate_open) return;
    job.reduce_gate_open = true;
    ready_.Update(job);
    kernel_.Schedule(now(),
                     Event{EventType::kReduceTaskArrival, job.id(), 0});
  }

  void OnMapTaskDeparture(JobState& job, std::int32_t index,
                          std::int32_t epoch) {
    if (faults_enabled_) {
      if (epoch != map_epoch_[job.id()][index]) return;  // killed attempt
      RemoveRunning(running_maps_, job.id(), index);
    }
    ++job.maps_completed;
    ++slots_.free_maps;
    ready_.Finished(job);
    if (obs_ != nullptr) {
      const SimTime start = task_times_[job.id()].map_start[index];
      obs_->OnTaskCompletion(now(), job.id(), obs::TaskKind::kMap, index,
                             obs::TaskTiming{start, start, now()},
                             /*succeeded=*/true);
    }
    if (job.maps_completed >= job.reduce_gate_threshold) OpenReduceGate(job);
    if (job.MapsDone() && !job.map_stage_done_fired) {
      job.map_stage_done_fired = true;
      kernel_.Schedule(now(), Event{EventType::kMapStageDone, job.id(), 0});
    }
    // "The slot allocation algorithm makes a new decision when a map or
    // reduce task completes."
    AssignMapSlots();
  }

  void OnMapStageDone(JobState& job) {
    job.map_stage_end = now();
    // Patch every filler reduce: its shuffle could only finish once all
    // intermediate data existed, so its completion is map-stage end plus
    // the recorded non-overlapping first-shuffle portion plus its reduce
    // phase.
    for (const PendingFiller& filler : job.pending_fillers) {
      const SimTime shuffle_end = now() + filler.first_shuffle;
      const SimTime end = shuffle_end + filler.reduce;
      if (obs_ != nullptr) {
        obs::TaskTiming& t =
            task_times_[job.id()].reduce[filler.task_index];
        t.shuffle_end = shuffle_end;
        t.end = end;
      }
      if (config_.record_tasks) {
        result_.tasks.push_back(SimTaskRecord{
            job.id(), SimTaskKind::kReduce, filler.start, shuffle_end, end});
      }
      kernel_.Schedule(
          end, Event{EventType::kReduceTaskDeparture, job.id(),
                     filler.task_index,
                     faults_enabled_
                         ? reduce_epoch_[job.id()][filler.task_index]
                         : 0});
    }
    job.pending_fillers.clear();
    // Map-only jobs (num_reduces == 0) complete with their map stage.
    if (job.Done() && job.completion < 0.0) {
      job.completion = now();
      kernel_.Schedule(now(), Event{EventType::kJobDeparture, job.id(), 0});
    }
    AssignReduceSlots();
  }

  void OnReduceTaskDeparture(JobState& job, std::int32_t index,
                             std::int32_t epoch) {
    if (faults_enabled_) {
      if (epoch != reduce_epoch_[job.id()][index]) return;  // killed attempt
      RemoveRunning(running_reduces_, job.id(), index);
    }
    ++job.reduces_completed;
    ++slots_.free_reduces;
    ready_.Finished(job);
    if (obs_ != nullptr) {
      obs_->OnTaskCompletion(now(), job.id(), obs::TaskKind::kReduce, index,
                             task_times_[job.id()].reduce[index],
                             /*succeeded=*/true);
    }
    if (job.Done() && job.completion < 0.0) {
      job.completion = now();
      kernel_.Schedule(now(), Event{EventType::kJobDeparture, job.id(), 0});
    }
    AssignReduceSlots();
    // A freed reduce slot never unblocks maps, but a completed job's
    // departure may; map reassignment happens on map departures and
    // arrivals only, matching the narrow decision points of the paper.
  }

  void OnJobDeparture(JobState& job) {
    ++completed_jobs_;
    ready_.Depart(job);
    if (obs_ != nullptr) obs_->OnJobCompletion(now(), job.id());
    policy_->OnJobCompletion(job, now());
    result_.makespan = std::max(result_.makespan, now());

    JobResult jr;
    jr.job = job.id();
    jr.name = job.profile().app_name +
              (job.profile().dataset.empty() ? "" : "/" + job.profile().dataset);
    jr.arrival = job.arrival();
    jr.first_launch = job.first_launch;
    jr.map_stage_end = job.map_stage_end;
    jr.completion = job.completion;
    jr.deadline = job.deadline();
    result_.jobs.push_back(std::move(jr));
  }

  void AssignMapSlots() {
    while (slots_.free_maps > 0) {
      const JobId chosen = policy_->ChooseNextMapTask(JobQueue(ready_));
      if (obs_ != nullptr)
        obs_->OnSchedulerDecision(now(), obs::TaskKind::kMap, chosen);
      if (chosen == kInvalidJob) return;
      JobState& job = *jobs_[chosen];
      if (!job.HasPendingMap())
        throw std::logic_error(
            "SchedulerPolicy returned a job with no pending map task");
      LaunchMap(job);
    }
  }

  void LaunchMap(JobState& job) {
    const double duration = job.NextMapDuration();
    std::int32_t index;
    if (!job.requeued_maps.empty()) {
      // Fault-killed task re-executing under its original index with the
      // fresh duration sample drawn above — the lost work is re-done, not
      // replayed.
      index = job.requeued_maps.back();
      job.requeued_maps.pop_back();
    } else {
      index = job.maps_launched;
      ++job.maps_launched;
    }
    --slots_.free_maps;
    ready_.Launched(job);
    if (job.first_launch < 0.0) job.first_launch = now();
    if (obs_ != nullptr) {
      task_times_[job.id()].map_start[index] = now();
      obs_->OnTaskLaunch(now(), job.id(), obs::TaskKind::kMap, index);
    }
    if (config_.record_tasks) {
      result_.tasks.push_back(SimTaskRecord{job.id(), SimTaskKind::kMap,
                                            now(), now(), now() + duration});
    }
    std::int32_t epoch = 0;
    if (faults_enabled_) {
      epoch = map_epoch_[job.id()][index];
      running_maps_.push_back({job.id(), index});
    }
    kernel_.Schedule(now() + duration,
                     Event{EventType::kMapTaskDeparture, job.id(), index,
                           epoch});
  }

  void AssignReduceSlots() {
    for (;;) {
      while (slots_.free_reduces > 0) {
        const JobId chosen = policy_->ChooseNextReduceTask(JobQueue(ready_));
        if (obs_ != nullptr)
          obs_->OnSchedulerDecision(now(), obs::TaskKind::kReduce, chosen);
        if (chosen == kInvalidJob) return;
        JobState& job = *jobs_[chosen];
        if (!job.HasPendingReduce() || !job.reduce_gate_open)
          throw std::logic_error(
              "SchedulerPolicy returned an ineligible job for a reduce task");
        LaunchReduce(job);
      }
      if (!config_.allow_filler_preemption) return;
      // No slot free: is anyone still waiting, and does the policy want to
      // preempt a filler on their behalf?
      const JobId claimant_id = policy_->ChooseNextReduceTask(JobQueue(ready_));
      if (claimant_id == kInvalidJob) return;
      const JobId victim_id = policy_->ChooseReducePreemptionVictim(
          JobQueue(ready_), *jobs_[claimant_id]);
      if (victim_id == kInvalidJob) return;
      if (victim_id == claimant_id)
        throw std::logic_error(
            "SchedulerPolicy picked the claimant as preemption victim");
      KillOneFiller(*jobs_[victim_id]);
    }
  }

  /// Kills the victim's most recently launched filler reduce: the slot
  /// frees immediately and the task returns to the pending pool (its
  /// partial shuffle is simply re-fetched on retry, so no other state
  /// needs repair).
  void KillOneFiller(JobState& victim) {
    if (victim.pending_fillers.empty())
      throw std::logic_error(
          "SchedulerPolicy picked a preemption victim without fillers");
    const std::int32_t index = victim.pending_fillers.back().task_index;
    if (obs_ != nullptr) {
      const PendingFiller& filler = victim.pending_fillers.back();
      obs_->OnTaskCompletion(now(), victim.id(), obs::TaskKind::kReduce,
                             index,
                             obs::TaskTiming{filler.start, now(), now()},
                             /*succeeded=*/false);
    }
    victim.pending_fillers.pop_back();
    victim.requeued_reduces.push_back(index);
    if (faults_enabled_) {
      ++reduce_epoch_[victim.id()][index];
      RemoveRunning(running_reduces_, victim.id(), index);
    }
    ++slots_.free_reduces;
    ready_.Update(victim);
  }

  void LaunchReduce(JobState& job) {
    std::int32_t index;
    if (!job.requeued_reduces.empty()) {
      // Killed (or preempted) reduce re-executing under its original index
      // with fresh duration samples drawn below.
      index = job.requeued_reduces.back();
      job.requeued_reduces.pop_back();
    } else {
      index = job.reduces_launched;
      ++job.reduces_launched;
    }
    --slots_.free_reduces;
    ready_.Launched(job);
    if (faults_enabled_) running_reduces_.push_back({job.id(), index});
    if (job.first_launch < 0.0) job.first_launch = now();
    const double reduce_duration = job.NextReduceDuration();
    if (obs_ != nullptr) {
      // Filler timing is patched at MAP_STAGE_DONE; until then the phase
      // boundary and end are unknown.
      task_times_[job.id()].reduce[index] =
          obs::TaskTiming{now(), kTimeInfinity, kTimeInfinity};
      obs_->OnTaskLaunch(now(), job.id(), obs::TaskKind::kReduce, index);
    }

    if (!job.MapsDone()) {
      // Filler reduce: "we schedule a filler reduce task of infinite
      // duration and update its duration to the first shuffle duration when
      // all the map tasks are complete."
      PendingFiller filler;
      filler.task_index = index;
      filler.start = now();
      filler.first_shuffle = job.NextFirstShuffleDuration();
      filler.reduce = reduce_duration;
      job.pending_fillers.push_back(filler);
      return;
    }

    const double shuffle_duration = job.NextTypicalShuffleDuration();
    const SimTime shuffle_end = now() + shuffle_duration;
    const SimTime end = shuffle_end + reduce_duration;
    if (obs_ != nullptr) {
      task_times_[job.id()].reduce[index] =
          obs::TaskTiming{now(), shuffle_end, end};
    }
    if (config_.record_tasks) {
      result_.tasks.push_back(SimTaskRecord{job.id(), SimTaskKind::kReduce,
                                            now(), shuffle_end, end});
    }
    kernel_.Schedule(
        end, Event{EventType::kReduceTaskDeparture, job.id(), index,
                   faults_enabled_ ? reduce_epoch_[job.id()][index] : 0});
  }

  // --- fault injection (SimConfig::fault_plan) ---

  /// Translates the plan into scheduled kFaultAction events. Slowdowns are
  /// dropped (no node speeds at this granularity); heartbeat-loss windows
  /// at least tasktracker_expiry_interval long become a synthesized
  /// crash+restore pair, shorter windows are invisible.
  void ScheduleFaultActions() {
    const fault::FaultPlan& plan = *config_.fault_plan;
    engine_node_down_.assign(
        static_cast<std::size_t>(std::max<std::int32_t>(plan.num_nodes, 0)),
        0);
    for (const fault::FaultAction& a : fault::SortedActions(plan)) {
      switch (a.kind) {
        case fault::FaultActionKind::kNodeSlowdown:
          break;
        case fault::FaultActionKind::kHeartbeatLoss:
          if (a.end_time - a.time >= config_.tasktracker_expiry_interval) {
            fault::FaultAction crash = a;
            crash.kind = fault::FaultActionKind::kNodeCrash;
            ScheduleFaultAction(crash);
            fault::FaultAction restore = a;
            restore.kind = fault::FaultActionKind::kNodeRestore;
            restore.time = a.end_time;
            ScheduleFaultAction(restore);
          }
          break;
        default:
          ScheduleFaultAction(a);
          break;
      }
    }
  }

  void ScheduleFaultAction(const fault::FaultAction& action) {
    const auto idx = static_cast<std::int32_t>(fault_actions_.size());
    fault_actions_.push_back(action);
    kernel_.Schedule(action.time,
                     Event{EventType::kFaultAction, kInvalidJob, idx});
  }

  void OnFaultAction(std::int32_t idx) {
    const fault::FaultAction action = fault_actions_[static_cast<std::size_t>(idx)];
    switch (action.kind) {
      case fault::FaultActionKind::kNodeCrash:
        EngineCrashNode(action.node);
        break;
      case fault::FaultActionKind::kNodeRestore:
        EngineRestoreNode(action.node);
        break;
      case fault::FaultActionKind::kKillAttempt:
        EngineKillAttempt(action);
        break;
      default:
        break;  // slowdown / heartbeat-loss never reach the queue
    }
  }

  /// Node loss in slot terms, applied immediately (the testbed's expiry
  /// delay is an abstraction the availability report quantifies): the
  /// node's slot counts leave the cluster capacity and one running attempt
  /// per lost slot is killed, most recently launched first — the engine
  /// has no task placement, so this is its deterministic stand-in.
  void EngineCrashNode(std::int32_t node) {
    if (node < 0 ||
        node >= static_cast<std::int32_t>(engine_node_down_.size()) ||
        engine_node_down_[static_cast<std::size_t>(node)])
      return;
    engine_node_down_[static_cast<std::size_t>(node)] = 1;
    if (obs_ != nullptr)
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kNodeLost, node,
                         /*job=*/-1, obs::TaskKind::kMap, /*index=*/-1);
    const fault::FaultPlan& plan = *config_.fault_plan;
    for (int k = 0; k < plan.map_slots_per_node && !running_maps_.empty();
         ++k) {
      const RunningAttempt victim = running_maps_.back();
      running_maps_.pop_back();
      KillRunningMap(victim.job, victim.index, node);
    }
    for (int k = 0;
         k < plan.reduce_slots_per_node && !running_reduces_.empty(); ++k) {
      const RunningAttempt victim = running_reduces_.back();
      running_reduces_.pop_back();
      KillRunningReduce(victim.job, victim.index, node);
    }
    // Capacity shrinks after the kills freed their slots, so free counts
    // stay nonnegative: free' = free + killed - slots_per_node, and fewer
    // than slots_per_node kills means the whole cluster ran fewer attempts
    // than one node holds.
    slots_.free_maps -= plan.map_slots_per_node;
    slots_.free_reduces -= plan.reduce_slots_per_node;
    // Requeued work may relaunch immediately on surviving capacity.
    AssignMapSlots();
    AssignReduceSlots();
  }

  void EngineRestoreNode(std::int32_t node) {
    if (node < 0 ||
        node >= static_cast<std::int32_t>(engine_node_down_.size()) ||
        !engine_node_down_[static_cast<std::size_t>(node)])
      return;
    engine_node_down_[static_cast<std::size_t>(node)] = 0;
    const fault::FaultPlan& plan = *config_.fault_plan;
    slots_.free_maps += plan.map_slots_per_node;
    slots_.free_reduces += plan.reduce_slots_per_node;
    if (obs_ != nullptr)
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kNodeRestored, node,
                         /*job=*/-1, obs::TaskKind::kMap, /*index=*/-1);
    AssignMapSlots();
    AssignReduceSlots();
  }

  /// Targeted attempt kill. Silently skips attempts that are not running
  /// (plans replay against arbitrary workloads) and finished jobs.
  void EngineKillAttempt(const fault::FaultAction& action) {
    if (action.job < 0 ||
        action.job >= static_cast<JobId>(jobs_.size()))
      return;
    JobState& job = *jobs_[action.job];
    if (job.completion >= 0.0) return;
    if (action.task_kind == obs::TaskKind::kMap) {
      if (!RemoveRunning(running_maps_, action.job, action.index)) return;
      KillRunningMap(action.job, action.index, action.node);
      AssignMapSlots();
    } else {
      if (!RemoveRunning(running_reduces_, action.job, action.index)) return;
      KillRunningReduce(action.job, action.index, action.node);
      AssignReduceSlots();
    }
  }

  /// Common kill bookkeeping once the attempt left the running list: bump
  /// the epoch (invalidates the queued departure), requeue the index, and
  /// free the slot. Re-execution draws a fresh profile sample at relaunch —
  /// the lost work is re-done, not replayed.
  void KillRunningMap(JobId job_id, std::int32_t index, std::int32_t node) {
    JobState& job = *jobs_[job_id];
    ++map_epoch_[job_id][index];
    job.requeued_maps.push_back(index);
    ++slots_.free_maps;
    ready_.Update(job);
    if (obs_ != nullptr) {
      const SimTime start = task_times_[job_id].map_start[index];
      obs_->OnTaskCompletion(now(), job_id, obs::TaskKind::kMap, index,
                             obs::TaskTiming{start, start, now()},
                             /*succeeded=*/false);
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kAttemptKilled, node,
                         job_id, obs::TaskKind::kMap, index);
    }
  }

  void KillRunningReduce(JobId job_id, std::int32_t index,
                         std::int32_t node) {
    JobState& job = *jobs_[job_id];
    ++reduce_epoch_[job_id][index];
    // A filler has no queued departure yet; drop its pending patch record
    // so MAP_STAGE_DONE does not resurrect the dead attempt.
    for (std::size_t i = 0; i < job.pending_fillers.size(); ++i) {
      if (job.pending_fillers[i].task_index == index) {
        job.pending_fillers.erase(
            job.pending_fillers.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    job.requeued_reduces.push_back(index);
    ++slots_.free_reduces;
    ready_.Update(job);
    if (obs_ != nullptr) {
      const SimTime start = task_times_[job_id].reduce[index].start;
      obs_->OnTaskCompletion(now(), job_id, obs::TaskKind::kReduce, index,
                             obs::TaskTiming{start, now(), now()},
                             /*succeeded=*/false);
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kAttemptKilled, node,
                         job_id, obs::TaskKind::kReduce, index);
    }
  }

  struct RunningAttempt {
    JobId job;
    std::int32_t index;
  };

  /// Order-preserving removal (the lists stay in launch order so crashes
  /// kill the most recently launched attempts). Lists are bounded by the
  /// slot totals, so the linear scan is cheap — and only runs when fault
  /// injection is on.
  static bool RemoveRunning(std::vector<RunningAttempt>& list, JobId job,
                            std::int32_t index) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].job == job && list[i].index == index) {
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  SimConfig config_;
  SchedulerPolicy* policy_;
  const trace::WorkloadTrace* workload_;
  TObs* obs_;
  ScheduleOracle* oracle_;

  /// Per-job launch timing kept only when an observer is installed, so
  /// departures can report full TaskTiming. Indexed by launch index
  /// (stable: preempted fillers are relaunched under the same index).
  struct JobTaskTimes {
    std::vector<SimTime> map_start;
    std::vector<obs::TaskTiming> reduce;
  };
  std::vector<JobTaskTimes> task_times_;

  SimKernel<Event> kernel_;
  // One allocation per job: a contiguous block of JobStates, freed and
  // taken again on every run, fragments the heap that observer buffers
  // grow in and raises peak RSS.
  std::vector<std::unique_ptr<JobState>> jobs_;
  ReadySets ready_;
  SlotPool slots_;
  std::size_t completed_jobs_ = 0;
  SimResult result_;

  // Fault-injection state, all inert (and the epoch/running bookkeeping
  // skipped) when no plan is installed so fault-free replays stay
  // bit-identical to the pre-fault engine.
  bool faults_enabled_ = false;
  /// Per-task attempt epochs, outer-indexed by job id. A kill bumps the
  /// epoch so the doomed attempt's queued departure no longer matches.
  std::vector<std::vector<std::int32_t>> map_epoch_;
  std::vector<std::vector<std::int32_t>> reduce_epoch_;
  /// Running attempts in launch order (crashes kill from the back).
  std::vector<RunningAttempt> running_maps_;
  std::vector<RunningAttempt> running_reduces_;
  /// Actions referenced by kFaultAction events' aux index.
  std::vector<fault::FaultAction> fault_actions_;
  std::vector<char> engine_node_down_;
};

}  // namespace

SimulatorEngine::SimulatorEngine(SimConfig config, SchedulerPolicy& policy)
    : config_(config), policy_(&policy) {}

SimResult SimulatorEngine::Run(const trace::WorkloadTrace& workload,
                               ScheduleOracle* oracle) {
  // Devirtualize the recording hot path: a bare EventLogObserver (the
  // common --event-log-out wiring) gets the engine instantiated against
  // its concrete type, so its inline 48-byte appends compile straight into
  // the hook sites. Anything else — multicast fan-outs included — takes
  // the generic virtual-dispatch engine.
  if (auto* log = dynamic_cast<obs::EventLogObserver*>(config_.observer)) {
    EngineImpl<obs::EventLogObserver> impl(config_, *policy_, workload, log,
                                           oracle);
    return impl.Run();
  }
  // Same treatment for a bare TimeSeriesSampler: its hooks are a handful
  // of adds and compares, which inline once the type is concrete — this
  // keeps default-window sampling overhead in the low single digits.
  if (auto* ts = dynamic_cast<obs::TimeSeriesSampler*>(config_.observer)) {
    EngineImpl<obs::TimeSeriesSampler> impl(config_, *policy_, workload, ts,
                                            oracle);
    return impl.Run();
  }
  EngineImpl<obs::SimObserver> impl(config_, *policy_, workload,
                                    config_.observer, oracle);
  return impl.Run();
}

}  // namespace simmr::core
