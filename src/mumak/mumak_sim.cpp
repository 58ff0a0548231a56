#include "mumak/mumak_sim.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "simcore/event_names.h"
#include "simcore/sim_kernel.h"

namespace simmr::mumak {
namespace {

// Mumak's vocabulary is the heartbeat-driven subset of the canonical
// simmr::SimEventKind table (kJobArrival / kHeartbeat / kOobHeartbeat,
// plus kFaultAction when a plan is installed), so its dequeue names match
// the other simulators' logs by construction.
using EventKind = SimEventKind;

struct Event {
  EventKind kind;
  std::int32_t a = 0;  // job index, node id, or fault-action index
  std::int32_t b = 0;  // kHeartbeat: the node's heartbeat-chain epoch
};

struct RunningTask {
  std::int32_t job = -1;
  cluster::TaskKind kind = cluster::TaskKind::kMap;
  std::int32_t index = -1;
  SimTime start = 0.0;
  SimTime end = 0.0;  // kTimeInfinity for reduces awaiting AllMapsFinished
  /// For reduces: when the reduce phase began (AllMapsFinished time, or
  /// `start` when maps were already done at launch). Mumak has no shuffle,
  /// so this is the reported phase boundary.
  SimTime phase_start = 0.0;
};

struct MumakJobState {
  const RumenJob* trace = nullptr;
  int maps_launched = 0;
  int maps_completed = 0;
  int reduces_launched = 0;
  int reduces_completed = 0;
  SimTime all_maps_finished = -1.0;  // JobTracker-observed
  SimTime finish = -1.0;

  /// Task indexes returned by a fault kill; relaunches pop from the back
  /// while maps_launched/reduces_launched stay fresh-index cursors.
  std::vector<std::int32_t> requeued_maps;
  std::vector<std::int32_t> requeued_reduces;

  bool MapsDone() const { return maps_completed == trace->num_maps; }
  bool Done() const {
    return MapsDone() && reduces_completed == trace->num_reduces;
  }
  bool ReduceGateOpen(double slowstart) const {
    return trace->num_maps == 0 ||
           maps_completed >= ReduceGateThreshold(trace->num_maps, slowstart);
  }
};

struct NodeState {
  SlotPool slots;
  std::vector<RunningTask> running;
  /// Fault state: a down node's heartbeats are dropped and its chain is
  /// broken; hb_epoch guards against double chains across crash/restore.
  bool down = false;
  std::int32_t hb_epoch = 0;
};

class MumakSim {
 public:
  MumakSim(const RumenTrace& trace, const MumakConfig& config)
      : trace_(trace), config_(config), obs_(config.observer) {
    for (std::size_t i = 1; i < trace.jobs.size(); ++i) {
      if (trace.jobs[i].submit_time < trace.jobs[i - 1].submit_time)
        throw std::invalid_argument(
            "RunMumak: jobs must be ordered by submit_time");
    }
    nodes_.resize(config.num_nodes);
    for (auto& node : nodes_) {
      node.slots.free_maps = config.map_slots_per_node;
      node.slots.free_reduces = config.reduce_slots_per_node;
    }
    jobs_.resize(trace.jobs.size());
    for (std::size_t i = 0; i < trace.jobs.size(); ++i)
      jobs_[i].trace = &trace.jobs[i];
    if (config.fault_plan != nullptr) {
      const fault::FaultPlan& plan = *config.fault_plan;
      std::string err = fault::ValidateFaultPlan(plan);
      if (err.empty() && plan.num_nodes > 0 &&
          plan.num_nodes != config.num_nodes)
        err = "plan node count does not match MumakConfig::num_nodes";
      if (!err.empty())
        throw std::invalid_argument("RunMumak: invalid fault plan: " + err);
      faults_enabled_ = true;
    }
  }

  MumakResult Run() {
    for (std::size_t i = 0; i < trace_.jobs.size(); ++i) {
      kernel_.Schedule(trace_.jobs[i].submit_time,
                  Event{EventKind::kJobArrival, static_cast<std::int32_t>(i)});
    }
    for (int n = 0; n < config_.num_nodes; ++n) {
      const SimTime stagger = config_.heartbeat_interval *
                              static_cast<double>(n) /
                              static_cast<double>(config_.num_nodes);
      kernel_.Schedule(stagger, Event{EventKind::kHeartbeat, n});
    }
    if (faults_enabled_) ScheduleFaultActions();

    kernel_.DrainUntil(
        [this] { return finished_ >= jobs_.size(); }, obs_,
        [](const Event& ev) { return SimEventKindName(ev.kind); },
        [this](const Event& ev) { Dispatch(ev); });
    if (finished_ < jobs_.size())
      throw std::logic_error("MumakSim: queue drained with jobs open");

    MumakResult result;
    result.events_processed = kernel_.TotalScheduled();
    for (const auto& job : jobs_) {
      MumakJobResult jr;
      jr.name = job.trace->name;
      jr.submit_time = job.trace->submit_time;
      jr.finish_time = job.finish;
      result.jobs.push_back(std::move(jr));
      result.makespan = std::max(result.makespan, job.finish);
    }
    return result;
  }

 private:
  SimTime now() const { return kernel_.now(); }

  void Dispatch(const Event& ev) {
    switch (ev.kind) {
      case EventKind::kJobArrival:
        job_queue_.push_back(ev.a);
        if (obs_ != nullptr)
          obs_->OnJobArrival(now(), ev.a, jobs_[ev.a].trace->name,
                             /*deadline=*/0.0);
        break;
      case EventKind::kHeartbeat:
        OnHeartbeat(ev.a, /*rearm=*/true, ev.b);
        break;
      case EventKind::kOobHeartbeat:
        OnHeartbeat(ev.a, /*rearm=*/false, 0);
        break;
      case EventKind::kFaultAction:
        OnFaultAction(ev.a);
        break;
      default:
        break;
    }
  }

  void OnHeartbeat(std::int32_t node_id, bool rearm, std::int32_t epoch) {
    NodeState& node = nodes_[node_id];
    // A crash bumps hb_epoch, so the pre-crash chain's queued beat no
    // longer matches and the restore-scheduled chain is the only live one.
    if (rearm && epoch != node.hb_epoch) return;
    if (node.down) return;
    ReportFinished(node);
    AssignTasks(node, node_id);
    if (rearm && finished_ < jobs_.size()) {
      kernel_.Schedule(now() + config_.heartbeat_interval,
                  Event{EventKind::kHeartbeat, node_id, node.hb_epoch});
    }
  }

  void ReportFinished(NodeState& node) {
    for (std::size_t i = 0; i < node.running.size();) {
      const RunningTask task = node.running[i];  // copy: the vector mutates
      if (task.end > now() + kTimeEpsilon) {
        ++i;
        continue;
      }
      MumakJobState& job = jobs_[task.job];
      if (task.kind == cluster::TaskKind::kMap) {
        ++job.maps_completed;
        ++node.slots.free_maps;
        if (obs_ != nullptr)
          obs_->OnTaskCompletion(now(), task.job, obs::TaskKind::kMap,
                                 task.index,
                                 obs::TaskTiming{task.start, task.start,
                                                 task.end},
                                 /*succeeded=*/true);
        if (job.MapsDone() && job.all_maps_finished < 0.0)
          OnAllMapsFinished(task.job);
      } else {
        ++job.reduces_completed;
        ++node.slots.free_reduces;
        if (obs_ != nullptr)
          obs_->OnTaskCompletion(
              now(), task.job, obs::TaskKind::kReduce, task.index,
              obs::TaskTiming{task.start,
                              std::max(task.start, task.phase_start),
                              task.end},
              /*succeeded=*/true);
      }
      node.running[i] = node.running.back();
      node.running.pop_back();
      if (job.Done() && job.finish < 0.0) {
        job.finish = now();
        ++finished_;
        std::erase(job_queue_, task.job);
        if (obs_ != nullptr) obs_->OnJobCompletion(now(), task.job);
      }
    }
  }

  /// Mumak's AllMapsFinished event: every already-launched reduce now gets
  /// its completion time — all-maps time plus the reduce phase, no shuffle.
  void OnAllMapsFinished(std::int32_t job_index) {
    MumakJobState& job = jobs_[job_index];
    job.all_maps_finished = now();
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      for (RunningTask& task : nodes_[n].running) {
        if (task.job != job_index || task.kind != cluster::TaskKind::kReduce)
          continue;
        if (task.end == kTimeInfinity) {
          task.end = now() + ReducePhase(job, task.index);
          task.phase_start = now();
          if (obs_ != nullptr)
            obs_->OnTaskPhaseTransition(now(), job_index, obs::TaskKind::kReduce,
                                        task.index, "reduce");
          MaybeScheduleOob(static_cast<std::int32_t>(n), task.end);
        }
      }
    }
  }

  void MaybeScheduleOob(std::int32_t node_id, SimTime end) {
    if (config_.out_of_band_heartbeat && end < kTimeInfinity)
      kernel_.Schedule(end, Event{EventKind::kOobHeartbeat, node_id});
  }

  double ReducePhase(const MumakJobState& job, std::int32_t index) const {
    const auto& reduces = job.trace->reduces;
    if (reduces.empty()) return 0.0;
    return reduces[index % reduces.size()].ReducePhaseDuration();
  }

  double MapDuration(const MumakJobState& job, std::int32_t index) const {
    const auto& maps = job.trace->maps;
    if (maps.empty()) return 0.0;
    return maps[index % maps.size()].TotalDuration();
  }

  void AssignTasks(NodeState& node, std::int32_t node_id) {
    // FIFO: earliest-submitted job with work. One map and one reduce per
    // heartbeat, like the Hadoop 0.20 JobTracker Mumak embeds.
    if (node.slots.free_maps > 0) {
      for (const std::int32_t job_index : job_queue_) {
        MumakJobState& job = jobs_[job_index];
        std::int32_t index;
        if (!job.requeued_maps.empty()) {
          // Fault-killed map re-executing under its original index.
          index = job.requeued_maps.back();
          job.requeued_maps.pop_back();
        } else if (job.maps_launched < job.trace->num_maps) {
          index = job.maps_launched++;
        } else {
          continue;
        }
        --node.slots.free_maps;
        const SimTime end = now() + MapDuration(job, index);
        node.running.push_back(
            {job_index, cluster::TaskKind::kMap, index, now(), end, now()});
        if (obs_ != nullptr) {
          obs_->OnSchedulerDecision(now(), obs::TaskKind::kMap, job_index);
          obs_->OnTaskLaunch(now(), job_index, obs::TaskKind::kMap, index);
        }
        MaybeScheduleOob(node_id, end);
        break;
      }
    }
    if (node.slots.free_reduces > 0) {
      for (const std::int32_t job_index : job_queue_) {
        MumakJobState& job = jobs_[job_index];
        if (!job.ReduceGateOpen(config_.reduce_slowstart)) continue;
        std::int32_t index;
        if (!job.requeued_reduces.empty()) {
          index = job.requeued_reduces.back();
          job.requeued_reduces.pop_back();
        } else if (job.reduces_launched < job.trace->num_reduces) {
          index = job.reduces_launched++;
        } else {
          continue;
        }
        --node.slots.free_reduces;
        // Before AllMapsFinished the reduce just occupies its slot; after,
        // it runs for exactly the recorded reduce phase.
        const SimTime end = job.all_maps_finished >= 0.0
                                ? now() + ReducePhase(job, index)
                                : kTimeInfinity;
        node.running.push_back(
            {job_index, cluster::TaskKind::kReduce, index, now(), end, now()});
        if (obs_ != nullptr) {
          obs_->OnSchedulerDecision(now(), obs::TaskKind::kReduce, job_index);
          obs_->OnTaskLaunch(now(), job_index, obs::TaskKind::kReduce, index);
        }
        MaybeScheduleOob(node_id, end);
        break;
      }
    }
  }

  // --- fault injection (MumakConfig::fault_plan) ---

  void ScheduleFaultActions() {
    const fault::FaultPlan& plan = *config_.fault_plan;
    for (const fault::FaultAction& a : fault::SortedActions(plan)) {
      switch (a.kind) {
        case fault::FaultActionKind::kNodeSlowdown:
          break;  // durations come from the trace, not node speed
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
    kernel_.Schedule(action.time, Event{EventKind::kFaultAction, idx});
  }

  void OnFaultAction(std::int32_t idx) {
    const fault::FaultAction action =
        fault_actions_[static_cast<std::size_t>(idx)];
    switch (action.kind) {
      case fault::FaultActionKind::kNodeCrash:
        CrashNode(action.node);
        break;
      case fault::FaultActionKind::kNodeRestore:
        RestoreNode(action.node);
        break;
      case fault::FaultActionKind::kKillAttempt:
        KillAttempt(action);
        break;
      default:
        break;  // slowdown / heartbeat-loss never reach the queue
    }
  }

  /// Node loss: the heartbeat chain breaks and every running attempt is
  /// requeued. Completed map outputs are NOT re-executed — Mumak has no
  /// shuffle, so nothing downstream ever re-fetches them.
  void CrashNode(std::int32_t node_id) {
    if (node_id < 0 || node_id >= static_cast<std::int32_t>(nodes_.size()))
      return;
    NodeState& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.down) return;
    node.down = true;
    ++node.hb_epoch;
    if (obs_ != nullptr)
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kNodeLost, node_id,
                         /*job=*/-1, obs::TaskKind::kMap, /*index=*/-1);
    for (const RunningTask& task : node.running)
      RequeueKilled(task, node_id);
    node.running.clear();
    node.slots.free_maps = 0;
    node.slots.free_reduces = 0;
  }

  void RestoreNode(std::int32_t node_id) {
    if (node_id < 0 || node_id >= static_cast<std::int32_t>(nodes_.size()))
      return;
    NodeState& node = nodes_[static_cast<std::size_t>(node_id)];
    if (!node.down) return;
    node.down = false;
    node.slots.free_maps = config_.map_slots_per_node;
    node.slots.free_reduces = config_.reduce_slots_per_node;
    if (obs_ != nullptr)
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kNodeRestored, node_id,
                         /*job=*/-1, obs::TaskKind::kMap, /*index=*/-1);
    kernel_.Schedule(now(),
                     Event{EventKind::kHeartbeat, node_id, node.hb_epoch});
  }

  /// Targeted attempt kill: finds the attempt wherever it runs, requeues
  /// it, and frees the slot (picked up at the node's next heartbeat).
  /// Silently skips attempts that are not running.
  void KillAttempt(const fault::FaultAction& action) {
    if (action.job < 0 ||
        action.job >= static_cast<std::int32_t>(jobs_.size()))
      return;
    const cluster::TaskKind kind = action.task_kind == obs::TaskKind::kMap
                                       ? cluster::TaskKind::kMap
                                       : cluster::TaskKind::kReduce;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      NodeState& node = nodes_[n];
      if (node.down) continue;
      for (std::size_t i = 0; i < node.running.size(); ++i) {
        const RunningTask task = node.running[i];
        if (task.job != action.job || task.kind != kind ||
            task.index != action.index)
          continue;
        node.running[i] = node.running.back();
        node.running.pop_back();
        if (kind == cluster::TaskKind::kMap)
          ++node.slots.free_maps;
        else
          ++node.slots.free_reduces;
        RequeueKilled(task, static_cast<std::int32_t>(n));
        return;
      }
    }
  }

  void RequeueKilled(const RunningTask& task, std::int32_t node_id) {
    MumakJobState& job = jobs_[task.job];
    const bool is_map = task.kind == cluster::TaskKind::kMap;
    if (is_map)
      job.requeued_maps.push_back(task.index);
    else
      job.requeued_reduces.push_back(task.index);
    if (obs_ != nullptr) {
      const obs::TaskKind kind =
          is_map ? obs::TaskKind::kMap : obs::TaskKind::kReduce;
      obs_->OnTaskCompletion(
          now(), task.job, kind, task.index,
          obs::TaskTiming{task.start,
                          is_map ? task.start
                                 : std::max(task.start, task.phase_start),
                          now()},
          /*succeeded=*/false);
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kAttemptKilled, node_id,
                         task.job, kind, task.index);
    }
  }

  const RumenTrace& trace_;
  const MumakConfig& config_;
  std::vector<MumakJobState> jobs_;
  std::vector<NodeState> nodes_;
  std::vector<std::int32_t> job_queue_;
  SimKernel<Event> kernel_;
  std::size_t finished_ = 0;
  obs::SimObserver* obs_;
  bool faults_enabled_ = false;
  std::vector<fault::FaultAction> fault_actions_;
};

}  // namespace

MumakResult RunMumak(const RumenTrace& trace, const MumakConfig& config) {
  return MumakSim(trace, config).Run();
}

}  // namespace simmr::mumak
