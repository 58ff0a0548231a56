#include "cluster/cluster_sim.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "cluster/testbed_scheduler.h"
#include "simcore/distributions.h"
#include "simcore/event_names.h"
#include "simcore/log.h"
#include "simcore/sim_kernel.h"

namespace simmr::cluster {
namespace {

// The testbed's event vocabulary is drawn straight from the canonical
// simmr::SimEventKind table, so its dequeue names match the other
// simulators' durable logs by construction. Operand use per kind:
//   kJobArrival    a = job index in the submission list
//   kHeartbeat     a = node id, b = node heartbeat epoch (self-rearming;
//                  the epoch orphans chains that predate a crash/restore)
//   kOobHeartbeat  a = node id (out-of-band, fired on task completion)
//   kMapDataReady  a = job id, b = map task index (exact map end time)
//   kReduceDone    a = job id, b = reduce task index (exact reduce end)
//   kFetchCheck    b = generation stamp of the shuffle schedule
//   kFaultAction   a = index into the run's fault-action list
//   kTrackerExpiry a = node id (JobTracker-side lost-tracker check)
using EventKind = SimEventKind;

struct Event {
  EventKind kind;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

/// One attempt occupying a slot on a node. Map attempts carry their own
/// timestamps and failure flag because speculation allows two concurrent
/// attempts of the same map task; reduce attempts have at most one in
/// flight, so their state stays on the ReduceTaskRt.
struct NodeTask {
  JobId job = kInvalidJob;
  TaskKind kind = TaskKind::kMap;
  TaskIndex index = kInvalidTask;
  bool speculative = false;    // maps only
  bool failing = false;        // maps only
  bool drawn_failure = false;  // maps only: a genuine drawn failure, as
                               // opposed to a killed speculative duplicate
                               // (only the former counts toward node
                               // blacklisting)
  SimTime start = 0.0;         // maps only
  SimTime end = 0.0;           // maps only
};

struct NodeState {
  double speed = 1.0;
  int rack = 0;
  SlotPool slots;
  // Attempts currently occupying slots on this node, reported on heartbeat.
  std::vector<NodeTask> running;

  // --- fault-injection state (inert without a fault plan) ---
  bool down = false;         // daemon not running (crash, or declared lost)
  bool lost = false;         // the JobTracker declared this tracker lost
  bool blacklisted = false;  // no new assignments (heartbeats still report)
  int failed_attempts = 0;   // genuine failures observed by the JobTracker
  double fault_slowdown = 1.0;        // speed multiplier from kNodeSlowdown
  SimTime hb_suppressed_until = 0.0;  // heartbeat-loss window end
  SimTime last_heartbeat = 0.0;       // JobTracker-side last-seen time
  std::int32_t hb_epoch = 0;  // bumps on crash/restore to orphan the
                              // in-flight self-rearming heartbeat chain
};

/// A map-output landing annulled by a node death before it fired. Matched
/// by exact scheduled time, which is safe because the event was scheduled
/// with that same double.
struct CancelledMapData {
  JobId job = kInvalidJob;
  TaskIndex index = kInvalidTask;
  SimTime at = 0.0;
};

class TestbedSim {
 public:
  TestbedSim(const std::vector<SubmittedJob>& submissions,
             const TestbedOptions& options)
      : submissions_(submissions),
        options_(options),
        master_rng_(options.seed),
        obs_(options.observer),
        shuffle_(MakeAggregateBw(options.config),
                 MakePerFlowCap(options.config)) {
    for (std::size_t i = 1; i < submissions_.size(); ++i) {
      if (submissions_[i].submit_time < submissions_[i - 1].submit_time)
        throw std::invalid_argument(
            "RunTestbed: submissions must be sorted by submit_time");
    }
    for (const auto& s : submissions_) {
      if (s.spec.input_mb <= 0.0)
        throw std::invalid_argument("RunTestbed: job with nonpositive input");
    }
    if (options.fault_plan != nullptr) {
      const fault::FaultPlan& plan = *options.fault_plan;
      std::string err = fault::ValidateFaultPlan(plan);
      if (err.empty() && plan.num_nodes != 0 &&
          plan.num_nodes != options.config.num_nodes)
        err = "plan authored for " + std::to_string(plan.num_nodes) +
              " nodes, cluster has " +
              std::to_string(options.config.num_nodes);
      if (!err.empty())
        throw std::invalid_argument("RunTestbed: invalid fault plan: " + err);
      fault_actions_ = fault::SortedActions(plan);
    }
    failure_rng_ = master_rng_.Split("failures");
    speculation_rng_ = master_rng_.Split("speculation");
    switch (options_.scheduler) {
      case SchedulerKind::kFifo:
        scheduler_ = std::make_unique<FifoTestbedScheduler>();
        break;
      case SchedulerKind::kEdf:
        scheduler_ = std::make_unique<EdfTestbedScheduler>();
        break;
    }
    InitNodes();
  }

  TestbedResult Run() {
    for (std::size_t i = 0; i < submissions_.size(); ++i) {
      kernel_.Schedule(submissions_[i].submit_time,
                  Event{EventKind::kJobArrival, static_cast<std::int32_t>(i)});
    }
    const ClusterConfig& cfg = options_.config;
    for (int n = 0; n < cfg.num_nodes; ++n) {
      // Staggered (the default): phases spread across the interval, like
      // daemons that started at different moments. Synchronized: every
      // tracker beats at the same instants, first beat one full interval
      // in — so each round is a genuine arrival-order race for the model
      // checker, without a degenerate all-idle round at t=0.
      const SimTime first_beat =
          cfg.heartbeat_stagger ? cfg.heartbeat_interval *
                                      static_cast<double>(n) /
                                      static_cast<double>(cfg.num_nodes)
                                : cfg.heartbeat_interval;
      kernel_.Schedule(first_beat, Event{EventKind::kHeartbeat, n});
    }
    for (std::size_t i = 0; i < fault_actions_.size(); ++i) {
      kernel_.Schedule(fault_actions_[i].time,
                  Event{EventKind::kFaultAction, static_cast<std::int32_t>(i)});
    }

    kernel_.DrainUntilOracle(
        [this] { return finished_jobs_ >= submissions_.size(); }, obs_,
        [](const Event& ev) { return SimEventKindName(ev.kind); },
        [](const Event& ev) {
          return ChoiceOption{SimEventKindName(ev.kind), ev.a, ev.b};
        },
        [this](const Event& ev) { Dispatch(ev); }, options_.oracle);
    if (finished_jobs_ < submissions_.size())
      throw std::logic_error("TestbedSim: event queue drained early");

    TestbedResult result;
    result.log = std::move(log_);
    result.events_processed = kernel_.Dequeued();
    result.makespan = makespan_;
    return result;
  }

  SimTime now() const { return kernel_.now(); }

 private:
  static double MakeAggregateBw(const ClusterConfig& cfg) {
    // Source-side egress is the shared resource: every worker serves map
    // output at its effective shuffle bandwidth. With one flow per reduce
    // slot this exceeds the sum of per-flow caps, so contention only kicks
    // in when reduce slots are oversubscribed (e.g. 2+ slots per node).
    return cfg.num_nodes * cfg.node_bandwidth_mbps;
  }

  static double MakePerFlowCap(const ClusterConfig& cfg) {
    // A single reduce's ingress, discounted by the expected cross-rack mix.
    const double cross_mix = 0.5 * (1.0 + cfg.cross_rack_factor);
    return cfg.node_bandwidth_mbps * cross_mix;
  }

  void InitNodes() {
    const ClusterConfig& cfg = options_.config;
    Rng node_rng = master_rng_.Split("node-speed");
    NormalDist speed_dist(1.0, std::max(cfg.node_speed_sigma, 1e-12), 0.7);
    nodes_.resize(cfg.num_nodes);
    for (int n = 0; n < cfg.num_nodes; ++n) {
      NodeState& node = nodes_[n];
      node.speed = cfg.node_speed_sigma > 0.0 ? speed_dist.Sample(node_rng)
                                              : 1.0;
      node.rack = n % std::max(1, cfg.num_racks);
      node.slots.free_maps = cfg.map_slots_per_node;
      node.slots.free_reduces = cfg.reduce_slots_per_node;
    }
  }

  void Dispatch(const Event& ev) {
    switch (ev.kind) {
      case EventKind::kJobArrival:
        OnJobArrival(ev.a);
        break;
      case EventKind::kHeartbeat:
        OnHeartbeat(ev.a, /*rearm=*/true, ev.b);
        break;
      case EventKind::kOobHeartbeat:
        OnHeartbeat(ev.a, /*rearm=*/false, 0);
        break;
      case EventKind::kMapDataReady:
        OnMapDataReady(ev.a, ev.b);
        break;
      case EventKind::kReduceDone: {
        // Exact completion instant: with out-of-band heartbeats enabled the
        // node reports immediately instead of waiting for its next beat.
        // The staleness gate drops events whose attempt was killed by a
        // fault (the reset pushed r.end away from this instant).
        JobRuntime& job = *jobs_[ev.a];
        const ReduceTaskRt& r = job.reduces()[ev.b];
        if (options_.config.out_of_band_heartbeat &&
            r.state == TaskState::kRunning &&
            r.phase == ReducePhase::kMergeAndReduce &&
            r.end <= now() + kTimeEpsilon) {
          kernel_.Schedule(now(), Event{EventKind::kOobHeartbeat, r.node});
        }
        break;
      }
      case EventKind::kFetchCheck:
        OnFetchCheck(ev.b);
        break;
      case EventKind::kFaultAction:
        OnFaultAction(ev.a);
        break;
      case EventKind::kTrackerExpiry:
        OnTrackerExpiry(ev.a);
        break;
      default:
        throw std::logic_error("TestbedSim: unexpected event kind");
    }
  }

  void OnJobArrival(std::int32_t submission_index) {
    const SubmittedJob& submission = submissions_[submission_index];
    const JobId id = static_cast<JobId>(jobs_.size());
    jobs_.push_back(std::make_unique<JobRuntime>(
        id, submission, options_.config, master_rng_.Split("job", id)));
    if (options_.caps) jobs_.back()->caps() = options_.caps(submission);
    job_queue_.push_back(jobs_.back().get());
    if (obs_ != nullptr)
      obs_->OnJobArrival(now(), id, submission.spec.FullName(),
                         submission.deadline);
    SIMMR_DEBUG << "t=" << now() << " job " << id << " ("
                << submission.spec.FullName() << ") arrived";
  }

  void OnHeartbeat(NodeId node_id, bool rearm, std::int32_t epoch) {
    NodeState& node = nodes_[node_id];
    if (rearm && epoch != node.hb_epoch) return;  // chain from before a fault
    if (node.down) return;  // daemon dead: no beat, and the chain ends here
    // During a heartbeat-loss window the daemon keeps its cadence but the
    // JobTracker never sees the beat: nothing is reported or assigned, yet
    // the chain re-arms (the node itself is healthy).
    const bool suppressed = now() < node.hb_suppressed_until;
    if (!suppressed) {
      node.last_heartbeat = now();
      shuffle_.Advance(now());
      ProcessFetchCompletions();
      ReportFinishedTasks(node_id);
      // Blacklisted trackers keep reporting but receive no new work.
      if (!node.blacklisted) AssignTasks(node_id);
    }

    // Hadoop TaskTrackers heartbeat for as long as the daemon runs; we stop
    // re-arming once nothing can ever need this node again.
    if (rearm && finished_jobs_ < submissions_.size()) {
      kernel_.Schedule(now() + options_.config.heartbeat_interval,
                  Event{EventKind::kHeartbeat, node_id, node.hb_epoch});
    }
  }

  void ReportFinishedTasks(NodeId node_id) {
    NodeState& node = nodes_[node_id];
    for (std::size_t i = 0; i < node.running.size();) {
      const NodeTask entry = node.running[i];  // copy: the vector mutates
      const JobId job_id = entry.job;
      const TaskKind kind = entry.kind;
      const TaskIndex index = entry.index;
      JobRuntime& job = *jobs_[job_id];
      bool done = false;
      if (kind == TaskKind::kMap) {
        MapTaskRt& m = job.maps()[index];
        if (entry.end <= now() + kTimeEpsilon) {
          // Attempt outcome: a failed attempt never succeeds; a healthy
          // attempt succeeds only if it is the first to report (with
          // speculation, the later twin is a killed duplicate).
          const bool winner = !entry.failing && !m.reported;
          TaskAttemptRecord rec;
          rec.job = job_id;
          rec.kind = TaskKind::kMap;
          rec.index = index;
          rec.node = node_id;
          rec.start = entry.start;
          rec.shuffle_end = entry.start;
          rec.end = entry.end;
          rec.input_mb = m.input_mb;
          rec.succeeded = winner;
          log_.AddTask(rec);
          if (obs_ != nullptr)
            obs_->OnTaskCompletion(
                now(), job_id, obs::TaskKind::kMap, index,
                obs::TaskTiming{entry.start, entry.start, entry.end},
                winner);
          ++node.slots.free_maps;
          --job.running_maps;
          --m.active_attempts;
          if (entry.drawn_failure) CountNodeFailure(node_id);
          if (winner) {
            m.state = TaskState::kDone;
            m.reported = true;
            // Attribute the completion to the winning attempt's node: this
            // is where the output lives, which is what lost-node map
            // re-execution keys on.
            m.node = node_id;
            ++job.maps_reported;
            job.completed_map_duration_sum += entry.end - entry.start;
            ++job.completed_map_count;
            KillOtherMapAttempts(job_id, index, node_id);
          } else if (!m.reported && m.active_attempts == 0) {
            // Every attempt failed: the task goes back to pending.
            m.state = TaskState::kPending;
            m.speculated = false;
            RequeueMapChecked(job, index);
          }
          done = true;
        }
      } else {
        ReduceTaskRt& r = job.reduces()[index];
        if (r.phase == ReducePhase::kMergeAndReduce &&
            r.end <= now() + kTimeEpsilon) {
          TaskAttemptRecord rec;
          rec.job = job_id;
          rec.kind = TaskKind::kReduce;
          rec.index = index;
          rec.node = node_id;
          rec.start = r.start;
          rec.shuffle_end = r.shuffle_end;
          rec.end = r.end;
          rec.input_mb = r.bytes_mb;
          rec.succeeded = !r.attempt_failing;
          log_.AddTask(rec);
          if (obs_ != nullptr)
            obs_->OnTaskCompletion(
                now(), job_id, obs::TaskKind::kReduce, index,
                obs::TaskTiming{r.start, r.shuffle_end, r.end},
                !r.attempt_failing);
          ++node.slots.free_reduces;
          --job.running_reduces;
          if (r.attempt_failing) {
            CountNodeFailure(node_id);
            r.attempt_failing = false;
            r.state = TaskState::kPending;
            r.phase = ReducePhase::kFetch;
            r.flow = -1;
            r.end = kTimeInfinity;
            RequeueReduceChecked(job, index);
          } else {
            r.state = TaskState::kDone;
            r.reported = true;
            ++job.reduces_reported;
          }
          done = true;
        }
      }
      if (done) {
        node.running[i] = node.running.back();
        node.running.pop_back();
        MaybeFinishJob(job);
      } else {
        ++i;
      }
    }
  }

  void MaybeFinishJob(JobRuntime& job) {
    if (job.Finished()) return;
    if (job.maps_reported < job.num_maps() ||
        job.reduces_reported < job.num_reduces())
      return;
    job.finish_time = now();
    makespan_ = std::max(makespan_, now());
    ++finished_jobs_;
    if (obs_ != nullptr) obs_->OnJobCompletion(now(), job.id());
    job_queue_.erase(
        std::find(job_queue_.begin(), job_queue_.end(), &job));
    EmitJobRecord(job);
    SIMMR_DEBUG << "t=" << now() << " job " << job.id() << " finished";
  }

  /// JobTracker-side abort: a task exhausted ClusterConfig::max_attempts.
  /// The job leaves the scheduling queue and counts as finished (failed).
  /// In-flight attempts are left to drain naturally — they are logged when
  /// they report and their slots return then; Hadoop actively kills them,
  /// but the difference is bounded by one attempt length and keeps the
  /// reaping logic non-reentrant.
  void FailJob(JobRuntime& job) {
    if (job.Finished()) return;
    job.failed = true;
    job.finish_time = now();
    makespan_ = std::max(makespan_, now());
    ++finished_jobs_;
    if (obs_ != nullptr) obs_->OnJobCompletion(now(), job.id());
    job_queue_.erase(
        std::find(job_queue_.begin(), job_queue_.end(), &job));
    EmitJobRecord(job);
    SIMMR_DEBUG << "t=" << now() << " job " << job.id()
                << " FAILED (max_attempts exhausted)";
  }

  void EmitJobRecord(const JobRuntime& job) {
    JobRecord rec;
    rec.job = job.id();
    rec.app_name = job.spec().app.name;
    rec.dataset = job.spec().dataset_label;
    rec.num_maps = job.num_maps();
    rec.num_reduces = job.num_reduces();
    rec.input_mb = job.spec().input_mb;
    rec.submit_time = job.submit_time();
    rec.launch_time = job.launch_time;
    rec.finish_time = job.finish_time;
    rec.maps_done_time = job.maps_done_time;
    rec.deadline = job.deadline();
    rec.failed = job.failed;
    log_.AddJob(std::move(rec));
  }

  /// Requeues a task for re-execution, or fails the job when the attempt
  /// budget is exhausted.
  void RequeueMapChecked(JobRuntime& job, TaskIndex index) {
    if (job.Finished()) return;
    const int max = options_.config.max_attempts;
    if (max > 0 && job.maps()[index].attempts >= max) {
      FailJob(job);
      return;
    }
    job.RequeueMap(index);
  }

  void RequeueReduceChecked(JobRuntime& job, TaskIndex index) {
    if (job.Finished()) return;
    const int max = options_.config.max_attempts;
    if (max > 0 && job.reduces()[index].attempts >= max) {
      FailJob(job);
      return;
    }
    job.RequeueReduce(index);
  }

  /// Counts a genuine attempt failure against the node and blacklists it
  /// once ClusterConfig::node_blacklist_failures is reached.
  void CountNodeFailure(NodeId node_id) {
    NodeState& node = nodes_[node_id];
    ++node.failed_attempts;
    const int limit = options_.config.node_blacklist_failures;
    if (limit > 0 && !node.blacklisted && node.failed_attempts >= limit) {
      node.blacklisted = true;
      SIMMR_DEBUG << "t=" << now() << " node " << node_id
                  << " blacklisted after " << node.failed_attempts
                  << " failed attempts";
    }
  }

  /// The winning attempt kills the still-running duplicate (if any): its
  /// entry end is pulled to `now` so its node reaps it immediately.
  void KillOtherMapAttempts(JobId job_id, TaskIndex index,
                            NodeId winner_node) {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      for (NodeTask& other : nodes_[n].running) {
        if (other.job != job_id || other.kind != TaskKind::kMap ||
            other.index != index || other.end <= now() + kTimeEpsilon)
          continue;
        // The twin's pending output landing must not fire.
        if (!other.failing)
          cancelled_map_data_.push_back({job_id, index, other.end});
        other.end = now();
        other.failing = true;  // it will be logged as not-succeeded
        if (static_cast<NodeId>(n) != winner_node &&
            !nodes_[n].down && options_.config.out_of_band_heartbeat) {
          kernel_.Schedule(now(), Event{EventKind::kOobHeartbeat,
                                  static_cast<NodeId>(n)});
        }
      }
    }
  }

  void AssignTasks(NodeId node_id) {
    NodeState& node = nodes_[node_id];
    const ClusterConfig& cfg = options_.config;

    // Hadoop 0.20 assigns at most one map and one reduce per heartbeat.
    if (node.slots.free_maps > 0) {
      const JobId job_id = scheduler_->PickMapJob(job_queue_);
      if (obs_ != nullptr)
        obs_->OnSchedulerDecision(now(), obs::TaskKind::kMap, job_id);
      if (job_id != kInvalidJob) {
        LaunchMap(*jobs_[job_id], node_id);
      } else if (cfg.speculative_execution) {
        TrySpeculateMap(node_id);
      }
    }
    if (node.slots.free_reduces > 0) {
      const JobId job_id =
          scheduler_->PickReduceJob(job_queue_, cfg.reduce_slowstart);
      if (obs_ != nullptr)
        obs_->OnSchedulerDecision(now(), obs::TaskKind::kReduce, job_id);
      if (job_id != kInvalidJob) LaunchReduce(*jobs_[job_id], node_id);
    }
  }

  /// Per-attempt RNG stream keyed by (job, kind, index, attempt ordinal).
  /// Every attempt's stochastic draws — failure decision, death fraction,
  /// retry duration noise — are independent of scheduling order: a retry
  /// re-runs with a fresh sample no matter when or where it launches, and
  /// the fuzzer's re-run differential stays bit-exact.
  Rng AttemptRng(JobId job, TaskKind kind, TaskIndex index,
                 int attempt) const {
    std::uint64_t key = static_cast<std::uint64_t>(job);
    key = key * 0x100000001B3ULL ^ (kind == TaskKind::kMap ? 1u : 2u);
    key = key * 0x100000001B3ULL ^ static_cast<std::uint64_t>(index);
    key = key * 0x100000001B3ULL ^ static_cast<std::uint64_t>(attempt);
    return failure_rng_.Split("attempt", key);
  }

  static double MeanOneLogNormal(Rng& rng, double sigma) {
    if (sigma <= 0.0) return 1.0;
    return std::exp(sigma * rng.NextGaussian() - 0.5 * sigma * sigma);
  }

  void LaunchMap(JobRuntime& job, NodeId node_id) {
    const TaskIndex index =
        options_.config.model_locality &&
                options_.config.locality_aware_scheduling
            ? job.PopPendingMapPreferLocal(node_id,
                                           options_.config.num_racks)
            : job.PopPendingMap();
    MapTaskRt& m = job.maps()[index];
    m.state = TaskState::kRunning;
    m.node = node_id;
    // A retry is a new run, not a replay of the doomed sample: it draws
    // fresh duration noise from its attempt-keyed stream.
    double noise = m.noise;
    if (m.attempts > 0) {
      Rng rng = AttemptRng(job.id(), TaskKind::kMap, index, m.attempts)
                    .Split("noise");
      noise = MeanOneLogNormal(rng, job.spec().app.map_sigma);
    }
    LaunchMapAttempt(job, index, node_id, /*speculative=*/false, noise);
    m.start = now();
    m.end = node_last_attempt_end_;
  }

  /// Launches one map attempt (primary or speculative backup) on the node
  /// and records it as a NodeTask entry. Sets node_last_attempt_end_.
  void LaunchMapAttempt(JobRuntime& job, TaskIndex index, NodeId node_id,
                        bool speculative, double noise) {
    NodeState& node = nodes_[node_id];
    MapTaskRt& m = job.maps()[index];
    const AppModel& app = job.spec().app;
    double duration =
        (app.map_startup_s + m.input_mb * app.map_cost_s_per_mb * noise) /
        (node.speed * node.fault_slowdown) +
        MapReadPenalty(options_.config, m, node_id);
    Rng attempt_rng =
        AttemptRng(job.id(), TaskKind::kMap, index, m.attempts);
    const bool failing = DrawFailure(attempt_rng);
    if (failing) {
      // The attempt dies partway through; the slot is wasted until then.
      duration *= attempt_rng.NextDouble(0.05, 0.95);
    }
    ++m.attempts;
    ++m.active_attempts;
    ++job.running_maps;
    --node.slots.free_maps;
    NodeTask entry;
    entry.job = job.id();
    entry.kind = TaskKind::kMap;
    entry.index = index;
    entry.speculative = speculative;
    entry.failing = failing;
    entry.drawn_failure = failing;
    entry.start = now();
    entry.end = now() + duration;
    node.running.push_back(entry);
    node_last_attempt_end_ = entry.end;
    if (obs_ != nullptr)
      obs_->OnTaskLaunch(now(), job.id(), obs::TaskKind::kMap, index);
    if (job.launch_time < 0.0) job.launch_time = now();
    if (failing) {
      if (options_.config.out_of_band_heartbeat) {
        kernel_.Schedule(entry.end, Event{EventKind::kOobHeartbeat, node_id});
      }
    } else {
      kernel_.Schedule(entry.end,
                  Event{EventKind::kMapDataReady, job.id(), index});
    }
  }

  /// Hadoop-style speculation: with a free slot and no pending maps, run a
  /// backup attempt of the straggliest running map (planned duration above
  /// the slowness threshold relative to the job's completed-map average).
  void TrySpeculateMap(NodeId node_id) {
    const ClusterConfig& cfg = options_.config;
    JobRuntime* best_job = nullptr;
    TaskIndex best_index = kInvalidTask;
    double best_excess = 0.0;
    for (const JobRuntime* job_view : job_queue_) {
      JobRuntime& job = *jobs_[job_view->id()];
      if (job.completed_map_count == 0) continue;  // no baseline yet
      if (job.RunningMaps() >= job.caps().map_cap) continue;
      const double avg = job.completed_map_duration_sum /
                         job.completed_map_count;
      const double threshold = cfg.speculation_slowness_threshold * avg;
      for (TaskIndex i = 0; i < job.num_maps(); ++i) {
        MapTaskRt& m = job.maps()[i];
        if (m.state != TaskState::kRunning || m.reported || m.speculated ||
            m.active_attempts != 1)
          continue;
        const double planned = m.end - m.start;
        if (planned <= threshold) continue;
        if (best_job == nullptr || planned - threshold > best_excess) {
          best_job = &job;
          best_index = i;
          best_excess = planned - threshold;
        }
      }
    }
    if (best_job == nullptr) return;
    MapTaskRt& m = best_job->maps()[best_index];
    m.speculated = true;
    // The backup attempt draws fresh duration noise (a straggler's noise
    // was the problem) and runs at this node's speed.
    const double noise = std::exp(
        best_job->spec().app.map_sigma * speculation_rng_.NextGaussian() -
        0.5 * best_job->spec().app.map_sigma *
            best_job->spec().app.map_sigma);
    LaunchMapAttempt(*best_job, best_index, node_id, /*speculative=*/true,
                     noise);
  }

  void LaunchReduce(JobRuntime& job, NodeId node_id) {
    NodeState& node = nodes_[node_id];
    const TaskIndex index = job.PopPendingReduce();
    ReduceTaskRt& r = job.reduces()[index];
    const int attempt = r.attempts;
    r.state = TaskState::kRunning;
    r.node = node_id;
    r.start = now();
    ++r.attempts;
    ++job.running_reduces;
    --node.slots.free_reduces;
    NodeTask entry;
    entry.job = job.id();
    entry.kind = TaskKind::kReduce;
    entry.index = index;
    node.running.push_back(entry);
    if (obs_ != nullptr)
      obs_->OnTaskLaunch(now(), job.id(), obs::TaskKind::kReduce, index);
    if (job.launch_time < 0.0) job.launch_time = now();

    const AppModel& app = job.spec().app;
    if (attempt > 0) {
      // Retries draw fresh phase noise (same sigmas JobRuntime used for the
      // first attempt) from the attempt-keyed stream.
      Rng rng = AttemptRng(job.id(), TaskKind::kReduce, index, attempt)
                    .Split("noise");
      r.merge_noise = MeanOneLogNormal(rng, 0.08);
      r.reduce_noise = MeanOneLogNormal(rng, app.reduce_sigma);
    }
    Rng attempt_rng =
        AttemptRng(job.id(), TaskKind::kReduce, index, attempt);
    r.attempt_failing = DrawFailure(attempt_rng);
    if (r.attempt_failing) {
      // The attempt dies during its run; approximate the point of death as
      // a uniform fraction of the attempt's nominal span. It holds the
      // slot but fetches nothing (its partial fetch is discarded anyway).
      const double nominal = r.bytes_mb / MakePerFlowCap(options_.config) +
                             r.bytes_mb * app.merge_cost_s_per_mb +
                             app.reduce_startup_s +
                             r.bytes_mb * app.reduce_cost_s_per_mb;
      r.phase = ReducePhase::kMergeAndReduce;  // no flow to manage
      r.end = now() + std::max(0.1, nominal) *
                         attempt_rng.NextDouble(0.05, 0.95);
      r.shuffle_end = r.end;
      if (options_.config.out_of_band_heartbeat) {
        kernel_.Schedule(r.end, Event{EventKind::kOobHeartbeat, node_id});
      }
      return;
    }

    r.phase = ReducePhase::kFetch;
    r.end = kTimeInfinity;
    const double available = job.produced_mb * r.frac;
    r.flow = shuffle_.AddFlow(r.bytes_mb, available);
    fetching_.push_back({job.id(), index});
    ProcessFetchCompletions();  // zero-byte flows complete immediately
    ScheduleFetchCheck();
  }

  bool DrawFailure(Rng& attempt_rng) {
    const double p = options_.config.task_failure_prob;
    return p > 0.0 && attempt_rng.NextDouble() < p;
  }

  void OnMapDataReady(JobId job_id, TaskIndex map_index) {
    // Annulled by a node death: the attempt's output never landed.
    for (std::size_t i = 0; i < cancelled_map_data_.size(); ++i) {
      const CancelledMapData& c = cancelled_map_data_[i];
      if (c.job == job_id && c.index == map_index && c.at == now()) {
        cancelled_map_data_[i] = cancelled_map_data_.back();
        cancelled_map_data_.pop_back();
        return;
      }
    }
    JobRuntime& job = *jobs_[job_id];
    MapTaskRt& m = job.maps()[map_index];
    if (m.data_ready) return;  // a faster (speculative) twin already landed
    m.data_ready = true;
    ++job.maps_data_ready;
    if (job.AllMapsDataReady()) job.maps_done_time = now();
    if (m.rerun) {
      // Re-execution after output loss: the bytes were already counted when
      // the original attempt landed, and whatever the reduces fetched
      // survives — recovery costs recompute time, not re-shuffle volume.
      if (options_.config.out_of_band_heartbeat) {
        kernel_.Schedule(now(), Event{EventKind::kOobHeartbeat, m.node});
      }
      return;
    }
    const double out_mb = m.input_mb * job.spec().app.map_selectivity;
    job.produced_mb += out_mb;

    shuffle_.Advance(now());
    for (const auto& [fj, fr] : fetching_) {
      if (fj != job_id) continue;
      const ReduceTaskRt& r = job.reduces()[fr];
      shuffle_.AddAvailability(r.flow, out_mb * r.frac);
    }
    ProcessFetchCompletions();
    ScheduleFetchCheck();
    if (options_.config.out_of_band_heartbeat) {
      kernel_.Schedule(now(), Event{EventKind::kOobHeartbeat, m.node});
    }
  }

  void OnFetchCheck(std::int32_t generation) {
    if (generation != fetch_generation_) return;  // superseded schedule
    shuffle_.Advance(now());
    ProcessFetchCompletions();
    ScheduleFetchCheck();
  }

  /// Moves every completed fetch into the merge+reduce phase. Safe to call
  /// after any shuffle_ mutation at the current time. Every unretired flow
  /// belongs to a fetching_ entry, so the scan stops once the model holds
  /// no complete unretired flow. fetching_'s order fixes the order of the
  /// kReduceDone schedules and observer calls below.
  void ProcessFetchCompletions() {
    for (std::size_t i = 0;
         i < fetching_.size() && shuffle_.CompleteUnretiredCount() > 0;) {
      const auto [job_id, index] = fetching_[i];
      JobRuntime& job = *jobs_[job_id];
      ReduceTaskRt& r = job.reduces()[index];
      if (!shuffle_.IsComplete(r.flow)) {
        ++i;
        continue;
      }
      shuffle_.Retire(r.flow);
      r.flow = -1;
      const AppModel& app = job.spec().app;
      const NodeState& rnode = nodes_[r.node];
      const double speed = rnode.speed * rnode.fault_slowdown;
      const double merge_dur =
          r.bytes_mb * app.merge_cost_s_per_mb * r.merge_noise / speed;
      const double reduce_dur =
          (app.reduce_startup_s +
           r.bytes_mb * app.reduce_cost_s_per_mb * r.reduce_noise) /
          speed;
      r.phase = ReducePhase::kMergeAndReduce;
      r.shuffle_end = now() + merge_dur;
      r.end = r.shuffle_end + reduce_dur;
      // The reduce's shuffle fetch finished; it enters merge+reduce now.
      if (obs_ != nullptr)
        obs_->OnTaskPhaseTransition(now(), job_id, obs::TaskKind::kReduce,
                                    index, "merge+reduce");
      kernel_.Schedule(r.end, Event{EventKind::kReduceDone, job_id, index});
      fetching_[i] = fetching_.back();
      fetching_.pop_back();
    }
  }

  void ScheduleFetchCheck() {
    ++fetch_generation_;
    const SimTime next = shuffle_.NextEventTime();
    if (next < kTimeInfinity) {
      kernel_.Schedule(std::max(next, now()),
                  Event{EventKind::kFetchCheck, 0, fetch_generation_});
    }
  }

  // --- fault injection -------------------------------------------------

  void OnFaultAction(std::int32_t action_index) {
    const fault::FaultAction a = fault_actions_[action_index];
    switch (a.kind) {
      case fault::FaultActionKind::kNodeCrash:
        CrashNode(a.node);
        break;
      case fault::FaultActionKind::kNodeRestore:
        RestoreNode(a.node);
        break;
      case fault::FaultActionKind::kHeartbeatLoss: {
        NodeState& node = nodes_[a.node];
        if (node.down) break;  // a dead daemon has no heartbeats to lose
        node.hb_suppressed_until =
            std::max(node.hb_suppressed_until, a.end_time);
        // If the silence outlasts the expiry interval the JobTracker will
        // declare the tracker lost while the node is still alive.
        kernel_.Schedule(
            std::max(now(), node.last_heartbeat +
                                options_.config.tasktracker_expiry_interval),
            Event{EventKind::kTrackerExpiry, a.node});
        break;
      }
      case fault::FaultActionKind::kNodeSlowdown:
        nodes_[a.node].fault_slowdown *= a.factor;
        break;
      case fault::FaultActionKind::kKillAttempt:
        KillTargetedAttempt(a);
        break;
    }
  }

  /// Node-side death: heartbeats stop, in-flight map outputs never land,
  /// running fetches stop pulling bandwidth. The JobTracker only notices
  /// at expiry time (or when a restore brings the tracker back first).
  void CrashNode(NodeId node_id) {
    NodeState& node = nodes_[node_id];
    if (node.down) return;
    node.down = true;
    ++node.hb_epoch;  // orphan the in-flight heartbeat chain
    shuffle_.Advance(now());
    bool retired = false;
    for (const NodeTask& entry : node.running) CancelAttemptIo(entry, &retired);
    if (retired) {
      ProcessFetchCompletions();
      ScheduleFetchCheck();
    }
    kernel_.Schedule(
        std::max(now(), node.last_heartbeat +
                            options_.config.tasktracker_expiry_interval),
        Event{EventKind::kTrackerExpiry, node_id});
    SIMMR_DEBUG << "t=" << now() << " node " << node_id << " crashed ("
                << node.running.size() << " attempts stranded)";
  }

  /// JobTracker-side lost-tracker check, armed whenever a node goes silent.
  void OnTrackerExpiry(NodeId node_id) {
    NodeState& node = nodes_[node_id];
    if (node.lost) return;
    // Stale check: the tracker has been heard from since this was armed.
    if (now() + kTimeEpsilon <
        node.last_heartbeat + options_.config.tasktracker_expiry_interval)
      return;
    const bool silent = node.down || now() < node.hb_suppressed_until;
    if (!silent) return;
    DeclareNodeLost(node_id);
  }

  void DeclareNodeLost(NodeId node_id) {
    NodeState& node = nodes_[node_id];
    node.lost = true;
    if (!node.down) {
      // The daemon is alive but unreachable (heartbeat loss): from the
      // JobTracker's point of view it is gone. Model the declaration as a
      // node death with an automatic rejoin when the window closes.
      node.down = true;
      ++node.hb_epoch;
      shuffle_.Advance(now());
      bool retired = false;
      for (const NodeTask& entry : node.running)
        CancelAttemptIo(entry, &retired);
      if (retired) {
        ProcessFetchCompletions();
        ScheduleFetchCheck();
      }
      if (node.hb_suppressed_until > now()) {
        fault::FaultAction rejoin;
        rejoin.kind = fault::FaultActionKind::kNodeRestore;
        rejoin.time = node.hb_suppressed_until;
        rejoin.node = node_id;
        const auto idx = static_cast<std::int32_t>(fault_actions_.size());
        fault_actions_.push_back(rejoin);
        kernel_.Schedule(rejoin.time, Event{EventKind::kFaultAction, idx});
      }
    }
    if (obs_ != nullptr)
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kNodeLost, node_id, -1,
                         obs::TaskKind::kMap, -1);
    SIMMR_DEBUG << "t=" << now() << " node " << node_id << " declared lost";
    ReapNodeAttempts(node_id);
    ReexecuteLostMapOutputs(node_id);
  }

  /// A crashed node rejoins with empty slots; its local disk is treated as
  /// wiped, so if the JobTracker had not yet declared it lost the stranded
  /// attempts are reaped and its completed map outputs re-executed now.
  void RestoreNode(NodeId node_id) {
    NodeState& node = nodes_[node_id];
    if (!node.down) return;
    if (!node.lost) {
      ReapNodeAttempts(node_id);
      ReexecuteLostMapOutputs(node_id);
    }
    node.running.clear();
    node.down = false;
    node.lost = false;
    node.hb_suppressed_until = 0.0;
    node.slots.free_maps = options_.config.map_slots_per_node;
    node.slots.free_reduces = options_.config.reduce_slots_per_node;
    node.last_heartbeat = now();
    ++node.hb_epoch;
    if (obs_ != nullptr)
      obs_->OnFaultEvent(now(), obs::FaultEventKind::kNodeRestored, node_id,
                         -1, obs::TaskKind::kMap, -1);
    SIMMR_DEBUG << "t=" << now() << " node " << node_id << " restored";
    if (finished_jobs_ < submissions_.size()) {
      kernel_.Schedule(now(),
                  Event{EventKind::kHeartbeat, node_id, node.hb_epoch});
    }
  }

  /// Kills every attempt stranded on a dead node and resets its slots.
  /// Node-side IO was already cancelled at the down transition.
  void ReapNodeAttempts(NodeId node_id) {
    NodeState& node = nodes_[node_id];
    const std::vector<NodeTask> stranded = std::move(node.running);
    node.running.clear();
    for (const NodeTask& entry : stranded)
      KillAttemptEntry(node_id, entry, /*free_slot=*/false,
                       /*cancel_io=*/false);
    node.slots.free_maps = options_.config.map_slots_per_node;
    node.slots.free_reduces = options_.config.reduce_slots_per_node;
  }

  /// A lost node's local disk is gone: every completed map whose output
  /// lived there must re-execute for jobs whose reduces still need it.
  /// Data the reduces already fetched survives (MapTaskRt::rerun).
  void ReexecuteLostMapOutputs(NodeId node_id) {
    for (const auto& job_ptr : jobs_) {
      JobRuntime& job = *job_ptr;
      if (job.Finished() || job.num_reduces() == 0) continue;
      for (TaskIndex i = 0; i < job.num_maps(); ++i) {
        MapTaskRt& m = job.maps()[i];
        if (!m.reported || m.node != node_id) continue;
        m.reported = false;
        --job.maps_reported;
        if (m.data_ready) {
          m.data_ready = false;
          --job.maps_data_ready;
        }
        m.rerun = true;
        m.state = TaskState::kPending;
        m.speculated = false;
        job.RequeueMap(i);
        if (obs_ != nullptr)
          obs_->OnFaultEvent(now(), obs::FaultEventKind::kTaskReexecuted,
                             node_id, job.id(), obs::TaskKind::kMap, i);
        SIMMR_DEBUG << "t=" << now() << " job " << job.id() << " map " << i
                    << " re-executed (output lost with node " << node_id
                    << ")";
      }
    }
  }

  /// Targeted fault-plan kill: every running attempt of the named task is
  /// killed immediately and the task requeued. No-op when the task is not
  /// running (the plan's timing missed).
  void KillTargetedAttempt(const fault::FaultAction& a) {
    if (a.job < 0 || a.job >= static_cast<JobId>(jobs_.size())) return;
    JobRuntime& job = *jobs_[a.job];
    if (job.Finished()) return;
    const TaskKind kind = a.task_kind == obs::TaskKind::kMap
                              ? TaskKind::kMap
                              : TaskKind::kReduce;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      NodeState& node = nodes_[n];
      if (node.down) continue;  // stranded entries are handled at expiry
      for (std::size_t i = 0; i < node.running.size();) {
        if (node.running[i].job != a.job || node.running[i].kind != kind ||
            node.running[i].index != a.index) {
          ++i;
          continue;
        }
        const NodeTask entry = node.running[i];
        node.running[i] = node.running.back();
        node.running.pop_back();
        KillAttemptEntry(static_cast<NodeId>(n), entry, /*free_slot=*/true,
                         /*cancel_io=*/true);
        if (options_.config.out_of_band_heartbeat) {
          kernel_.Schedule(now(), Event{EventKind::kOobHeartbeat,
                                  static_cast<NodeId>(n)});
        }
      }
    }
  }

  /// Node-side cancellation of an attempt's pending IO: the map-output
  /// landing event is annulled and a running fetch stops consuming
  /// bandwidth. The caller must have Advance()d the shuffle model; sets
  /// *retired when a flow was removed so the caller can re-run the fetch
  /// bookkeeping once.
  void CancelAttemptIo(const NodeTask& entry, bool* retired) {
    if (entry.kind == TaskKind::kMap) {
      if (!entry.failing && entry.end > now() + kTimeEpsilon)
        cancelled_map_data_.push_back({entry.job, entry.index, entry.end});
    } else {
      ReduceTaskRt& r = jobs_[entry.job]->reduces()[entry.index];
      if (r.phase == ReducePhase::kFetch && r.flow >= 0) {
        for (std::size_t i = 0; i < fetching_.size(); ++i) {
          if (fetching_[i].first == entry.job &&
              fetching_[i].second == entry.index) {
            fetching_[i] = fetching_.back();
            fetching_.pop_back();
            break;
          }
        }
        shuffle_.Retire(r.flow);
        r.flow = -1;
        *retired = true;
      }
    }
  }

  /// Reaps one running attempt: logs it as not-succeeded, notifies
  /// observers, releases JobTracker-side accounting and requeues the task
  /// (or fails the job when the attempt budget is exhausted). The caller
  /// removes the entry from its node's running list.
  void KillAttemptEntry(NodeId node_id, const NodeTask& entry, bool free_slot,
                        bool cancel_io) {
    JobRuntime& job = *jobs_[entry.job];
    if (cancel_io) {
      shuffle_.Advance(now());
      bool retired = false;
      CancelAttemptIo(entry, &retired);
      if (retired) {
        ProcessFetchCompletions();
        ScheduleFetchCheck();
      }
    }
    if (entry.kind == TaskKind::kMap) {
      MapTaskRt& m = job.maps()[entry.index];
      TaskAttemptRecord rec;
      rec.job = entry.job;
      rec.kind = TaskKind::kMap;
      rec.index = entry.index;
      rec.node = node_id;
      rec.start = entry.start;
      rec.shuffle_end = entry.start;
      rec.end = now();
      rec.input_mb = m.input_mb;
      rec.succeeded = false;
      log_.AddTask(rec);
      if (obs_ != nullptr) {
        obs_->OnTaskCompletion(now(), entry.job, obs::TaskKind::kMap,
                               entry.index,
                               obs::TaskTiming{entry.start, entry.start,
                                               now()},
                               false);
        obs_->OnFaultEvent(now(), obs::FaultEventKind::kAttemptKilled,
                           node_id, entry.job, obs::TaskKind::kMap,
                           entry.index);
      }
      --job.running_maps;
      --m.active_attempts;
      if (free_slot) ++nodes_[node_id].slots.free_maps;
      if (m.data_ready && !m.reported) {
        // The output landed on this node's disk but was never reported;
        // it dies with the node.
        m.data_ready = false;
        --job.maps_data_ready;
        m.rerun = true;
      }
      if (!m.reported && m.active_attempts == 0) {
        m.state = TaskState::kPending;
        m.speculated = false;
        RequeueMapChecked(job, entry.index);
      }
    } else {
      ReduceTaskRt& r = job.reduces()[entry.index];
      TaskAttemptRecord rec;
      rec.job = entry.job;
      rec.kind = TaskKind::kReduce;
      rec.index = entry.index;
      rec.node = node_id;
      rec.start = r.start;
      rec.shuffle_end = now();
      rec.end = now();
      rec.input_mb = r.bytes_mb;
      rec.succeeded = false;
      log_.AddTask(rec);
      if (obs_ != nullptr) {
        obs_->OnTaskCompletion(now(), entry.job, obs::TaskKind::kReduce,
                               entry.index,
                               obs::TaskTiming{r.start, now(), now()}, false);
        obs_->OnFaultEvent(now(), obs::FaultEventKind::kAttemptKilled,
                           node_id, entry.job, obs::TaskKind::kReduce,
                           entry.index);
      }
      --job.running_reduces;
      if (free_slot) ++nodes_[node_id].slots.free_reduces;
      r.attempt_failing = false;
      r.state = TaskState::kPending;
      r.phase = ReducePhase::kFetch;
      r.flow = -1;
      r.shuffle_end = 0.0;
      r.end = kTimeInfinity;
      RequeueReduceChecked(job, entry.index);
    }
  }

  const std::vector<SubmittedJob>& submissions_;
  const TestbedOptions& options_;
  Rng master_rng_;
  obs::SimObserver* obs_;
  Rng failure_rng_{0};
  Rng speculation_rng_{0};
  SimTime node_last_attempt_end_ = 0.0;
  ShuffleModel shuffle_;
  std::unique_ptr<TestbedScheduler> scheduler_;
  std::vector<NodeState> nodes_;
  std::vector<std::unique_ptr<JobRuntime>> jobs_;
  std::vector<const JobRuntime*> job_queue_;
  std::vector<std::pair<JobId, TaskIndex>> fetching_;
  // Sorted plan actions; grows when a lost-but-alive tracker's automatic
  // rejoin is scheduled as a synthetic restore.
  std::vector<fault::FaultAction> fault_actions_;
  std::vector<CancelledMapData> cancelled_map_data_;
  SimKernel<Event> kernel_;
  HistoryLog log_;
  SimTime makespan_ = 0.0;
  std::size_t finished_jobs_ = 0;
  std::int32_t fetch_generation_ = 0;
};

}  // namespace

double MapReadPenalty(const ClusterConfig& config, const MapTaskRt& map,
                      NodeId node) {
  if (!config.model_locality || config.remote_read_mbps <= 0.0) return 0.0;
  if (std::find(map.replicas.begin(), map.replicas.end(), node) !=
      map.replicas.end())
    return 0.0;  // node-local
  const int racks = std::max(1, config.num_racks);
  for (const NodeId replica : map.replicas) {
    if (replica % racks == node % racks)
      return map.input_mb / (2.0 * config.remote_read_mbps);  // rack-local
  }
  return map.input_mb / config.remote_read_mbps;  // cross-rack
}

TestbedResult RunTestbed(const std::vector<SubmittedJob>& jobs,
                         const TestbedOptions& options) {
  return TestbedSim(jobs, options).Run();
}

}  // namespace simmr::cluster
