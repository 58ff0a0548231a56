// Lockstep differential: each policy in src/sched, which reads the
// engine's ready sets, against its scanning original kept in
// reference_policies.h. A forwarding policy hands the same view to both on
// every decision and requires the same job; the run then proceeds with
// the reference's choice. On every decision it also requires each ready
// set to hold exactly the queued jobs a scan finds, in its order, so a
// stale member fails even where no policy's choice depends on it. Seeded
// workloads cover backlogged and paced
// arrivals with and without deadlines, Fair weights, multi-queue Capacity,
// MinEDF presets, filler preemption, fault plans, and equal arrivals whose
// dispatch order a permuting ScheduleOracle shuffles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/simmr.h"
#include "fault/fault_gen.h"
#include "mc/oracles.h"
#include "reference_policies.h"
#include "sched/capacity.h"
#include "sched/fair.h"
#include "sched/fifo.h"
#include "sched/maxedf.h"
#include "sched/minedf.h"
#include "sched/preemptive_maxedf.h"
#include "trace/synthetic_tracegen.h"
#include "trace/workload.h"

namespace simmr::sched {
namespace {

constexpr int kMapSlots = 12;
constexpr int kReduceSlots = 8;

/// Calls the indexed policy and its reference with the same view on every
/// decision and counts the decisions on which they disagree.
class Lockstep final : public core::SchedulerPolicy {
 public:
  Lockstep(core::SchedulerPolicy& indexed, core::SchedulerPolicy& reference)
      : indexed_(&indexed), reference_(&reference) {}

  const char* Name() const override { return indexed_->Name(); }

  void OnJobArrival(const core::JobState& job, SimTime now) override {
    indexed_->OnJobArrival(job, now);
    reference_->OnJobArrival(job, now);
  }

  void OnJobCompletion(const core::JobState& job, SimTime now) override {
    indexed_->OnJobCompletion(job, now);
    reference_->OnJobCompletion(job, now);
  }

  core::JobId ChooseNextMapTask(core::JobQueue queue) override {
    CheckView(queue);
    NoteQueueOrder(queue);
    return Agree("map", indexed_->ChooseNextMapTask(queue),
                 reference_->ChooseNextMapTask(queue));
  }

  core::JobId ChooseNextReduceTask(core::JobQueue queue) override {
    CheckView(queue);
    return Agree("reduce", indexed_->ChooseNextReduceTask(queue),
                 reference_->ChooseNextReduceTask(queue));
  }

  core::JobId ChooseReducePreemptionVictim(
      core::JobQueue queue, const core::JobState& claimant) override {
    CheckView(queue);
    return Agree("victim",
                 indexed_->ChooseReducePreemptionVictim(queue, claimant),
                 reference_->ChooseReducePreemptionVictim(queue, claimant));
  }

  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t disagreements() const { return disagreements_; }
  const std::string& first_disagreement() const { return first_; }
  std::uint64_t stale_views() const { return stale_views_; }
  const std::string& first_stale_view() const { return first_stale_; }
  /// Map decisions whose queue held equal arrivals out of id order.
  std::uint64_t out_of_id_order() const { return out_of_id_order_; }

 private:
  core::JobId Agree(const char* call, core::JobId indexed,
                    core::JobId reference) {
    if (indexed != reference && disagreements_++ == 0)
      first_ = std::string(call) + " decision " + std::to_string(decisions_) +
               ": indexed " + std::to_string(indexed) + ", reference " +
               std::to_string(reference);
    ++decisions_;
    return reference;
  }

  using Jobs = std::vector<const core::JobState*>;

  void CheckView(core::JobQueue queue) {
    Jobs maps, reduces, holders;
    for (const core::JobState* job : queue) {
      if (job->HasPendingMap()) maps.push_back(job);
      if (job->reduce_gate_open && job->HasPendingReduce())
        reduces.push_back(job);
      if (job->RunningMaps() + job->RunningReduces() > 0)
        holders.push_back(job);
    }
    ExpectSet("map ready", queue.MapReady(), maps);
    ExpectSet("reduce ready", queue.ReduceReady(), reduces);
    ExpectSet("slot holders", queue.SlotHolders(), holders);
    const auto by_deadline = [](Jobs jobs) {
      std::sort(jobs.begin(), jobs.end(),
                [](const core::JobState* a, const core::JobState* b) {
                  return ReferenceEdfOrderBefore(*a, *b);
                });
      return jobs;
    };
    ExpectSet("map ready by deadline", queue.MapReadyByDeadline(),
              by_deadline(maps));
    ExpectSet("reduce ready by deadline", queue.ReduceReadyByDeadline(),
              by_deadline(reduces));
  }

  void ExpectSet(const char* name, core::JobSet set, const Jobs& expected) {
    Jobs actual;
    for (const core::JobState* job : set) actual.push_back(job);
    if (actual != expected && stale_views_++ == 0)
      first_stale_ = std::string(name) + " at decision " +
                     std::to_string(decisions_) + ": " +
                     std::to_string(actual.size()) + " jobs, a scan finds " +
                     std::to_string(expected.size());
  }

  void NoteQueueOrder(core::JobQueue queue) {
    const core::JobState* prev = nullptr;
    for (const core::JobState* job : queue) {
      if (prev != nullptr && prev->arrival() == job->arrival() &&
          prev->id() > job->id()) {
        ++out_of_id_order_;
        return;
      }
      prev = job;
    }
  }

  core::SchedulerPolicy* indexed_;
  core::SchedulerPolicy* reference_;
  std::uint64_t decisions_ = 0;
  std::uint64_t disagreements_ = 0;
  std::uint64_t out_of_id_order_ = 0;
  std::uint64_t stale_views_ = 0;
  std::string first_;
  std::string first_stale_;
};

struct WorkloadShape {
  int jobs = 30;
  double mean_interarrival_s = 2.0;  // small: a backlog builds up
  double deadline_factor = 0.0;
  /// When positive, arrivals and deadlines are rounded down to multiples
  /// of this step, so several jobs share an arrival time.
  double quantum_s = 0.0;
};

trace::WorkloadTrace RandomWorkload(std::uint64_t seed,
                                    const WorkloadShape& shape) {
  Rng rng(seed);
  std::vector<trace::JobProfile> pool;
  const int num_profiles = 4 + static_cast<int>(rng.NextBounded(5));
  for (int i = 0; i < num_profiles; ++i) {
    trace::SyntheticJobSpec spec;
    spec.app_name = "app" + std::to_string(i);
    spec.num_maps = 1 + static_cast<int>(rng.NextBounded(40));
    spec.num_reduces = static_cast<int>(rng.NextBounded(12));
    spec.first_wave_size = static_cast<int>(rng.NextBounded(6));
    spec.map_duration =
        std::make_shared<UniformDist>(0.5, 1.0 + rng.NextDouble(0, 30));
    spec.first_shuffle_duration =
        std::make_shared<UniformDist>(0.0, 1.0 + rng.NextDouble(0, 5));
    spec.typical_shuffle_duration =
        std::make_shared<UniformDist>(0.5, 1.0 + rng.NextDouble(0, 10));
    spec.reduce_duration =
        std::make_shared<UniformDist>(0.1, 0.5 + rng.NextDouble(0, 8));
    pool.push_back(trace::SynthesizeProfile(spec, rng));
  }
  core::SimConfig solo_config;
  solo_config.map_slots = kMapSlots;
  solo_config.reduce_slots = kReduceSlots;
  const std::vector<double> solos =
      core::MeasureSoloCompletions(pool, solo_config);
  trace::WorkloadParams params;
  params.num_jobs = shape.jobs;
  params.mean_interarrival_s = shape.mean_interarrival_s;
  params.deadline_factor = shape.deadline_factor;
  trace::WorkloadTrace workload = trace::MakeWorkload(pool, solos, params, rng);
  if (shape.quantum_s > 0.0) {
    for (trace::TraceJob& job : workload) {
      job.arrival = shape.quantum_s * std::floor(job.arrival / shape.quantum_s);
      if (job.deadline > 0.0)
        job.deadline =
            shape.quantum_s * std::floor(job.deadline / shape.quantum_s);
    }
  }
  return workload;
}

core::SimConfig Cluster(std::uint64_t seed) {
  core::SimConfig config;
  config.map_slots = kMapSlots;
  config.reduce_slots = kReduceSlots;
  static constexpr double kSlowstarts[] = {0.0, 0.05, 0.5, 1.0};
  config.min_map_percent_completed = kSlowstarts[seed % 4];
  return config;
}

/// One indexed policy and its reference, built alike.
struct PolicyPair {
  std::unique_ptr<core::SchedulerPolicy> indexed;
  std::unique_ptr<core::SchedulerPolicy> reference;
};

const char* const kPolicies[] = {"fifo", "maxedf", "minedf", "fair",
                                 "capacity"};

PolicyPair MakePair(const std::string& name) {
  if (name == "fifo")
    return {std::make_unique<FifoPolicy>(), std::make_unique<ReferenceFifo>()};
  if (name == "maxedf")
    return {std::make_unique<MaxEdfPolicy>(),
            std::make_unique<ReferenceMaxEdf>()};
  if (name == "minedf")
    return {std::make_unique<MinEdfPolicy>(kMapSlots, kReduceSlots),
            std::make_unique<ReferenceMinEdf>(kMapSlots, kReduceSlots)};
  if (name == "fair")
    return {std::make_unique<FairPolicy>(), std::make_unique<ReferenceFair>()};
  if (name == "capacity") {
    const std::vector<QueueConfig> queues{{"default", 1.0}};
    return {std::make_unique<CapacityPolicy>(kMapSlots, kReduceSlots, queues),
            std::make_unique<ReferenceCapacity>(kMapSlots, kReduceSlots,
                                                queues)};
  }
  if (name == "maxedf-p")
    return {std::make_unique<PreemptiveMaxEdfPolicy>(),
            std::make_unique<ReferencePreemptiveMaxEdf>()};
  ADD_FAILURE() << "unknown policy " << name;
  return {};
}

struct Tally {
  std::uint64_t decisions = 0;
  std::uint64_t out_of_id_order = 0;
};

/// Replays the workload under the lockstep pair and returns the wrapper's
/// tallies after checking that the run finished and the two agreed.
Tally RunLockstep(const std::string& label, core::SchedulerPolicy& indexed,
                  core::SchedulerPolicy& reference,
                  const trace::WorkloadTrace& workload,
                  const core::SimConfig& config,
                  ScheduleOracle* oracle = nullptr) {
  Lockstep lockstep(indexed, reference);
  const core::SimResult result =
      core::SimulatorEngine(config, lockstep).Run(workload, oracle);
  EXPECT_EQ(result.jobs.size(), workload.size()) << label;
  EXPECT_GT(lockstep.decisions(), 0u) << label;
  EXPECT_EQ(lockstep.disagreements(), 0u)
      << label << ": " << lockstep.first_disagreement();
  EXPECT_EQ(lockstep.stale_views(), 0u)
      << label << ": " << lockstep.first_stale_view();
  return {lockstep.decisions(), lockstep.out_of_id_order()};
}

TEST(PolicyLockstep, BackloggedAndPacedWithAndWithoutDeadlines) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    for (const double interarrival : {2.0, 150.0}) {
      for (const double deadline_factor : {0.0, 1.5}) {
        WorkloadShape shape;
        shape.mean_interarrival_s = interarrival;
        shape.deadline_factor = deadline_factor;
        const trace::WorkloadTrace workload = RandomWorkload(seed, shape);
        for (const char* name : kPolicies) {
          PolicyPair pair = MakePair(name);
          RunLockstep(std::string(name) + " seed " + std::to_string(seed) +
                          " interarrival " + std::to_string(interarrival) +
                          " deadline " + std::to_string(deadline_factor),
                      *pair.indexed, *pair.reference, workload, Cluster(seed));
        }
      }
    }
  }
}

TEST(PolicyLockstep, FairWithWeights) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    WorkloadShape shape;
    shape.mean_interarrival_s = seed % 2 == 0 ? 2.0 : 40.0;
    const trace::WorkloadTrace workload = RandomWorkload(100 + seed, shape);
    FairPolicy indexed;
    ReferenceFair reference;
    Rng rng(seed);
    for (core::JobId job = 0; job < shape.jobs; ++job) {
      if (rng.NextBounded(3) == 0) continue;  // keeps the default weight
      // Quarter steps, so equal deficits (and the id tie break) occur.
      const double weight =
          0.25 * (1.0 + static_cast<double>(rng.NextBounded(12)));
      indexed.SetWeight(job, weight);
      reference.SetWeight(job, weight);
    }
    RunLockstep("fair seed " + std::to_string(seed), indexed, reference,
                workload, Cluster(seed));
  }
}

TEST(PolicyLockstep, MultiQueueCapacityWithClassifier) {
  const std::vector<QueueConfig> queues{
      {"prod", 0.5}, {"adhoc", 0.3}, {"batch", 0.1}};
  // app0/app1 -> prod, app2 -> adhoc, app3 -> batch, others unknown (the
  // first queue).
  const CapacityPolicy::QueueClassifier classifier =
      [](const core::JobState& job) -> std::string {
    const std::string& app = job.profile().app_name;
    if (app == "app0" || app == "app1") return "prod";
    if (app == "app2") return "adhoc";
    if (app == "app3") return "batch";
    return "unlisted";
  };
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    WorkloadShape shape;
    shape.mean_interarrival_s = seed % 3 == 0 ? 60.0 : 3.0;
    shape.deadline_factor = seed % 2 == 0 ? 0.0 : 2.0;
    const trace::WorkloadTrace workload = RandomWorkload(200 + seed, shape);
    CapacityPolicy indexed(kMapSlots, kReduceSlots, queues, classifier);
    ReferenceCapacity reference(kMapSlots, kReduceSlots, queues, classifier);
    RunLockstep("capacity seed " + std::to_string(seed), indexed, reference,
                workload, Cluster(seed));
  }
}

TEST(PolicyLockstep, MinEdfWithPresets) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    WorkloadShape shape;
    shape.mean_interarrival_s = seed % 2 == 0 ? 2.0 : 30.0;
    shape.deadline_factor = seed % 3 == 0 ? 0.0 : 1.2;
    const trace::WorkloadTrace workload = RandomWorkload(300 + seed, shape);
    MinEdfPolicy indexed(kMapSlots, kReduceSlots);
    ReferenceMinEdf reference(kMapSlots, kReduceSlots);
    Rng rng(seed);
    for (core::JobId job = 0; job < shape.jobs; ++job) {
      if (rng.NextBounded(2) == 0) continue;
      SlotAllocation preset;
      preset.map_slots = 1 + static_cast<int>(rng.NextBounded(4));
      preset.reduce_slots = 1 + static_cast<int>(rng.NextBounded(3));
      indexed.PresetWantedSlots(job, preset);
      reference.PresetWantedSlots(job, preset);
    }
    RunLockstep("minedf seed " + std::to_string(seed), indexed, reference,
                workload, Cluster(seed));
  }
}

TEST(PolicyLockstep, FillerPreemption) {
  std::uint64_t decisions = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    WorkloadShape shape;
    shape.mean_interarrival_s = seed % 2 == 0 ? 3.0 : 20.0;
    shape.deadline_factor = seed % 4 == 0 ? 0.0 : 1.5;
    const trace::WorkloadTrace workload = RandomWorkload(400 + seed, shape);
    core::SimConfig config = Cluster(seed);
    config.min_map_percent_completed = 0.05 * static_cast<double>(seed % 3);
    config.allow_filler_preemption = true;
    PolicyPair pair = MakePair("maxedf-p");
    decisions += RunLockstep("maxedf-p seed " + std::to_string(seed),
                             *pair.indexed, *pair.reference, workload, config)
                     .decisions;
  }
  EXPECT_GT(decisions, 0u);
}

TEST(PolicyLockstep, FaultPlansWithCrashesRestoresAndKills) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    WorkloadShape shape;
    shape.mean_interarrival_s = seed % 2 == 0 ? 2.0 : 25.0;
    shape.deadline_factor = seed % 3 == 0 ? 0.0 : 1.5;
    const trace::WorkloadTrace workload = RandomWorkload(500 + seed, shape);
    fault::FaultGenOptions gen;
    gen.num_nodes = 4;
    gen.map_slots_per_node = kMapSlots / 4;
    gen.reduce_slots_per_node = kReduceSlots / 4;
    gen.horizon = 400.0;
    gen.max_crashes = 3;
    gen.max_kills = 24;
    gen.kill_jobs = shape.jobs;
    gen.kill_tasks = 20;
    const fault::FaultPlan plan = fault::GenerateFaultPlan(seed, gen);
    for (const char* name : {"fifo", "maxedf", "minedf", "fair", "capacity",
                             "maxedf-p"}) {
      core::SimConfig config = Cluster(seed);
      config.fault_plan = &plan;
      config.allow_filler_preemption = std::string(name) == "maxedf-p";
      PolicyPair pair = MakePair(name);
      RunLockstep(std::string(name) + " fault seed " + std::to_string(seed),
                  *pair.indexed, *pair.reference, workload, config);
    }
  }
}

TEST(PolicyLockstep, EqualArrivalsUnderAPermutingOracle) {
  // The kernel dispatches same-time events in insertion order, which for
  // arrivals is id order; a random oracle reorders them, so the queue
  // (arrival-dispatch order) holds equal arrivals out of id order and the
  // id tie breaks of Fair and EDF order are exercised.
  std::uint64_t out_of_id_order = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    WorkloadShape shape;
    shape.mean_interarrival_s = 4.0;
    shape.deadline_factor = seed % 2 == 0 ? 0.0 : 1.5;
    shape.quantum_s = 20.0;
    const trace::WorkloadTrace workload = RandomWorkload(600 + seed, shape);
    for (const char* name : kPolicies) {
      PolicyPair pair = MakePair(name);
      mc::RandomOracle oracle(seed);
      out_of_id_order +=
          RunLockstep(std::string(name) + " oracle seed " +
                          std::to_string(seed),
                      *pair.indexed, *pair.reference, workload, Cluster(seed),
                      &oracle)
              .out_of_id_order;
    }
  }
  EXPECT_GT(out_of_id_order, 0u) << "no queue held equal arrivals out of order";
}

}  // namespace
}  // namespace simmr::sched
