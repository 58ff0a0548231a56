#include "core/simmr.h"

#include <stdexcept>

#include "prof/profiler.h"

namespace simmr::core {
namespace {

/// Minimal FIFO used internally for solo-completion measurement (the sched
/// library's FIFO lives above core in the dependency order).
class InternalFifo final : public SchedulerPolicy {
 public:
  const char* Name() const override { return "internal-fifo"; }

  JobId ChooseNextMapTask(JobQueue job_queue) override {
    for (const JobState* job : job_queue) {
      if (job->HasPendingMap()) return job->id();
    }
    return kInvalidJob;
  }

  JobId ChooseNextReduceTask(JobQueue job_queue) override {
    for (const JobState* job : job_queue) {
      if (job->HasPendingReduce() && job->reduce_gate_open) return job->id();
    }
    return kInvalidJob;
  }
};

}  // namespace

SimResult Replay(const trace::WorkloadTrace& workload, SchedulerPolicy& policy,
                 const SimConfig& config) {
  SimulatorEngine engine(config, policy);
  return engine.Run(workload);
}

double MeasureSoloCompletion(const trace::JobProfile& profile,
                             const SimConfig& config) {
  InternalFifo fifo;
  // Solo measurement is a derived quantity, not part of the observed run:
  // suppress any installed observer so sinks see only the real replay.
  SimConfig solo_config = config;
  solo_config.observer = nullptr;
  trace::WorkloadTrace solo(1);
  solo[0].profile = profile;
  const SimResult result = Replay(solo, fifo, solo_config);
  if (result.jobs.size() != 1)
    throw std::logic_error("MeasureSoloCompletion: missing job result");
  prof::Count(prof::Counter::kSoloReplays);
  return result.jobs[0].CompletionTime();
}

std::vector<double> MeasureSoloCompletions(
    const std::vector<trace::JobProfile>& profiles, const SimConfig& config) {
  std::vector<double> completions;
  completions.reserve(profiles.size());
  for (const auto& profile : profiles)
    completions.push_back(MeasureSoloCompletion(profile, config));
  return completions;
}

}  // namespace simmr::core
