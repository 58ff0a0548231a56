#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <utility>

#include "core/simmr.h"
#include "simcore/rng.h"
#include "spans.h"
#include "trace/synthetic_tracegen.h"
#include "trace/trace_database.h"

namespace simmr::e2e {

void Digest::Add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::Add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  Add(bits);
}

void Digest::Add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  Add(static_cast<std::uint64_t>(s.size()));
}

std::uint64_t DigestOf(const backend::RunResult& result) {
  Digest d;
  d.Add(result.simulator);
  for (const backend::JobOutcome& job : result.jobs) {
    d.Add(static_cast<std::uint64_t>(job.job));
    d.Add(job.name);
    d.Add(job.submit);
    d.Add(job.first_launch);
    d.Add(job.map_stage_end);
    d.Add(job.finish);
    d.Add(job.deadline);
  }
  d.Add(static_cast<std::uint64_t>(result.tasks.size()));
  d.Add(result.events_processed);
  d.Add(result.makespan);
  return d.value();
}

std::string CheckAllFinished(const backend::RunResult& result,
                             std::size_t jobs) {
  if (result.jobs.size() != jobs)
    return result.simulator + ": " + std::to_string(result.jobs.size()) +
           " jobs, expected " + std::to_string(jobs);
  for (const backend::JobOutcome& job : result.jobs) {
    if (!std::isfinite(job.finish) || job.finish < job.submit)
      return result.simulator + ": job " + std::to_string(job.job) +
             " did not complete";
  }
  return "";
}

OpSample RunOp(const char* name, std::int64_t op, bool traced,
               const std::function<OpResult()>& body) {
  OpSample sample;
  sample.traced = traced;
  const Clock::time_point start = Clock::now();
  {
    const Span span(name, op, traced);
    try {
      sample.result = body();
    } catch (const std::exception& e) {
      sample.result.failure = std::string("exception: ") + e.what();
    }
  }
  sample.ms = 1e3 * SecondsSince(start);
  return sample;
}

void Record(RunOutcome& out, const OpSample& sample, bool first_round) {
  ++out.attempted;
  out.op_ms.push_back(sample.ms);
  (sample.traced ? out.traced_op_ms : out.untraced_op_ms)
      .push_back(sample.ms);
  out.events += sample.result.events;
  if (first_round) out.first_round_digests.push_back(sample.result.digest);
  if (!sample.result.failure.empty()) {
    ++out.failed;
    std::fprintf(stderr, "op failed: %s\n", sample.result.failure.c_str());
  }
}

void RunRounds(const RunOptions& opt, RunOutcome& out,
               const std::function<void(int round)>& round) {
  const Clock::time_point start = Clock::now();
  for (int r = 0;; ++r) {
    if (opt.max_rounds > 0 && r >= opt.max_rounds) break;
    if (r > 0 && SecondsSince(start) >= opt.seconds) break;
    const Clock::time_point round_start = Clock::now();
    const std::uint64_t events_before = out.events;
    round(r);
    out.round_events_per_s.push_back(
        static_cast<double>(out.events - events_before) /
        SecondsSince(round_start));
  }
}

std::uint64_t SubSeed(std::uint64_t seed, std::string_view stream,
                      std::uint64_t index) {
  return Rng(seed).Split(stream, index)();
}

std::uint64_t WriteDatabase(std::uint64_t seed, const std::string& dir) {
  // The Facebook model with its job-size mix held at the bucket
  // probabilities: each job comes from SynthesizeFacebookJob, and one
  // whose size bucket already holds its share is drawn again. The rare
  // 801-2400-map jobs carry most of the work, so leaving their count
  // (about 46 of 1148) to chance would move every workload's cost by
  // ~15% from seed to seed.
  const auto& buckets = trace::FacebookJobSizeBuckets();
  std::vector<int> quota(buckets.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double exact = buckets[b].probability * kDatabaseJobs;
    quota[b] = static_cast<int>(exact);
    assigned += quota[b];
    remainders.emplace_back(exact - quota[b], b);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t k = 0; assigned < kDatabaseJobs; ++k, ++assigned)
    ++quota[remainders[k % remainders.size()].second];

  Rng rng(SubSeed(seed, "database", 0));
  const trace::FacebookWorkloadModel model;
  trace::TraceDatabase db;
  while (db.size() < static_cast<std::size_t>(kDatabaseJobs)) {
    trace::JobProfile profile = trace::SynthesizeFacebookJob(model, rng);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (profile.num_maps < buckets[b].maps_lo ||
          profile.num_maps > buckets[b].maps_hi)
        continue;
      if (quota[b] > 0) {
        --quota[b];
        db.Put(std::move(profile));
      }
      break;
    }
  }
  db.Save(dir);
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.is_regular_file()) bytes += entry.file_size();
  return bytes;
}

backend::SimSession TimedSetups(const RunOptions& opt, RunOutcome& out,
                                const std::string& db_dir) {
  std::unique_ptr<backend::SimSession> session;
  for (int k = 0; k < opt.setups; ++k) {
    const Clock::time_point start = Clock::now();
    if (opt.trace) {
      // The same two calls FromDatabase makes, split so each gets a span.
      const Span root("bench.setup", -1 - k, true);
      auto pool = std::make_shared<std::vector<trace::JobProfile>>();
      {
        const Span span("trace.db_load");
        const auto db = trace::TraceDatabase::Load(db_dir);
        for (const auto id : db.AllIds()) pool->push_back(db.Get(id));
      }
      std::shared_ptr<std::vector<double>> solos;
      {
        const Span span("core.solo");
        solos = std::make_shared<std::vector<double>>(
            core::MeasureSoloCompletions(*pool, core::SimConfig{}));
      }
      session = std::make_unique<backend::SimSession>(std::move(pool),
                                                      std::move(solos));
    } else {
      session = std::make_unique<backend::SimSession>(
          backend::SimSession::FromDatabase(db_dir, core::SimConfig{}));
    }
    out.setup_s.push_back(SecondsSince(start));
  }
  return std::move(*session);
}

void PolicyStats::Merge(const PolicyStats& other) {
  ops += other.ops;
  decide_s += other.decide_s;
  lifecycle_s += other.lifecycle_s;
  decisions += other.decisions;
  useful += other.useful;
  queue_len_sum += other.queue_len_sum;
  queue_len_max = std::max(queue_len_max, other.queue_len_max);
}

namespace {

/// What reading the clock twice adds to a timed interval: the median of
/// empty intervals timed the way the probe times a call.
double ClockOverheadS() {
  static const double overhead = [] {
    std::vector<double> samples(1001);
    for (double& s : samples) {
      const Clock::time_point start = Clock::now();
      s = SecondsSince(start);
    }
    std::nth_element(samples.begin(), samples.begin() + 500, samples.end());
    return samples[500];
  }();
  return overhead;
}

/// Forwards every call to the wrapped policy, counts the decision calls
/// and times them and the two lifecycle callbacks. A paced replay makes
/// decisions that take a few nanoseconds, less than reading the clock, so
/// only every kSamplePeriod-th decision is timed, the clock's own cost is
/// taken off, and decide_s is scaled up from that sample.
class PolicyProbe final : public core::SchedulerPolicy {
 public:
  explicit PolicyProbe(std::unique_ptr<core::SchedulerPolicy> inner)
      : inner_(std::move(inner)), clock_overhead_s_(ClockOverheadS()) {}

  PolicyStats stats() const {
    PolicyStats s = stats_;
    if (sampled_ > 0) {
      const double n = static_cast<double>(sampled_);
      s.decide_s = std::max(0.0, sampled_s_ - n * clock_overhead_s_) *
                   static_cast<double>(s.decisions) / n;
    }
    return s;
  }

  const char* Name() const override { return inner_->Name(); }

  void OnJobArrival(const core::JobState& job, SimTime now) override {
    const Clock::time_point start = Clock::now();
    inner_->OnJobArrival(job, now);
    stats_.lifecycle_s += SecondsSince(start);
  }

  void OnJobCompletion(const core::JobState& job, SimTime now) override {
    const Clock::time_point start = Clock::now();
    inner_->OnJobCompletion(job, now);
    stats_.lifecycle_s += SecondsSince(start);
  }

  core::JobId ChooseNextMapTask(core::JobQueue queue) override {
    return Decide(queue, [&] { return inner_->ChooseNextMapTask(queue); });
  }

  core::JobId ChooseNextReduceTask(core::JobQueue queue) override {
    return Decide(queue, [&] { return inner_->ChooseNextReduceTask(queue); });
  }

  core::JobId ChooseReducePreemptionVictim(
      core::JobQueue queue, const core::JobState& claimant) override {
    return inner_->ChooseReducePreemptionVictim(queue, claimant);
  }

 private:
  static constexpr std::uint64_t kSamplePeriod = 16;

  template <typename Call>
  core::JobId Decide(core::JobQueue queue, const Call& call) {
    core::JobId chosen = core::kInvalidJob;
    if (stats_.decisions % kSamplePeriod == 0) {
      const Clock::time_point start = Clock::now();
      chosen = call();
      sampled_s_ += SecondsSince(start);
      ++sampled_;
    } else {
      chosen = call();
    }
    ++stats_.decisions;
    if (chosen != core::kInvalidJob) ++stats_.useful;
    stats_.queue_len_sum += queue.size();
    stats_.queue_len_max = std::max<std::uint64_t>(stats_.queue_len_max,
                                                   queue.size());
    return chosen;
  }

  std::unique_ptr<core::SchedulerPolicy> inner_;
  const double clock_overhead_s_;
  PolicyStats stats_;  // decide_s stays 0 here; stats() derives it
  double sampled_s_ = 0.0;
  std::uint64_t sampled_ = 0;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

backend::RunResult ProbedReplay(const backend::SimSession& session,
                                const backend::ReplaySpec& spec,
                                PolicyStats& stats) {
  trace::WorkloadParams params;
  params.num_jobs = spec.num_jobs;
  params.mean_interarrival_s = spec.mean_interarrival_s * spec.arrival_scale;
  params.deadline_factor = spec.deadline_factor;
  Rng rng(spec.seed);
  trace::WorkloadTrace workload;
  {
    const Span span("trace.make_workload");
    workload = trace::MakeWorkload(session.pool(), session.solo_completions(),
                                   params, rng);
  }

  core::SimConfig config;
  config.map_slots = spec.map_slots;
  config.reduce_slots = spec.reduce_slots;
  config.min_map_percent_completed = spec.slowstart;
  config.record_tasks = spec.record_tasks;
  config.observer = spec.observer;
  config.fault_plan = spec.fault_plan;

  PolicyProbe probe(
      backend::MakePolicy(spec.policy, spec.map_slots, spec.reduce_slots));
  core::SimResult sim;
  {
    Span span("core.engine");
    sim = core::SimulatorEngine(config, probe).Run(workload);
    span.Arg("sched_s", probe.stats().decide_s + probe.stats().lifecycle_s);
  }
  stats.Merge(probe.stats());
  ++stats.ops;
  const Span span("backend.adapt");
  return backend::FromSimResult(std::move(sim));
}

void SetSchedLayers(RunOutcome& out,
                    const std::map<std::string, PolicyStats>& stats) {
  PolicyStats all;
  for (const auto& [policy, s] : stats) {
    all.Merge(s);
    const double ops = static_cast<double>(s.ops);
    const double decisions = static_cast<double>(s.decisions);
    const std::string p = "sched." + policy + ".";
    out.layer[p + "decide_s"] = Ratio(s.decide_s, ops);
    out.layer[p + "decisions"] = Ratio(decisions, ops);
    out.layer[p + "ns_per_decision"] = Ratio(1e9 * s.decide_s, decisions);
    out.layer[p + "useful_ratio"] = Ratio(static_cast<double>(s.useful),
                                          decisions);
    out.layer[p + "lifecycle_s"] = Ratio(s.lifecycle_s, ops);
  }
  out.layer["sched.queue_len_mean"] =
      Ratio(static_cast<double>(all.queue_len_sum),
            static_cast<double>(all.decisions));
  out.layer["sched.queue_len_max"] = static_cast<double>(all.queue_len_max);
}

}  // namespace simmr::e2e
