// Shared machinery of the end-to-end benchmark binary: run options, the
// closed-loop op runner, result digests, the generated trace database and
// its timed set-up, and the scheduler-policy probe of the traced replays.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "backend/session.h"

namespace simmr::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;  // length of the measured phase
  bool trace = false;
  std::string work_dir;   // generated inputs and written outputs
  int max_rounds = 0;     // 0 = start rounds until `seconds` have elapsed
  int setups = 10;        // set-ups timed for setup_s
  unsigned threads = 1;   // sweep_paced worker threads
};

/// Everything one run measured, handed from a workload to the reporter.
struct RunOutcome {
  std::vector<double> setup_s;
  std::vector<double> op_ms;         // every measured op
  std::vector<double> traced_op_ms;    // the ops run with spans...
  std::vector<double> untraced_op_ms;  // ...and the others
  std::uint64_t events = 0;          // simulated events of the measured phase
  /// Simulated events per host second of each round; events_per_s is
  /// their median, so a stretch of host contention moves it less.
  std::vector<double> round_events_per_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Op digests of round 0, in op order: the run's result digest.
  std::vector<std::uint64_t> first_round_digests;
  /// Per-layer values only the workload can compute (counts, bytes,
  /// probe statistics); span-derived ones are added by the reporter.
  std::map<std::string, double> layer;
  /// validate only: SimMR's Figure 5 average |error|, printed as text.
  std::optional<double> accuracy_err_pct;
};

/// FNV-1a over the exact bits of what an op produced.
class Digest {
 public:
  void Add(std::uint64_t v);
  void Add(double v);
  void Add(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of a replay's per-job outcomes, event count and makespan.
std::uint64_t DigestOf(const backend::RunResult& result);

/// Empty when `result` holds `jobs` jobs that all finished at a finite
/// time no earlier than their submission; else what is wrong.
std::string CheckAllFinished(const backend::RunResult& result,
                             std::size_t jobs);

/// What one op body reports. A non-empty `failure` fails the op.
struct OpResult {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  std::string failure;
};

struct OpSample {
  double ms = 0.0;
  bool traced = false;
  OpResult result;
};

/// Times `body` as op `op`, inside a root span `name` when `traced`. An
/// exception counts as a failure. Safe to call from several threads.
OpSample RunOp(const char* name, std::int64_t op, bool traced,
               const std::function<OpResult()>& body);

/// Adds a finished op to `out` and reports a failure on stderr.
void Record(RunOutcome& out, const OpSample& sample, bool first_round);

/// The closed loop: runs round(0), round(1), ... one after the other until
/// `opt.seconds` have elapsed or `opt.max_rounds` ran, whichever is first,
/// recording each round's event rate.
void RunRounds(const RunOptions& opt, RunOutcome& out,
               const std::function<void(int round)>& round);

/// A traced run records spans on even rounds only; the odd rounds run the
/// same ops untraced, so the run also measures the tracing overhead.
inline bool TracedRound(const RunOptions& opt, int round) {
  return opt.trace && round % 2 == 0;
}

/// Which round's inputs round `round` replays: a traced run replays each
/// input twice, traced and then untraced, so the overhead compares like
/// with like.
inline std::uint64_t InputRound(const RunOptions& opt, int round) {
  return static_cast<std::uint64_t>(opt.trace ? round / 2 : round);
}

/// Seed of item `index` of stream `stream`, derived from the run seed.
std::uint64_t SubSeed(std::uint64_t seed, std::string_view stream,
                      std::uint64_t index);

/// Size of the generated Facebook-model trace database (the paper's
/// 1148-job history).
inline constexpr int kDatabaseJobs = 1148;

/// Generates the database from the run seed and saves it under `dir`.
/// Returns its size on disk in bytes.
std::uint64_t WriteDatabase(std::uint64_t seed, const std::string& dir);

/// Times opt.setups set-ups from the on-disk database to a ready session
/// (TraceDatabase::Load plus MeasureSoloCompletions) into out.setup_s and
/// returns the last session.
backend::SimSession TimedSetups(const RunOptions& opt, RunOutcome& out,
                                const std::string& db_dir);

/// What the policy probe saw over the replays of one policy.
struct PolicyStats {
  std::uint64_t ops = 0;
  /// ChooseNextMapTask / ChooseNextReduceTask, scaled up from a timed
  /// 1-in-16 sample of the calls, net of the clock's own cost.
  double decide_s = 0.0;
  double lifecycle_s = 0.0;  // OnJobArrival / OnJobCompletion
  std::uint64_t decisions = 0;
  std::uint64_t useful = 0;  // decisions that returned a job
  std::uint64_t queue_len_sum = 0;
  std::uint64_t queue_len_max = 0;

  void Merge(const PolicyStats& other);
};

/// SimSession::Replay unrolled into its layers: the same workload
/// assembly, engine configuration and result adaptation, with a span
/// around each and the policy from backend::MakePolicy wrapped in a
/// forwarding probe whose statistics are added to `stats`.
backend::RunResult ProbedReplay(const backend::SimSession& session,
                                const backend::ReplaySpec& spec,
                                PolicyStats& stats);

/// Sets the sched.* per-layer metrics from per-policy probe statistics.
void SetSchedLayers(RunOutcome& out,
                    const std::map<std::string, PolicyStats>& stats);

RunOutcome RunWhatifBacklog(const RunOptions& opt);
RunOutcome RunSweepPaced(const RunOptions& opt);
RunOutcome RunRecordPaced(const RunOptions& opt);
RunOutcome RunValidate(const RunOptions& opt);

}  // namespace simmr::e2e
