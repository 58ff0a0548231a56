// Behaviour-drift comparison of two simmr.sweep.v1 documents.
//
// bench/pair.py gates wall-clock performance; this gates *results*. A sweep
// document's cell aggregates are pure sim-time quantities — deterministic
// for a given trace database, grid and seed — so two sweeps of the same
// grid from the same inputs must agree cell-for-cell. CI runs the sweep
// twice (different thread counts) and diffs the documents: any drift
// means scheduling behaviour changed, either a real regression or an
// intended change that must update the baseline.
//
// The default threshold is exact (0): sim-time results have no noise to
// forgive. A positive --threshold turns the gate into a tolerance
// comparison for cross-revision use, where small intended drifts are
// acceptable but large ones must be flagged.
#pragma once

#include <string>
#include <vector>

namespace simmr::analysis {

/// One grid cell's aggregates, keyed by its coordinates.
struct SweepCell {
  std::string policy;
  std::string slots;          // "MxR"
  double arrival_scale = 1.0;
  int replicates = 0;
  double mean_makespan_s = 0.0;
  double mean_completion_s = 0.0;
  double mean_deadline_utility = 0.0;
  double mean_missed_deadlines = 0.0;

  std::string Key() const;
};

struct SweepDoc {
  std::string path;
  std::vector<SweepCell> cells;
};

/// Parses a simmr.sweep.v1 file. Throws std::runtime_error on missing
/// files, malformed JSON, a wrong format_version, or an empty grid.
SweepDoc LoadSweepDoc(const std::string& path);

struct SweepDiffOptions {
  /// Maximum relative per-metric delta that still counts as agreement.
  /// 0 = bit-exact (the determinism-gate default).
  double threshold = 0.0;
  bool json = false;
};

/// One metric that drifted beyond the threshold.
struct SweepDrift {
  std::string cell;    // the cell key
  std::string metric;  // e.g. "mean_makespan_s"
  double baseline = 0.0;
  double candidate = 0.0;
  double rel_delta = 0.0;
};

struct SweepDiffResult {
  std::size_t cells_compared = 0;
  std::vector<SweepDrift> drifts;
  /// Cell keys present in exactly one document — a structural error, not
  /// a drift (the grids must match for the comparison to mean anything).
  std::vector<std::string> missing_in_candidate;
  std::vector<std::string> missing_in_baseline;

  bool structural_error() const {
    return !missing_in_candidate.empty() || !missing_in_baseline.empty();
  }
  bool clean() const { return drifts.empty() && !structural_error(); }
};

SweepDiffResult DiffSweepDocs(const SweepDoc& baseline,
                              const SweepDoc& candidate,
                              const SweepDiffOptions& options);

/// Text report, or one simmr.sweepdiff.v1 JSON document with --json.
std::string RenderSweepDiff(const SweepDiffResult& result,
                            const SweepDiffOptions& options);

/// 0 clean, 4 drift, 1 structural error.
int SweepDiffExitCode(const SweepDiffResult& result);

}  // namespace simmr::analysis
