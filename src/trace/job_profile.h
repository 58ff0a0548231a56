// The paper's job template: a replayable per-job profile.
//
// Section III-A: "The job template summarizes the job's essential
// performance characteristics during its execution in the cluster", namely
// (N_M, N_R), MapDurations, FirstShuffleDurations (the *non-overlapping*
// portion of first-wave shuffles), TypicalShuffleDurations and
// ReduceDurations. Section II justifies replayability: these duration
// distributions are invariant (small KL divergence) across executions of
// the same application under different resource allocations.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "simcore/stats.h"

namespace simmr::trace {

struct JobProfile {
  std::string app_name;
  std::string dataset;

  int num_maps = 0;
  int num_reduces = 0;

  /// Durations (seconds) of the N_M map tasks, in original start order.
  std::vector<double> map_durations;

  /// Non-overlapping portions of first-wave shuffle phases (the part that
  /// extends past the end of the map stage), in original start order.
  std::vector<double> first_shuffle_durations;

  /// Full shuffle-phase durations of reduce tasks launched after the map
  /// stage completed, in original start order.
  std::vector<double> typical_shuffle_durations;

  /// Reduce-phase durations of the N_R reduce tasks, in original start
  /// order (first-wave tasks first).
  std::vector<double> reduce_durations;

  /// Structural consistency: positive task counts, non-empty map/reduce
  /// duration pools, shuffle sample counts not exceeding N_R, and all
  /// durations finite and nonnegative. Returns an explanation or empty
  /// string when valid.
  std::string Validate() const;

  // --- Phase summaries (the statistics the ARIA model consumes) ---
  Summary MapSummary() const { return Summarize(map_durations); }
  Summary FirstShuffleSummary() const {
    return Summarize(first_shuffle_durations);
  }
  Summary TypicalShuffleSummary() const {
    return Summarize(typical_shuffle_durations);
  }
  Summary ReduceSummary() const { return Summarize(reduce_durations); }

  /// Versioned text serialization (one profile per stream). Write throws
  /// std::invalid_argument on a name that would not read back exactly:
  /// one holding a tab, CR or LF, with whitespace at either end, or "-".
  void Write(std::ostream& out) const;
  static JobProfile Read(std::istream& in);

  bool operator==(const JobProfile& other) const = default;
};

}  // namespace simmr::trace
