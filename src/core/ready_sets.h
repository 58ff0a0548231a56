// The engine-kept ready sets a scheduling decision reads.
//
// Section III-B's policy functions take the job queue. A policy that scans
// it pays for every queued job on every decision, and under a backlog that
// is hundreds of jobs that cannot take the slot. The engine instead keeps
// the sets a decision needs, updated only when a job's state changes
// (arrival, gate opening, a launch, a completion, a kill, a requeue):
//   - the jobs with a pending map;
//   - the jobs with an open reduce gate and a pending reduce;
// each in queue (arrival-dispatch) order and in EDF order, and
//   - the jobs that hold at least one slot, in queue order.
// Each order ranks the run's jobs once: queue rank at arrival dispatch, EDF
// rank by EdfOrderBefore when the run starts (its keys never change). A
// set is a bitset over one order's ranks with a summary bit per 64-bit
// word, so a membership change, the front, and the step to the next member
// each cost O(log_64 jobs).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/job_state.h"

namespace simmr::core {

/// EDF order: earliest positive deadline first; jobs without a deadline
/// come after all deadlined jobs, by arrival; final tie break on id. A
/// strict total order over a run's jobs.
bool EdfOrderBefore(const JobState& a, const JobState& b);

/// A set of ranks in [0, capacity): leaf bits plus summary levels, where a
/// summary bit is set exactly when the word below it is nonzero.
class RankSet {
 public:
  static constexpr std::uint32_t kEnd = UINT32_MAX;

  /// Empties the set and sizes it for ranks below `capacity`.
  void Reset(std::uint32_t capacity);

  void Insert(std::uint32_t rank);
  void Erase(std::uint32_t rank);

  /// The smallest member, or kEnd: one word per level, top down.
  std::uint32_t First() const {
    std::uint32_t pos = 0;
    for (int level = levels_ - 1; level >= 0; --level) {
      const std::uint64_t bits = Word(level, pos);
      if (bits == 0) return kEnd;  // only the top word can be empty
      pos = (pos << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
    }
    return pos;
  }

  /// The smallest member >= rank, or kEnd.
  std::uint32_t NextFrom(std::uint32_t rank) const;

 private:
  static constexpr int kMaxLevels = 6;  // 64^6 > 2^32 ranks

  /// Word `w` of summary level `level` (0 = the leaf bits).
  std::uint64_t& Word(int level, std::uint32_t w) {
    return words_[offset_[level] + w];
  }
  std::uint64_t Word(int level, std::uint32_t w) const {
    return words_[offset_[level] + w];
  }

  std::vector<std::uint64_t> words_;  // every level, leaf level first
  std::uint32_t offset_[kMaxLevels + 1] = {};  // level starts; last = size
  int levels_ = 0;
};

/// One ready set in one order, iterated front to back.
class JobSet {
 public:
  class Iterator {
   public:
    const JobState* operator*() const { return by_rank_[rank_]; }
    Iterator& operator++() {
      rank_ = ranks_->NextFrom(rank_ + 1);
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return rank_ == other.rank_;
    }

   private:
    friend class JobSet;
    Iterator(const RankSet* ranks, const JobState* const* by_rank,
             std::uint32_t rank)
        : ranks_(ranks), by_rank_(by_rank), rank_(rank) {}

    const RankSet* ranks_;
    const JobState* const* by_rank_;
    std::uint32_t rank_;
  };

  JobSet(const RankSet& ranks, const JobState* const* by_rank)
      : ranks_(&ranks), by_rank_(by_rank) {}

  Iterator begin() const { return {ranks_, by_rank_, ranks_->First()}; }
  Iterator end() const { return {ranks_, by_rank_, RankSet::kEnd}; }

  /// The first member, or nullptr when the set is empty.
  const JobState* front() const {
    const std::uint32_t rank = ranks_->First();
    return rank == RankSet::kEnd ? nullptr : by_rank_[rank];
  }

 private:
  const RankSet* ranks_;
  const JobState* const* by_rank_;
};

/// The queue and its ready sets for one engine run. The engine reports
/// every change to a job's state (Arrive, Launched, Finished, Update,
/// Depart); policies read the sets through core::JobQueue (scheduler.h).
class ReadySets {
 public:
  /// Empties every set and ranks `jobs` (indexed by id) in EDF order.
  void Reset(std::span<const std::unique_ptr<JobState>> jobs);

  /// Appends the job to the queue (its queue rank is the number of
  /// arrivals before it), then places it in the sets.
  void Arrive(const JobState& job);

  /// After a task launch: the job holds a slot, and it leaves a ready set
  /// once it has no pending task of that kind.
  void Launched(const JobState& job) {
    JobEntry& entry = EntryOf(job);
    std::uint8_t member = entry.member | kHolder;
    if (!job.HasPendingMap()) member &= ~kMapReady;
    if (!job.HasPendingReduce()) member &= ~kReduceReady;
    if (member != entry.member) Move(entry, member);
  }

  /// After a task completion: the job stops holding once none of its
  /// tasks runs.
  void Finished(const JobState& job) {
    if (job.RunningMaps() + job.RunningReduces() > 0) return;
    JobEntry& entry = EntryOf(job);
    Move(entry, entry.member & ~kHolder);
  }

  /// After any other change (gate opening, fault kill, filler preemption):
  /// re-derives the job's membership of every set from its state.
  void Update(const JobState& job) {
    JobEntry& entry = EntryOf(job);
    const std::uint8_t member =
        (job.HasPendingMap() ? kMapReady : 0) |
        (job.reduce_gate_open && job.HasPendingReduce() ? kReduceReady : 0) |
        (job.RunningMaps() + job.RunningReduces() > 0 ? kHolder : 0);
    if (member != entry.member) Move(entry, member);
  }

  /// Removes a finished job from the queue; it is already in no set.
  void Depart(const JobState& job);

  /// The number of queued jobs (arrived, not departed).
  std::size_t size() const { return queued_.size(); }

 private:
  friend class JobQueue;

  // Membership bits of one job.
  static constexpr std::uint8_t kMapReady = 1;
  static constexpr std::uint8_t kReduceReady = 2;
  static constexpr std::uint8_t kHolder = 4;

  struct JobEntry {
    std::uint32_t queue_rank = RankSet::kEnd;
    std::uint32_t edf_rank = 0;
    std::uint8_t member = 0;  // k* bits of the sets the job is in
  };

  std::vector<const JobState*> queued_;
  std::vector<const JobState*> by_queue_rank_;  // arrivals so far
  std::vector<const JobState*> by_edf_rank_;
  std::vector<JobEntry> entries_;  // by job id

  JobEntry& EntryOf(const JobState& job) {
    return entries_[static_cast<std::size_t>(job.id())];
  }

  /// Inserts the job into, or erases it from, the sets whose bits differ.
  void Move(JobEntry& entry, std::uint8_t member);
  RankSet map_ready_, map_ready_edf_;
  RankSet reduce_ready_, reduce_ready_edf_;
  RankSet holders_;
};

}  // namespace simmr::core
