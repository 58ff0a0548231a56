#include "core/ready_sets.h"

#include <algorithm>

namespace simmr::core {

bool EdfOrderBefore(const JobState& a, const JobState& b) {
  const bool a_has = a.deadline() > 0.0;
  const bool b_has = b.deadline() > 0.0;
  if (a_has != b_has) return a_has;
  if (a_has && a.deadline() != b.deadline())
    return a.deadline() < b.deadline();
  if (a.arrival() != b.arrival()) return a.arrival() < b.arrival();
  return a.id() < b.id();
}

void RankSet::Reset(std::uint32_t capacity) {
  levels_ = 0;
  std::uint32_t size = 0;
  std::uint32_t bits = std::max<std::uint32_t>(capacity, 1);
  do {
    const std::uint32_t words = (bits + 63) / 64;
    offset_[levels_++] = size;
    size += words;
    bits = words;
  } while (bits > 1);
  offset_[levels_] = size;
  words_.assign(size, 0);
}

void RankSet::Insert(std::uint32_t rank) {
  for (int level = 0; level < levels_; ++level) {
    std::uint64_t& word = Word(level, rank >> 6);
    const bool was_empty = word == 0;
    word |= std::uint64_t{1} << (rank & 63);
    if (!was_empty) return;
    rank >>= 6;
  }
}

void RankSet::Erase(std::uint32_t rank) {
  for (int level = 0; level < levels_; ++level) {
    std::uint64_t& word = Word(level, rank >> 6);
    word &= ~(std::uint64_t{1} << (rank & 63));
    if (word != 0) return;
    rank >>= 6;
  }
}

std::uint32_t RankSet::NextFrom(std::uint32_t rank) const {
  // Climb until a word holds a set bit at or after the position, ...
  std::uint32_t pos = rank;
  int level = 0;
  for (;; ++level) {
    if (level == levels_) return kEnd;
    const std::uint32_t w = pos >> 6;
    if (w >= offset_[level + 1] - offset_[level]) return kEnd;
    const std::uint64_t bits =
        Word(level, w) & (~std::uint64_t{0} << (pos & 63));
    if (bits != 0) {
      pos = (w << 6) | static_cast<std::uint32_t>(std::countr_zero(bits));
      break;
    }
    pos = w + 1;  // the next word, as a bit position one level up
  }
  // ... then descend along the lowest set bits to the leaf.
  while (level-- > 0)
    pos = (pos << 6) |
          static_cast<std::uint32_t>(std::countr_zero(Word(level, pos)));
  return pos;
}

void ReadySets::Reset(std::span<const std::unique_ptr<JobState>> jobs) {
  const auto n = static_cast<std::uint32_t>(jobs.size());
  queued_.clear();
  by_queue_rank_.clear();
  by_queue_rank_.reserve(n);
  entries_.assign(n, JobEntry{});

  by_edf_rank_.resize(n);
  for (std::uint32_t id = 0; id < n; ++id) by_edf_rank_[id] = jobs[id].get();
  std::sort(by_edf_rank_.begin(), by_edf_rank_.end(),
            [](const JobState* a, const JobState* b) {
              return EdfOrderBefore(*a, *b);
            });
  for (std::uint32_t rank = 0; rank < n; ++rank)
    entries_[static_cast<std::size_t>(by_edf_rank_[rank]->id())].edf_rank =
        rank;

  for (RankSet* set : {&map_ready_, &map_ready_edf_, &reduce_ready_,
                       &reduce_ready_edf_, &holders_})
    set->Reset(n);
}

void ReadySets::Arrive(const JobState& job) {
  queued_.push_back(&job);
  entries_[static_cast<std::size_t>(job.id())].queue_rank =
      static_cast<std::uint32_t>(by_queue_rank_.size());
  by_queue_rank_.push_back(&job);
  Update(job);
}

void ReadySets::Move(JobEntry& entry, std::uint8_t member) {
  const std::uint8_t changed = member ^ entry.member;
  if (changed == 0) return;
  entry.member = member;
  const auto place = [&](RankSet& set, std::uint32_t rank, std::uint8_t bit) {
    if (!(changed & bit)) return;
    if (member & bit)
      set.Insert(rank);
    else
      set.Erase(rank);
  };
  place(map_ready_, entry.queue_rank, kMapReady);
  place(map_ready_edf_, entry.edf_rank, kMapReady);
  place(reduce_ready_, entry.queue_rank, kReduceReady);
  place(reduce_ready_edf_, entry.edf_rank, kReduceReady);
  place(holders_, entry.queue_rank, kHolder);
}

void ReadySets::Depart(const JobState& job) { std::erase(queued_, &job); }

}  // namespace simmr::core
