// Test oracle: the event queue's original binary heap, kept verbatim
// (renamed, header-only, without its profiler counts) so the differential
// test can check that simmr::EventQueue's radix queue pops every entry in
// exactly the heap's (time, sequence) order.
//
// std::push_heap/pop_heap order the entries with an out-of-line comparator,
// and the tie-group calls scan, sort or rebuild the whole heap. It never
// ships in src/; change it only together with a deliberate change to the
// queue's order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simcore/time.h"

namespace simmr {

/// Min-heap over (time, insertion sequence) carrying an arbitrary payload.
template <typename Payload>
class ReferenceEventQueue {
 public:
  struct Entry {
    SimTime time;
    std::uint64_t sequence;
    Payload payload;
  };

  /// Schedules a payload at the given simulated time.
  void Push(SimTime time, Payload payload) {
    heap_.push_back(Entry{time, next_sequence_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
    ++total_pushed_;
  }

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  /// Earliest pending event time. Requires non-empty queue.
  SimTime PeekTime() const {
    if (heap_.empty()) throw std::logic_error("EventQueue::PeekTime on empty");
    return heap_.front().time;
  }

  /// Removes and returns the earliest event (FIFO among equal times).
  Entry Pop() {
    if (heap_.empty()) throw std::logic_error("EventQueue::Pop on empty");
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }

  /// Number of pending entries that share the earliest time (ties the
  /// kernel's tie-break choice ranges over). O(n) scan — used only on the
  /// oracle-controlled drain path, never in the default hot loop.
  std::size_t EarliestCount() const {
    if (heap_.empty()) return 0;
    const SimTime front = heap_.front().time;
    std::size_t count = 0;
    for (const Entry& e : heap_)
      if (e.time == front) ++count;
    return count;
  }

  /// Pointers to the earliest-time entries, ordered by insertion sequence
  /// (index 0 = the default Pop() choice). Valid until the next mutation.
  std::vector<const Entry*> EarliestEntries() const {
    std::vector<const Entry*> group;
    if (heap_.empty()) return group;
    const SimTime front = heap_.front().time;
    for (const Entry& e : heap_)
      if (e.time == front) group.push_back(&e);
    std::sort(group.begin(), group.end(),
              [](const Entry* a, const Entry* b) {
                return a->sequence < b->sequence;
              });
    return group;
  }

  /// Removes and returns the k-th earliest-time entry in insertion order —
  /// PopAmongEarliest(0) is exactly Pop(). Rebuilds the heap, so this is
  /// O(n); the oracle-controlled drain accepts that cost for small
  /// exploration scenarios. Throws std::logic_error when k is out of
  /// range.
  Entry PopAmongEarliest(std::size_t k) {
    if (k == 0) return Pop();
    const std::vector<const Entry*> group = EarliestEntries();
    if (k >= group.size())
      throw std::logic_error("EventQueue::PopAmongEarliest: index beyond tie");
    const std::size_t pos =
        static_cast<std::size_t>(group[k] - heap_.data());
    Entry e = std::move(heap_[pos]);
    heap_[pos] = std::move(heap_.back());
    heap_.pop_back();
    std::make_heap(heap_.begin(), heap_.end(), Later);
    return e;
  }

  /// Lifetime count of pushed events — the simulators report this as their
  /// processed-event count for the events/second throughput claim.
  std::uint64_t TotalPushed() const { return total_pushed_; }

  void Clear() {
    heap_.clear();
    // next_sequence_ is intentionally not reset: uniqueness must hold across
    // Clear() so interleaved reuse keeps deterministic ordering.
  }

 private:
  static bool Later(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.sequence > b.sequence;
  }

  std::vector<Entry> heap_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t total_pushed_ = 0;
};

}  // namespace simmr
