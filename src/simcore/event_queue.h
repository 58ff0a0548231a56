// Stable discrete-event priority queue.
//
// All three simulators (SimMR engine, testbed emulator, Mumak baseline) pop
// events in nondecreasing time order. Ties are broken by insertion order so
// every run is deterministic regardless of queue internals — a requirement
// for the replay-determinism guarantees the tests assert.
//
// The queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan,
// J. ACM 1990) keyed on the order-preserving bits of the event time. Every
// pending key is at least the base key, which a refill sets to the least
// pending key and a push of an earlier time lowers. Bucket 0 holds the
// entries whose key equals the base, which is exactly the tie group at the
// earliest time; bucket b > 0 holds those whose key first differs from the
// base at bit b - 1. Push appends to one bucket in O(1). When bucket 0 runs
// dry, Pop refills it from the lowest non-empty bucket, whose entries all
// move to lower buckets, so an entry moves at most 64 times in its life
// (about 3 times in the simulators' runs). Entries with one key always
// share a bucket; pushes append with ever-growing sequence numbers, a
// refill walks its bucket in order and a rebase splices whole buckets, so
// entries that share a key stay in push order. The pop order is therefore
// exactly the (time, sequence) order of a binary heap given the same
// calls.
//
// Each bucket is a linked list threaded through one node vector, and
// popped nodes are reused first, so the entries live in one allocation
// that grows only to the most entries ever pending at once.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "prof/profiler.h"
#include "simcore/time.h"

namespace simmr {

/// Min-priority queue over (time, insertion sequence) carrying an arbitrary
/// payload.
template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    SimTime time;
    std::uint64_t sequence;
    Payload payload;
  };

  /// Schedules a payload at the given simulated time. A time earlier than
  /// the base re-buckets the pending entries; the simulators never schedule
  /// before their clock, so they never take that path. Throws
  /// std::logic_error on a NaN time, which has no place in the order.
  void Push(SimTime time, Payload payload) {
    if (std::isnan(time)) throw std::logic_error("EventQueue::Push: NaN time");
    const std::uint64_t key = KeyOf(time);
    if (key < base_) Rebase(key);
    std::uint32_t at = free_;
    if (at != kNil) {
      free_ = nodes_[at].next;
      nodes_[at].entry = Entry{time, next_sequence_++, std::move(payload)};
    } else {
      at = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{Entry{time, next_sequence_++, std::move(payload)}});
    }
    Append(BucketOf(key), key, at);
    ++size_;
    ++total_pushed_;
    prof::Count(prof::Counter::kHeapPushes);
    prof::RaiseHighWater(prof::HighWater::kQueueDepth, size_);
  }

  bool Empty() const { return size_ == 0; }
  std::size_t Size() const { return size_; }

  /// Earliest pending event time. Requires non-empty queue.
  SimTime PeekTime() {
    if (size_ == 0) throw std::logic_error("EventQueue::PeekTime on empty");
    return nodes_[Ties().head].entry.time;
  }

  /// Removes and returns the earliest event (FIFO among equal times).
  Entry Pop() {
    if (size_ == 0) throw std::logic_error("EventQueue::Pop on empty");
    Bucket& ties = Ties();
    const std::uint32_t at = ties.head;
    ties.head = nodes_[at].next;
    if (ties.head == kNil) ties = Bucket{};
    return Release(at);
  }

  /// Number of pending entries that share the earliest time (ties the
  /// kernel's tie-break choice ranges over).
  std::size_t EarliestCount() {
    if (size_ == 0) return 0;
    std::size_t count = 0;
    for (std::uint32_t at = Ties().head; at != kNil; at = nodes_[at].next)
      ++count;
    return count;
  }

  /// Pointers to the earliest-time entries, ordered by insertion sequence
  /// (index 0 = the default Pop() choice). Valid until the next mutation.
  std::vector<const Entry*> EarliestEntries() {
    std::vector<const Entry*> group;
    if (size_ == 0) return group;
    for (std::uint32_t at = Ties().head; at != kNil; at = nodes_[at].next)
      group.push_back(&nodes_[at].entry);
    return group;
  }

  /// Removes and returns the k-th earliest-time entry in insertion order —
  /// PopAmongEarliest(0) is exactly Pop(). O(size of the tie). Throws
  /// std::logic_error when k is out of range.
  Entry PopAmongEarliest(std::size_t k) {
    if (k == 0) return Pop();
    if (k >= EarliestCount())
      throw std::logic_error("EventQueue::PopAmongEarliest: index beyond tie");
    Bucket& ties = buckets_[0];
    std::uint32_t before = ties.head;
    for (std::size_t i = 1; i < k; ++i) before = nodes_[before].next;
    const std::uint32_t at = nodes_[before].next;
    nodes_[before].next = nodes_[at].next;
    if (ties.tail == at) ties.tail = before;
    return Release(at);
  }

  /// Lifetime count of pushed events — the simulators report this as their
  /// processed-event count for the events/second throughput claim.
  std::uint64_t TotalPushed() const { return total_pushed_; }

  void Clear() {
    nodes_.clear();
    free_ = kNil;
    buckets_.fill(Bucket{});
    occupied_ = 0;
    size_ = 0;
    // next_sequence_ is intentionally not reset: uniqueness must hold across
    // Clear() so interleaved reuse keeps deterministic ordering.
  }

 private:
  static constexpr int kBuckets = 65;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// An entry and the next node of its bucket (or of the free list).
  struct Node {
    Entry entry;
    std::uint32_t next = kNil;
  };

  /// A singly linked list of nodes in push order (kNil when empty) and the
  /// least key among them.
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint64_t least = ~std::uint64_t{0};
  };

  /// Order-preserving unsigned image of a non-NaN time: a < b exactly when
  /// KeyOf(a) < KeyOf(b). -0.0 and +0.0 compare equal, so they share a
  /// key; the entry keeps its own double.
  static std::uint64_t KeyOf(SimTime time) {
    const auto bits = std::bit_cast<std::uint64_t>(time + 0.0);  // -0 -> +0
    const auto negative =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
    return bits ^ (negative | (std::uint64_t{1} << 63));
  }

  /// Bucket of a key at least base_: 0 when equal, else one more than the
  /// highest bit where the two differ.
  int BucketOf(std::uint64_t key) const {
    return std::bit_width(key ^ base_);
  }

  void Append(int b, std::uint64_t key, std::uint32_t at) {
    Bucket& bucket = buckets_[b];
    bucket.least = std::min(bucket.least, key);
    nodes_[at].next = kNil;
    if (bucket.tail == kNil) {
      bucket.head = at;
    } else {
      nodes_[bucket.tail].next = at;
    }
    bucket.tail = at;
    if (b != 0) occupied_ |= std::uint64_t{1} << (b - 1);
  }

  /// Moves an unlinked node's entry out and frees the node.
  Entry Release(std::uint32_t at) {
    Node& node = nodes_[at];
    Entry e = std::move(node.entry);
    node.next = free_;
    free_ = at;
    --size_;
    prof::Count(prof::Counter::kHeapPops);
    return e;
  }

  /// Bucket 0, refilled first when it is empty. Requires size_ > 0.
  Bucket& Ties() {
    if (buckets_[0].head == kNil) Refill();
    return buckets_[0];
  }

  /// Moves the lowest non-empty bucket down, its least key becoming the
  /// base. Its entries agree with that key from bit b - 1 up, so each lands
  /// in a lower bucket.
  void Refill() {
    const int from = std::countr_zero(occupied_) + 1;
    occupied_ &= occupied_ - 1;
    const Bucket source = buckets_[from];
    buckets_[from] = Bucket{};
    base_ = source.least;
    std::uint64_t moved = 0;
    for (std::uint32_t at = source.head; at != kNil;) {
      const std::uint32_t next = nodes_[at].next;
      const std::uint64_t key = KeyOf(nodes_[at].entry.time);
      Append(BucketOf(key), key, at);
      at = next;
      ++moved;
    }
    prof::Count(prof::Counter::kQueueEntryMoves, moved);
  }

  /// Lowers the base to `key` < base_. Let h be the highest bit where the
  /// two differ (set in base_). A pending key that first differs from base_
  /// above h keeps its bucket; every other pending key agrees with base_
  /// from h up, so it first differs from `key` at h and belongs in bucket
  /// h + 1. That bucket is empty, since its keys would have h clear and be
  /// below base_: the lower buckets are spliced into it, in bucket order.
  void Rebase(std::uint64_t key) {
    const int into = std::bit_width(base_ ^ key);
    Bucket merged;
    for (int b = 0; b < into; ++b) {
      const Bucket bucket = buckets_[b];
      if (bucket.head == kNil) continue;
      if (merged.tail == kNil) {
        merged.head = bucket.head;
      } else {
        nodes_[merged.tail].next = bucket.head;
      }
      merged.tail = bucket.tail;
      merged.least = std::min(merged.least, bucket.least);
      buckets_[b] = Bucket{};
    }
    buckets_[into] = merged;
    occupied_ &= ~((std::uint64_t{1} << (into - 1)) - 1);
    if (merged.head != kNil) occupied_ |= std::uint64_t{1} << (into - 1);
    base_ = key;
  }

  std::vector<Node> nodes_;  // every node in one allocation
  std::uint32_t free_ = kNil;  // freed nodes, reused first
  std::array<Bucket, kBuckets> buckets_;
  std::uint64_t occupied_ = 0;  // bit b - 1 set: bucket b is non-empty
  std::uint64_t base_ = 0;      // below every time's key
  std::size_t size_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t total_pushed_ = 0;
};

}  // namespace simmr
