// The shared discrete-event simulation kernel.
//
// All three simulators in this repository (the SimMR engine, the node-level
// testbed emulator and the Mumak baseline) are the same machine underneath:
// a clock, a stable priority queue of simulator-specific payloads, an
// optional observer notified on every dequeue, and slot accounting. Each
// used to hand-roll that machinery; SimKernel owns it once. The simulators
// keep only what genuinely differs — their event payloads and dispatch
// logic.
//
// SimKernel is templated on the payload and, at the drain call, on the
// observer type: the SimMR engine instantiates its hot recording path
// against a concrete observer class so every hook devirtualizes (see
// core/engine.cpp), and the kernel must not force that call back through a
// vtable. simcore sits below obs/ in the layering, so the kernel names no
// observer type — any class with an OnEventDequeue(SimTime, const char*,
// size_t) member works.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "prof/profiler.h"
#include "simcore/choice.h"
#include "simcore/event_queue.h"
#include "simcore/time.h"

namespace simmr {

/// Free-slot accounting for one scheduling domain: the whole cluster for
/// the task-level SimMR engine, one worker node for the node-level
/// simulators.
struct SlotPool {
  int free_maps = 0;
  int free_reduces = 0;
};

/// Reduce slowstart gate as Hadoop computes it
/// (mapred.reduce.slowstart.completed.maps): how many map completions must
/// have been reported before a job's reduces may launch — at least one,
/// even at fraction zero. Shared by the heartbeat-driven simulators
/// (cluster/, mumak/); the task-level SimMR engine keeps its paper-exact
/// unclamped variant in core::JobState::ReduceGateThreshold, where
/// minMapPercentCompleted == 0 disables the gate entirely.
inline int ReduceGateThreshold(int num_maps, double min_map_fraction) {
  return std::max(
      1, static_cast<int>(
             std::ceil(min_map_fraction * static_cast<double>(num_maps))));
}

/// Clock + event queue + per-dequeue observer dispatch.
///
/// Usage: Schedule() payloads, then Drain() with a dispatch callable; the
/// kernel pops events in (time, insertion) order, advances now(), notifies
/// the observer and hands each payload to the dispatcher. Dispatchers may
/// Schedule() further events freely (including at the current time).
template <typename Payload>
class SimKernel {
 public:
  SimTime now() const { return now_; }

  void Schedule(SimTime time, Payload payload) {
    queue_.Push(time, std::move(payload));
  }

  bool Empty() const { return queue_.Empty(); }
  std::size_t Pending() const { return queue_.Size(); }

  /// Lifetime count of scheduled events — what the SimMR engine reports as
  /// events_processed (every scheduled event is eventually popped when the
  /// queue drains fully).
  std::uint64_t TotalScheduled() const { return queue_.TotalPushed(); }

  /// Count of events actually popped — what the node-level simulators
  /// report, since they stop draining once the last job finishes.
  std::uint64_t Dequeued() const { return dequeued_; }

  /// Pops events until the queue is empty or `stop()` returns true
  /// (checked before each pop). For each event: advances the clock, calls
  /// obs->OnEventDequeue(now, name(payload), remaining) when obs is
  /// non-null, then dispatch(payload).
  template <typename TObs, typename StopFn, typename NameFn,
            typename DispatchFn>
  void DrainUntil(StopFn&& stop, TObs* obs, NameFn&& name,
                  DispatchFn&& dispatch) {
    while (!queue_.Empty() && !stop()) {
      auto entry = queue_.Pop();
      now_ = entry.time;
      ++dequeued_;
      prof::Count(prof::Counter::kEventsDispatched);
      if (obs != nullptr)
        obs->OnEventDequeue(now_, name(entry.payload), queue_.Size());
      dispatch(entry.payload);
    }
  }

  /// DrainUntil with no stop condition: runs the queue dry.
  template <typename TObs, typename NameFn, typename DispatchFn>
  void Drain(TObs* obs, NameFn&& name, DispatchFn&& dispatch) {
    DrainUntil([] { return false; }, obs, name, dispatch);
  }

  /// DrainUntil with oracle-controlled tie-breaking: whenever two or more
  /// events share the earliest pending time, `option(payload)` describes
  /// each alternative (insertion order) and the oracle picks which one
  /// dispatches next. A null oracle is exactly DrainUntil. Each step walks
  /// only the tie group, which the queue keeps apart from the rest.
  template <typename TObs, typename StopFn, typename NameFn,
            typename OptionFn, typename DispatchFn>
  void DrainUntilOracle(StopFn&& stop, TObs* obs, NameFn&& name,
                        OptionFn&& option, DispatchFn&& dispatch,
                        ScheduleOracle* oracle) {
    if (oracle == nullptr) {
      DrainUntil(stop, obs, name, dispatch);
      return;
    }
    while (!queue_.Empty() && !stop()) {
      std::size_t pick = 0;
      const std::size_t tied = queue_.EarliestCount();
      if (tied > 1) {
        std::vector<ChoiceOption> options;
        options.reserve(tied);
        for (const auto* entry : queue_.EarliestEntries())
          options.push_back(option(entry->payload));
        pick = oracle->Choose(queue_.PeekTime(), options);
        if (pick >= options.size())
          throw std::logic_error(
              "SimKernel: oracle chose an out-of-range alternative");
      }
      auto entry = queue_.PopAmongEarliest(pick);
      now_ = entry.time;
      ++dequeued_;
      prof::Count(prof::Counter::kEventsDispatched);
      oracle->OnDispatch(now_, option(entry.payload));
      if (obs != nullptr)
        obs->OnEventDequeue(now_, name(entry.payload), queue_.Size());
      dispatch(entry.payload);
    }
  }

 private:
  EventQueue<Payload> queue_;
  SimTime now_ = 0.0;
  std::uint64_t dequeued_ = 0;
};

}  // namespace simmr
