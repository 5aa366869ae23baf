// The ConAn abstract clock (Long, Hoffman, Strooper 2001), the paper's
// deterministic-execution substrate for "check call completion time".
//
// Three operations, quoted from the paper:
//   * await(t)  — "delays the calling thread until the clock reaches time t"
//   * tick()    — "advances the time by one unit, waking up any processes
//                  that are awaiting that time"
//   * time()    — "returns the number of units of time passed since the
//                  clock started"
//
// The clock registers itself as a scheduler IdleHandler: when no logical
// thread is runnable but some are awaiting, the clock auto-advances to the
// earliest awaited time (discrete-event semantics).  This removes the need
// for an explicit ticker thread and makes completion ticks exact.  Manual
// tick() is also supported for ConAn-style scripts.
#pragma once

#include <cstdint>
#include <vector>

#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace confail::clock {

using monitor::Runtime;

class AbstractClock : public sched::IdleHandler {
 public:
  /// Creates the clock at time 0 and registers it as an idle handler on
  /// the runtime's scheduler (auto-advance enabled by default).
  explicit AbstractClock(Runtime& rt);

  AbstractClock(const AbstractClock&) = delete;
  AbstractClock& operator=(const AbstractClock&) = delete;

  /// Units of logical time passed since the clock started.
  std::uint64_t time() const { return time_; }

  /// Delay the calling thread until the clock reaches time t.
  /// Returns immediately if time() >= t already.
  void await(std::uint64_t t);

  /// Advance time by one unit and wake any thread awaiting a time <= the
  /// new time.  Callable from a logical thread.
  void tick();

  /// Enable/disable auto-advance when the system is idle.  (Enabled by
  /// default; disable to script ticks manually.)
  void setAutoAdvance(bool enabled) { autoAdvance_ = enabled; }

  /// IdleHandler: advance to the earliest awaited time, if any.
  bool onIdle() override;

 private:
  void wakeReady();  // time_ already advanced

  Runtime& rt_;
  bool autoAdvance_ = true;

  // One logical thread runs at a time, so no locking is needed.
  struct Awaiter {
    events::ThreadId tid;
    std::uint64_t target;
  };
  std::vector<Awaiter> awaiters_;
  std::uint64_t time_ = 0;
};

}  // namespace confail::clock
