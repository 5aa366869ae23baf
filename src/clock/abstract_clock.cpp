#include "confail/clock/abstract_clock.hpp"

#include <algorithm>

#include "confail/support/assert.hpp"

namespace confail::clock {

using events::EventKind;
using events::kNoMonitor;

AbstractClock::AbstractClock(Runtime& rt) : rt_(rt) {
  rt_.scheduler().addIdleHandler(this);
}

void AbstractClock::await(std::uint64_t t) {
  events::ThreadId self = rt_.scheduler().currentThread();
  CONFAIL_CHECK(self != events::kNoThread, UsageError,
                "await() called from outside a logical thread");
  // Always emitted (even when already due) so trace consumers can bracket
  // the caller's activity between consecutive awaits.
  rt_.emit(EventKind::ClockAwait, kNoMonitor, t);
  if (time_ >= t) return;
  awaiters_.push_back(Awaiter{self, t});
  rt_.scheduler().block(sched::BlockKind::ClockAwait, t);
}

void AbstractClock::wakeReady() {
  for (std::size_t i = awaiters_.size(); i-- > 0;) {
    if (awaiters_[i].target <= time_) {
      rt_.scheduler().unblock(awaiters_[i].tid);
      awaiters_.erase(awaiters_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

void AbstractClock::tick() {
  ++time_;
  rt_.emit(EventKind::ClockTick, kNoMonitor, time_);
  wakeReady();
}

bool AbstractClock::onIdle() {
  if (!autoAdvance_ || awaiters_.empty()) return false;
  std::uint64_t earliest = awaiters_[0].target;
  for (const Awaiter& a : awaiters_) earliest = std::min(earliest, a.target);
  CONFAIL_ASSERT(earliest > time_, "awaiter already due but still blocked");
  time_ = earliest;
  rt_.emitFor(events::kNoThread, EventKind::ClockTick, kNoMonitor, time_);
  wakeReady();
  return true;
}

}  // namespace confail::clock
