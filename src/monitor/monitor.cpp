#include "confail/monitor/monitor.hpp"

#include <algorithm>

#include "confail/monitor/injection_hooks.hpp"

#include "confail/obs/metrics.hpp"
#include "confail/support/assert.hpp"

namespace confail::monitor {

using events::kNoMonitor;
using events::kNoThread;

const char* selectPolicyName(SelectPolicy p) {
  switch (p) {
    case SelectPolicy::Fifo: return "fifo";
    case SelectPolicy::Lifo: return "lifo";
    case SelectPolicy::Random: return "random";
  }
  return "?";
}

Monitor::Monitor(Runtime& rt, std::string name, Options opts)
    : rt_(rt), name_(std::move(name)), id_(rt.registerMonitor(name_)), opts_(opts) {
  rt_.scheduler().addSnapshotSource(this);
  if (obs::Registry* m = rt_.metrics()) {
    contentionCounter_ = &m->counter("monitor.contention." + name_);
    waitCounter_ = &m->counter("monitor.wait." + name_);
    notifyCounter_ = &m->counter("monitor.notify." + name_);
  }
}

Monitor::~Monitor() { rt_.scheduler().removeSnapshotSource(this); }

std::shared_ptr<const void> Monitor::saveState() const {
  return std::make_shared<State>(st_);
}

void Monitor::restoreState(const std::shared_ptr<const void>& payload) {
  st_ = *static_cast<const State*>(payload.get());
}

std::size_t Monitor::snapshotBytes() const {
  return sizeof(State) + st_.entry.capacity() * sizeof(State::Entry) +
         st_.waiters.capacity() * sizeof(State::Waiter);
}

void Monitor::notifyOne() { notify(/*all=*/false); }

void Monitor::notifyAll() { notify(/*all=*/true); }

std::size_t Monitor::choose(std::size_t size, SelectPolicy policy) {
  CONFAIL_ASSERT(size > 0, "selection from empty queue");
  switch (policy) {
    case SelectPolicy::Fifo: return 0;
    case SelectPolicy::Lifo: return size - 1;
    case SelectPolicy::Random: return static_cast<std::size_t>(rt_.rngBelow(size));
  }
  return 0;
}

void Monitor::lock() {
  const ThreadId self = rt_.currentThread();
  CONFAIL_CHECK(self != kNoThread, UsageError,
                "monitor used from outside a logical thread");
  if (st_.owner == self) {
    // Reentrant entry: the object lock is already held; the Figure-1 model
    // (single lock token) fires nothing.
    snapshotBump();
    ++st_.depth;
    return;
  }
  InjectionHooks* hooks = rt_.injection();
  if (hooks != nullptr) {
    switch (hooks->onLock(id_, self)) {
      case InjectionHooks::LockAction::Elide:
        // FF-T1: the thread proceeds as if it had entered the monitor —
        // no T1/T2, no mutual exclusion.  The matching unlock() arrives
        // as an onElidedUnlock() consultation.
        return;
      case InjectionHooks::LockAction::Starve:
        // FF-T2: the request fires but a grant never does.  The thread is
        // parked outside the entry queue (a queued thread would be granted
        // by the next release), so it starves even while the lock cycles.
        rt_.schedulePoint();
        rt_.emit(EventKind::LockRequest, id_, 0);  // T1, never answered
        if (contentionCounter_ != nullptr) contentionCounter_->inc();
        rt_.scheduler().block(sched::BlockKind::LockAcquire, id_);
        // Only reachable via run teardown (block() throws ExecutionAborted
        // for abandoned threads); nothing grants this request.
        return;
      case InjectionHooks::LockAction::Proceed:
        break;
    }
    // EF-T3/EF-T5: another thread arriving at the monitor is a wake
    // occasion for the wait set (the unlock site alone never sees waiters
    // in protocols where every exit notifies first).  If the lock is free
    // the moved waiter must be granted immediately — lock()'s uncontended
    // path relies on "lock idle => entry queue empty".
    if (!st_.waiters.empty()) {
      injectHookWake(*hooks);
      if (st_.owner == kNoThread) grantNext();
    }
  }
  rt_.schedulePoint();  // allow preemption just before requesting the lock
  rt_.emit(EventKind::LockRequest, id_, 0);  // T1
  if (st_.owner == kNoThread) {
    CONFAIL_ASSERT(st_.entry.empty(), "lock idle but entry queue non-empty");
    snapshotBump();
    st_.owner = self;
    st_.depth = 1;
    rt_.emit(EventKind::LockAcquire, id_, 0);  // T2 (uncontended)
  } else {
    if (contentionCounter_ != nullptr) contentionCounter_->inc();
    snapshotBump();
    st_.entry.push_back(State::Entry{self, 1});
    rt_.scheduler().block(sched::BlockKind::LockAcquire, id_);
    // grantNext() transferred ownership to us (and emitted T2) before the
    // scheduler resumed this thread.
    CONFAIL_ASSERT(st_.owner == self && st_.depth == 1,
                   "lock handoff corrupted");
  }
  if (hooks != nullptr && hooks->releaseEarly(id_, self)) {
    // EF-T4: T4 fires the moment the lock is granted; the thread continues
    // its critical section unprotected and its eventual unlock() is
    // swallowed via onElidedUnlock().
    rt_.emit(EventKind::LockRelease, id_, 0);
    snapshotBump();
    st_.owner = kNoThread;
    st_.depth = 0;
    grantNext();
  }
}

void Monitor::unlock() {
  const ThreadId self = rt_.currentThread();
  if (rt_.scheduler().aborting()) {
    // Teardown: threads are being unwound one at a time and queued threads
    // may already have finished, so no events are emitted and no handoff is
    // attempted.  Just drop ownership if we held it.
    if (st_.owner == self) {
      snapshotBump();
      st_.owner = kNoThread;
      st_.depth = 0;
    }
    return;
  }
  InjectionHooks* hooks = rt_.injection();
  if (st_.owner != self) {
    if (hooks != nullptr && hooks->onElidedUnlock(id_, self)) return;
    throw IllegalMonitorState("unlock of monitor '" + name_ +
                              "' by a thread that does not own it");
  }
  if (st_.depth > 1) {
    snapshotBump();
    --st_.depth;  // inner exit of a reentrant region: lock stays held
    return;
  }
  if (hooks != nullptr && hooks->leakUnlock(id_, self)) {
    // FF-T4: the outermost release never fires.  Ownership is kept while
    // the thread walks away believing it released.
    rt_.schedulePoint();
    return;
  }
  rt_.emit(EventKind::LockRelease, id_, 0);  // T4
  snapshotBump();
  st_.owner = kNoThread;
  st_.depth = 0;
  injectSpuriousWakes();
  if (hooks != nullptr) injectHookWake(*hooks);
  grantNext();
  rt_.schedulePoint();  // natural preemption point after releasing
}

void Monitor::grantNext() {
  if (st_.entry.empty()) return;
  CONFAIL_ASSERT(st_.owner == kNoThread, "grant while lock held");
  std::size_t idx;
  std::size_t pick = 0;
  InjectionHooks* hooks = rt_.injection();
  if (hooks != nullptr && hooks->overrideGrant(id_, st_.entry.size(), pick)) {
    CONFAIL_ASSERT(pick < st_.entry.size(), "grant override out of range");
    idx = pick;  // EF-T2: the hook barges past the configured policy
  } else {
    idx = choose(st_.entry.size(), opts_.grantPolicy);
  }
  snapshotBump();
  State::Entry e = st_.entry[idx];
  st_.entry.erase(st_.entry.begin() + static_cast<std::ptrdiff_t>(idx));
  st_.owner = e.tid;
  st_.depth = e.restoreDepth;
  rt_.emitFor(e.tid, EventKind::LockAcquire, id_, 0);  // T2 (handoff)
  rt_.scheduler().unblock(e.tid);
}

void Monitor::wait() {
  const ThreadId self = rt_.currentThread();
  CONFAIL_CHECK(st_.owner == self, IllegalMonitorState,
                "wait on monitor '" + name_ + "' without owning its lock");
  InjectionHooks* hooks = rt_.injection();
  if (hooks != nullptr && hooks->suppressWait(id_, self)) {
    // FF-T3: the wait never fires — no T3, the lock stays held, the
    // caller returns immediately (a guard loop degenerates to a spin).
    rt_.schedulePoint();
    return;
  }
  const std::uint32_t saved = st_.depth;
  if (waitCounter_ != nullptr) waitCounter_->inc();
  rt_.emit(EventKind::WaitBegin, id_, 0);  // T3 (releases the lock)
  snapshotBump();
  st_.waiters.push_back(State::Waiter{self, saved});
  st_.owner = kNoThread;
  st_.depth = 0;
  grantNext();
  rt_.scheduler().block(sched::BlockKind::CondWait, id_);
  // A notifier moved us to the entry queue (T5) and a subsequent release
  // handed us the lock (T2) with our depth restored.
  CONFAIL_ASSERT(st_.owner == self && st_.depth == saved,
                 "wait resume corrupted");
}

void Monitor::notify(bool all) {
  const ThreadId self = rt_.currentThread();
  CONFAIL_CHECK(st_.owner == self, IllegalMonitorState,
                std::string(all ? "notifyAll" : "notify") + " on monitor '" +
                    name_ + "' without owning its lock");
  InjectionHooks* hooks = rt_.injection();
  if (hooks != nullptr && hooks->suppressNotify(id_, self, all)) {
    // FF-T5: the notification is lost — no call event, nobody wakes.
    return;
  }
  if (notifyCounter_ != nullptr) notifyCounter_->inc();
  rt_.emit(all ? EventKind::NotifyAllCall : EventKind::NotifyCall, id_,
           st_.waiters.size());
  std::size_t count =
      all ? st_.waiters.size() : std::min<std::size_t>(1, st_.waiters.size());
  if (count > 0) snapshotBump();
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t idx = choose(st_.waiters.size(), opts_.wakePolicy);
    State::Waiter w = st_.waiters[idx];
    st_.waiters.erase(st_.waiters.begin() + static_cast<std::ptrdiff_t>(idx));
    st_.entry.push_back(State::Entry{w.tid, w.savedDepth});
    rt_.emitFor(w.tid, EventKind::Notified, id_, self);  // T5: D -> B
    rt_.scheduler().reblock(w.tid, sched::BlockKind::LockAcquire, id_);
  }
}

void Monitor::injectHookWake(InjectionHooks& hooks) {
  if (st_.waiters.empty()) return;
  const InjectionHooks::WakeInjection w =
      hooks.injectWake(id_, st_.waiters.size());
  if (w == InjectionHooks::WakeInjection::None) return;
  // Wake the oldest waiter (a fixed choice keeps the deviation
  // deterministic independent of the wake policy's RNG stream).
  snapshotBump();
  State::Waiter waiter = st_.waiters.front();
  st_.waiters.erase(st_.waiters.begin());
  st_.entry.push_back(State::Entry{waiter.tid, waiter.savedDepth});
  if (w == InjectionHooks::WakeInjection::Spurious) {
    rt_.emitFor(waiter.tid, EventKind::SpuriousWake, id_, 0);  // EF-T3
  } else {
    // EF-T5: a Notified (T5) with no notify call backing it.
    rt_.emitFor(waiter.tid, EventKind::Notified, id_, kNoThread);
  }
  rt_.scheduler().reblock(waiter.tid, sched::BlockKind::LockAcquire, id_);
}

void Monitor::injectSpuriousWakes() {
  if (opts_.spuriousWakeProbability <= 0.0 || st_.waiters.empty()) return;
  for (std::size_t i = st_.waiters.size(); i-- > 0;) {
    if (!rt_.rngChance(opts_.spuriousWakeProbability)) continue;
    snapshotBump();
    State::Waiter w = st_.waiters[i];
    st_.waiters.erase(st_.waiters.begin() + static_cast<std::ptrdiff_t>(i));
    st_.entry.push_back(State::Entry{w.tid, w.savedDepth});
    rt_.emitFor(w.tid, EventKind::SpuriousWake, id_, 0);
    rt_.scheduler().reblock(w.tid, sched::BlockKind::LockAcquire, id_);
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

bool Monitor::heldByCurrent() { return st_.owner == rt_.currentThread(); }

std::size_t Monitor::waitSetSize() { return st_.waiters.size(); }

std::size_t Monitor::entryQueueLength() { return st_.entry.size(); }

std::uint32_t Monitor::depth() { return st_.depth; }

}  // namespace confail::monitor
