#include "confail/monitor/runtime.hpp"

#include "confail/support/assert.hpp"

namespace confail::monitor {

namespace {
// Snapshot payload for Runtime.  The trace image is stored by value, not as
// a length to truncate to: checkpoints are restored in arbitrary order (a
// cache, not a stack), so after a sibling run rewound to a shallower point
// and appended its own events, the trace's first k slots no longer hold
// this checkpoint's prefix — only the captured content does.
struct RuntimeSnap {
  Xoshiro256 rng;
  std::uint32_t nextMonitorId;
  std::uint32_t nextVarId;
  std::uint32_t nextMethodId;
  std::vector<std::vector<MethodId>> methodStacks;
  std::vector<events::Event> traceImage;
};
}  // namespace

Runtime::Runtime(events::Trace& trace, sched::VirtualScheduler& sched,
                 std::uint64_t seed, obs::Registry* metrics)
    : trace_(trace), sched_(sched), metrics_(metrics), rng_(seed) {
  sched_.addSnapshotSource(this);
}

Runtime::~Runtime() { sched_.removeSnapshotSource(this); }

std::shared_ptr<const void> Runtime::saveState() const {
  return std::make_shared<RuntimeSnap>(RuntimeSnap{
      rng_, nextMonitorId_, nextVarId_, nextMethodId_, methodStacks_,
      trace_.events()});
}

void Runtime::restoreState(const std::shared_ptr<const void>& payload) {
  const RuntimeSnap& snap = *static_cast<const RuntimeSnap*>(payload.get());
  rng_ = snap.rng;
  nextMonitorId_ = snap.nextMonitorId;
  nextVarId_ = snap.nextVarId;
  nextMethodId_ = snap.nextMethodId;
  methodStacks_ = snap.methodStacks;
  trace_.restore(snap.traceImage);
}

std::size_t Runtime::snapshotBytes() const {
  std::size_t n = sizeof(RuntimeSnap) +
                  methodStacks_.capacity() * sizeof(std::vector<MethodId>) +
                  trace_.size() * sizeof(events::Event);
  for (const std::vector<MethodId>& s : methodStacks_) {
    n += s.capacity() * sizeof(MethodId);
  }
  return n;
}

void Runtime::noteFootprint(EventKind kind, MonitorId monitorId,
                            std::uint64_t aux) {
  switch (kind) {
    case EventKind::Read:
      sched_.noteAccess(sched::fpTag('v', aux), /*isWrite=*/false);
      break;
    case EventKind::Write:
      sched_.noteAccess(sched::fpTag('v', aux), /*isWrite=*/true);
      break;
    case EventKind::LockRequest:
    case EventKind::LockAcquire:
    case EventKind::WaitBegin:
    case EventKind::LockRelease:
    case EventKind::Notified:
    case EventKind::NotifyCall:
    case EventKind::NotifyAllCall:
    case EventKind::SpuriousWake:
      // Any monitor operation orders against every other operation on the
      // same monitor (entry queue and wait set are shared state).
      sched_.noteAccess(sched::fpTag('m', monitorId), /*isWrite=*/true);
      break;
    case EventKind::ThreadSpawn:
      sched_.noteGlobalEffect();
      break;
    case EventKind::ClockAwait:
    case EventKind::ClockTick:
      // Abstract-clock traffic interacts with idle-handler time advance;
      // treat conservatively.
      sched_.noteGlobalEffect();
      break;
    case EventKind::ThreadStart:
    case EventKind::ThreadEnd:
    case EventKind::MethodEnter:
    case EventKind::MethodExit:
    case EventKind::GuardEval:
      break;  // thread-local bookkeeping: no shared footprint
  }
}

ThreadId Runtime::spawn(std::string name, std::function<void()> fn) {
  ThreadId parent = sched_.currentThread();
  // The scheduler allocates ids densely in spawn order, mirroring ours.
  ThreadId id = sched_.spawn(name, [this, fn = std::move(fn)] {
    emit(EventKind::ThreadStart, events::kNoMonitor, 0);
    fn();
    emit(EventKind::ThreadEnd, events::kNoMonitor, 0);
  });
  snapshotBump();
  if (methodStacks_.size() <= id) methodStacks_.resize(id + 1);
  trace_.nameThread(id, std::move(name));
  if (parent != events::kNoThread) {
    emitFor(parent, EventKind::ThreadSpawn, events::kNoMonitor, id);
  }
  return id;
}

void Runtime::join(ThreadId t) { sched_.joinThread(t); }

ThreadId Runtime::currentThread() { return sched_.currentThread(); }

void Runtime::schedulePoint() {
  if (sched_.onLogicalThread()) sched_.yield();
}

MonitorId Runtime::registerMonitor(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  snapshotBump();
  MonitorId id = nextMonitorId_++;
  trace_.nameMonitor(id, name);
  return id;
}

VarId Runtime::registerVar(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  snapshotBump();
  VarId id = nextVarId_++;
  trace_.nameVar(id, name);
  return id;
}

MethodId Runtime::registerMethod(const std::string& name) {
  std::lock_guard<std::mutex> g(mu_);
  snapshotBump();
  MethodId id = nextMethodId_++;
  trace_.nameMethod(id, name);
  return id;
}

std::uint64_t Runtime::emit(EventKind kind, MonitorId monitorId,
                            std::uint64_t aux, bool flag) {
  return emitFor(currentThread(), kind, monitorId, aux, flag);
}

std::uint64_t Runtime::emitFor(ThreadId thread, EventKind kind,
                               MonitorId monitorId, std::uint64_t aux,
                               bool flag) {
  noteFootprint(kind, monitorId, aux);
  snapshotBump();  // the trace content is snapshotted state
  events::Event e;
  e.thread = thread;
  e.kind = kind;
  e.monitor = monitorId;
  e.aux = aux;
  e.flag = flag;
  e.method = currentMethodOf(thread);
  return trace_.record(e);
}

void Runtime::pushMethod(MethodId m) {
  ThreadId t = currentThread();
  std::lock_guard<std::mutex> g(mu_);
  CONFAIL_ASSERT(t < methodStacks_.size(), "method push on unknown thread");
  snapshotBump();
  methodStacks_[t].push_back(m);
}

void Runtime::popMethod() {
  ThreadId t = currentThread();
  std::lock_guard<std::mutex> g(mu_);
  CONFAIL_ASSERT(t < methodStacks_.size() && !methodStacks_[t].empty(),
                 "method pop without push");
  snapshotBump();
  methodStacks_[t].pop_back();
}

MethodId Runtime::currentMethodOf(ThreadId t) {
  if (t == events::kNoThread) return events::kNoMethod;
  std::lock_guard<std::mutex> g(mu_);
  if (t >= methodStacks_.size() || methodStacks_[t].empty()) {
    return events::kNoMethod;
  }
  return methodStacks_[t].back();
}

std::uint64_t Runtime::rngBelow(std::uint64_t bound) {
  // Consuming a policy draw advances shared state: steps that both draw
  // from the RNG do not commute (the stream order is the state).
  sched_.noteAccess(sched::fpTag('r', 0), /*isWrite=*/true);
  snapshotBump();
  std::lock_guard<std::mutex> g(mu_);
  return rng_.below(bound);
}

bool Runtime::rngChance(double p) {
  sched_.noteAccess(sched::fpTag('r', 0), /*isWrite=*/true);
  snapshotBump();
  std::lock_guard<std::mutex> g(mu_);
  return rng_.chance(p);
}

MethodScope::MethodScope(Runtime& rt, MethodId method)
    : rt_(rt), method_(method) {
  rt_.pushMethod(method_);
  rt_.emit(EventKind::MethodEnter, events::kNoMonitor, method_);
}

MethodScope::~MethodScope() {
  rt_.emit(EventKind::MethodExit, events::kNoMonitor, method_);
  rt_.popMethod();
}

}  // namespace confail::monitor
