// Runtime: the execution context shared by all instrumented objects.
//
// A Runtime binds together
//   * the VirtualScheduler under which every logical thread runs (one
//     fiber per thread; the strategy picks who runs at each schedule
//     point, so a run is deterministic per seed and deadlocks are
//     observable),
//   * the Trace into which every instrumented operation records an Event,
//   * id allocation and naming for monitors / shared variables / methods,
//   * per-thread bookkeeping (component-method stacks for CoFG coverage),
//   * a seeded RNG for all policy decisions (wake and grant selection).
//
// Components (confail::components) take a Runtime& and run unchanged
// under every strategy, the explorer and the ConAn driver.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "confail/events/trace.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/support/rng.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::monitor {

class InjectionHooks;

using events::EventKind;
using events::MethodId;
using events::MonitorId;
using events::ThreadId;
using events::VarId;

class Runtime : public sched::SnapshotSource {
 public:
  /// Logical threads run under `sched`.  When `metrics` is non-null,
  /// monitors constructed on this runtime register per-monitor contention /
  /// wait / notify counters on it (the registry must outlive the monitors;
  /// not owned).
  Runtime(events::Trace& trace, sched::VirtualScheduler& sched,
          std::uint64_t seed, obs::Registry* metrics = nullptr);

  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Snapshot payload size: RNG + counters + method stacks + trace.
  std::size_t snapshotBytes() const override;

  events::Trace& trace() { return trace_; }

  /// The metrics registry passed at construction (null when
  /// uninstrumented).  Instrumented wiring is normally owned by
  /// inject::ExploreConfig — see docs/injection.md ("Migration").
  obs::Registry* metrics() const { return metrics_; }

  /// Attach a fault-injection hooks object (see
  /// confail/monitor/injection_hooks.hpp).  Monitors consult the current
  /// pointer at every operation, so this may be called any time before the
  /// run starts.  Null detaches; the hooks must outlive the monitors'
  /// operations.  Not owned.
  void setInjection(InjectionHooks* hooks) { injection_ = hooks; }
  InjectionHooks* injection() const { return injection_; }

  /// The underlying scheduler.
  sched::VirtualScheduler& scheduler() { return sched_; }

  /// Spawn a logical thread.  It does not start until
  /// VirtualScheduler::run() (the scheduler's run owns thread lifetime).
  ThreadId spawn(std::string name, std::function<void()> fn);

  /// Java Thread.join: block the calling logical thread until `t` finishes.
  void join(ThreadId t);

  /// Logical id of the calling thread (kNoThread on the controller thread,
  /// outside any logical thread).
  ThreadId currentThread();

  /// A schedule point: hands control to the strategy (a no-op outside a
  /// logical thread).
  void schedulePoint();

  // ---- id registration -----------------------------------------------------
  MonitorId registerMonitor(const std::string& name);
  VarId registerVar(const std::string& name);
  MethodId registerMethod(const std::string& name);

  // ---- event emission --------------------------------------------------------
  /// Record an event on behalf of the calling thread.  The innermost
  /// component method of that thread is attached automatically.
  std::uint64_t emit(EventKind kind, MonitorId monitor, std::uint64_t aux,
                     bool flag = false);

  /// Record an event on behalf of another thread (e.g. a notifier recording
  /// the Notified transition of the woken waiter).
  std::uint64_t emitFor(ThreadId thread, EventKind kind, MonitorId monitor,
                        std::uint64_t aux, bool flag = false);

  // ---- per-thread component-method stack (CoFG coverage) ---------------------
  void pushMethod(MethodId m);
  void popMethod();
  MethodId currentMethodOf(ThreadId t);

  // ---- deterministic policy randomness ---------------------------------------
  std::uint64_t rngBelow(std::uint64_t bound);
  bool rngChance(double p);

 private:
  // Snapshot protocol: policy-RNG stream, id counters, the
  // per-thread method stacks, and the trace length (restore truncates the
  // trace back to the checkpointed prefix).  Saves run on the controller
  // thread with every logical thread suspended, so no locking is needed.
  std::shared_ptr<const void> saveState() const override;
  void restoreState(const std::shared_ptr<const void>& payload) override;

  /// Map an emitted event onto the current step's footprint.
  void noteFootprint(EventKind kind, MonitorId monitorId, std::uint64_t aux);

  events::Trace& trace_;
  sched::VirtualScheduler& sched_;
  obs::Registry* metrics_ = nullptr;     // optional, not owned
  InjectionHooks* injection_ = nullptr;  // optional, not owned

  // Guards everything below.  Every logical thread is a fiber on the OS
  // thread that calls run(), so the lock is never contended.
  std::mutex mu_;
  Xoshiro256 rng_;
  std::uint32_t nextMonitorId_ = 0;
  std::uint32_t nextVarId_ = 0;
  std::uint32_t nextMethodId_ = 0;
  std::vector<std::vector<MethodId>> methodStacks_; // indexed by ThreadId
};

/// RAII marker for a component method: emits MethodEnter/MethodExit and
/// maintains the per-thread method stack used to attribute events to CoFG
/// nodes.  Declare one at the top of every public component method.
class MethodScope {
 public:
  MethodScope(Runtime& rt, MethodId method);
  ~MethodScope();

  MethodScope(const MethodScope&) = delete;
  MethodScope& operator=(const MethodScope&) = delete;

 private:
  Runtime& rt_;
  MethodId method_;
};

}  // namespace confail::monitor
