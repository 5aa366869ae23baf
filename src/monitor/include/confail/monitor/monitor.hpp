// Monitor: a from-scratch implementation of Java object-lock semantics.
//
// Semantics reproduced from the Java Language Specification (2nd ed.), which
// is what the IPPS'03 paper models:
//   * the lock is reentrant (owner + recursion depth);
//   * wait() fully releases the lock regardless of depth, suspends the
//     caller on the monitor's wait set, and re-acquires the lock (restoring
//     the depth) before returning;
//   * notify() moves one waiter — chosen arbitrarily — from the wait set to
//     the entry queue; notifyAll() moves all of them;
//   * wait/notify/notifyAll without ownership throw IllegalMonitorState
//     (IllegalMonitorStateException in Java);
//   * a notify with an empty wait set is lost (no memory, unlike a
//     semaphore) — the root of the FF-T5 "missed notification" failures;
//   * spurious wakeups may occur (injectable, probability-controlled).
//
// Every state change emits the corresponding Figure-1 transition event:
//   lock request -> T1 LockRequest        lock grant -> T2 LockAcquire
//   wait         -> T3 WaitBegin          outer unlock -> T4 LockRelease
//   waiter woken -> T5 Notified
// Reentrant (inner) lock/unlock pairs emit nothing: the Figure-1 model has
// a single lock token, and the JLS releases the object lock only at the
// outermost exit.
//
// Blocking is VirtualScheduler state: a thread waiting for the lock or a
// notification is a blocked logical thread, the wake and grant policies
// are deterministic per seed, and deadlocks are observable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "confail/monitor/runtime.hpp"
#include "confail/sched/snapshot.hpp"

namespace confail::obs {
class Counter;
}

namespace confail::monitor {

/// How the next thread is chosen from a monitor's entry queue (lock grant)
/// and wait set (notify).  The JLS allows any choice ("arbitrary"); the
/// policies let tests pin it down or model unfair JVMs.
enum class SelectPolicy : std::uint8_t {
  Fifo,    ///< oldest first (a fair JVM)
  Lifo,    ///< newest first (a maximally unfair JVM — drives starvation)
  Random,  ///< seeded-random (the JLS "arbitrary" choice)
};

const char* selectPolicyName(SelectPolicy p);

class Monitor : public sched::SnapshotSource {
 public:
  struct Options {
    SelectPolicy grantPolicy = SelectPolicy::Fifo;  ///< entry-queue choice
    SelectPolicy wakePolicy = SelectPolicy::Fifo;   ///< wait-set choice
    double spuriousWakeProbability = 0.0;  ///< per-unlock chance
  };

  Monitor(Runtime& rt, std::string name) : Monitor(rt, std::move(name), Options()) {}
  Monitor(Runtime& rt, std::string name, Options opts);
  ~Monitor() override;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Snapshot payload size: the State copy.
  std::size_t snapshotBytes() const override;

  /// Enter the monitor (Figure 1: T1, then T2 once the lock is granted).
  /// Reentrant: a thread already owning the lock increments the depth.
  void lock();

  /// Leave the monitor.  Releases the object lock at the outermost exit
  /// (Figure 1: T4).  Throws IllegalMonitorState if not the owner.
  void unlock();

  /// Java Object.wait(): release the lock fully, join the wait set
  /// (Figure 1: T3), stay suspended until notified (T5), then re-acquire
  /// the lock (T2) and return with the original recursion depth restored.
  void wait();

  /// Java Object.notify(): wake one waiter, chosen by the wake policy.
  /// A call with an empty wait set is lost.
  void notifyOne();

  /// Java Object.notifyAll(): wake every waiter.
  void notifyAll();

  MonitorId id() const { return id_; }
  const std::string& name() const { return name_; }

  // ---- introspection (tests, detectors, deadlock reports) ------------------
  /// True if the calling thread owns the lock.
  bool heldByCurrent();
  /// Number of threads currently in the wait set.
  std::size_t waitSetSize();
  /// Number of threads queued for lock entry.
  std::size_t entryQueueLength();
  /// Current recursion depth (0 when unowned).
  std::uint32_t depth();

 private:
  // Owner, recursion depth, entry queue and wait set.  Invariant: owner ==
  // kNoThread implies the entry queue is empty, because every release
  // (unlock / wait) immediately hands the lock to a queued thread if one
  // exists.
  struct State {
    ThreadId owner = events::kNoThread;
    std::uint32_t depth = 0;
    struct Entry {
      ThreadId tid;
      std::uint32_t restoreDepth;  // 1 for fresh lock, saved depth for wait
    };
    std::vector<Entry> entry;
    struct Waiter {
      ThreadId tid;
      std::uint32_t savedDepth;
    };
    std::vector<Waiter> waiters;
  };

  // Snapshot protocol: a deep copy of State.
  std::shared_ptr<const void> saveState() const override;
  void restoreState(const std::shared_ptr<const void>& payload) override;

  void notify(bool all);
  void grantNext();
  void injectHookWake(InjectionHooks& hooks);
  void injectSpuriousWakes();
  std::size_t choose(std::size_t size, SelectPolicy policy);

  Runtime& rt_;
  std::string name_;
  MonitorId id_;
  Options opts_;
  State st_;
  // Per-monitor counters, resolved once from the runtime's metrics registry
  // at construction (null when no registry is attached — the common,
  // uninstrumented case costs one branch per operation).
  obs::Counter* contentionCounter_ = nullptr;  ///< lock attempts that blocked
  obs::Counter* waitCounter_ = nullptr;        ///< wait() calls
  obs::Counter* notifyCounter_ = nullptr;      ///< notify()/notifyAll() calls
};

/// RAII equivalent of a Java `synchronized (m) { ... }` block.
///
/// The destructor is noexcept(false): the unlock contains a schedule
/// point, and a thread parked there when the run is torn down must unwind
/// via ExecutionAborted — which therefore may propagate out of this
/// destructor.  That is safe: the teardown path never runs while another
/// exception is in flight (the unlock short-circuits during unwinding).
class Synchronized {
 public:
  explicit Synchronized(Monitor& m) : m_(m) { m_.lock(); }
  ~Synchronized() noexcept(false) { m_.unlock(); }

  Synchronized(const Synchronized&) = delete;
  Synchronized& operator=(const Synchronized&) = delete;

 private:
  Monitor& m_;
};

}  // namespace confail::monitor
