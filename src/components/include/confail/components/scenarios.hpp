// Canonical exploration scenarios, shared by the parallel-explorer tests,
// the benches (ablation_schedulers, explorer_scaling) and the
// confail_explore tool so they all measure exactly the same trees.
//
//   * figure2      — the paper's Figure-2 producer/consumer shape with a
//                    correct notifyAll buffer: capacity 1, 2 producers x 2
//                    items, 2 consumers x 2 items.  Deadlock-free.
//   * ffT5Notify   — the same shape with notify() instead of notifyAll()
//                    (FF-T5, "a notify is called rather than a notifyAll"):
//                    many schedules wake a same-side waiter and deadlock.
//   * disjointCounters — two threads incrementing two unrelated shared
//                    variables; every interleaving commutes, the showcase
//                    for the explorer's DPOR reduction.
//
// Every scenario has one signature, f(VirtualScheduler&, const
// Instruments& = {}): a plain run is an instrumented one with default
// Instruments.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "confail/components/bounded_buffer.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/support/text.hpp"

namespace confail::components::scenarios {

/// Optional observation hooks for a scenario run.  `trace`, when set, is
/// cleared and then receives the run's events (instead of a scenario-private
/// trace that dies with the run) — feed it to the exporters or the offline
/// detectors afterwards.  `metrics`, when set, is attached to the scenario's
/// Runtime before any monitor is built, so per-monitor counters register.
/// Exploration note: a shared external trace serializes appends from
/// parallel workers and interleaves their runs — pass a trace only to a
/// single capture run; `metrics` alone is safe under parallel exploration.
///
/// `decorate`, when set, is called once per scenario instantiation with the
/// freshly built Runtime, before any threads are spawned; whatever it
/// returns is owned by the scenario state and destroyed with it (after the
/// components, before the Runtime).  This is how confail::inject attaches a
/// per-run Injector without the components layer depending on it.
///
/// DEPRECATED as a hand-wired bundle: prefer building runs through
/// inject::ExploreConfig, which owns this plumbing (trace capture, metrics
/// registry, decoration) behind one builder — see docs/injection.md
/// (Migration).  The struct itself stays as the low-level carrier.
struct Instruments {
  events::Trace* trace = nullptr;
  obs::Registry* metrics = nullptr;
  std::function<std::shared_ptr<void>(monitor::Runtime&)> decorate;
};

namespace detail {

inline void boundedBufferScenario(confail::sched::VirtualScheduler& s,
                                  const BoundedBuffer<int>::Faults& faults,
                                  int itemsPerThread, const Instruments& ins) {
  // The State (and its trace) is kept alive by the spawned closures, which
  // the scheduler owns until the run finishes.
  struct State {
    events::Trace ownTrace;
    monitor::Runtime rt;
    std::shared_ptr<void> decoration;  ///< outlives components, not rt
    BoundedBuffer<int> buf;
    State(confail::sched::VirtualScheduler& sc,
          const BoundedBuffer<int>::Faults& f, const Instruments& i)
        : rt(i.trace != nullptr ? *i.trace : ownTrace, sc, 1, i.metrics),
          decoration(i.decorate ? i.decorate(rt) : nullptr),
          buf(rt, "buf", 1, f) {}
  };
  if (ins.trace != nullptr) ins.trace->clear();
  // Every piece of mutable state in this scenario implements the snapshot
  // protocol (Runtime, Monitor, SharedVar, the buffer's SnapshotCell), so
  // the explorer may use checkpoint/restore instead of prefix replay.
  s.declareSnapshotSafe();
  auto st = std::make_shared<State>(s, faults, ins);
  for (int p = 0; p < 2; ++p) {
    st->rt.spawn(numbered("p", p), [st, itemsPerThread] {
      for (int i = 0; i < itemsPerThread; ++i) st->buf.put(i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    st->rt.spawn(numbered("c", c), [st, itemsPerThread] {
      for (int i = 0; i < itemsPerThread; ++i) (void)st->buf.take();
    });
  }
}

}  // namespace detail

/// Figure-2 producer/consumer with a correct (notifyAll) buffer.
inline void figure2(confail::sched::VirtualScheduler& s,
                    const Instruments& ins = {}) {
  detail::boundedBufferScenario(s, BoundedBuffer<int>::Faults{}, 2, ins);
}

/// FF-T5 mutant: notify() where notifyAll() is required.
inline void ffT5Notify(confail::sched::VirtualScheduler& s,
                       const Instruments& ins = {}) {
  BoundedBuffer<int>::Faults f;
  f.notifyOneOnly = true;
  detail::boundedBufferScenario(s, f, 2, ins);
}

/// Single-item FF-T5 mutant: 2 producers x 1 item, 2 consumers x 1 item,
/// capacity 1, notify().  The same missed-notification deadlock as
/// ffT5Notify, but its schedule tree is small enough to exhaust unbounded —
/// the workhorse of the parallel-determinism tests.
inline void ffT5Small(confail::sched::VirtualScheduler& s,
                      const Instruments& ins = {}) {
  BoundedBuffer<int>::Faults f;
  f.notifyOneOnly = true;
  detail::boundedBufferScenario(s, f, /*itemsPerThread=*/1, ins);
}

/// Classic lock-order deadlock (the paper's FF-T2 "locks held by several
/// threads in a circular chain"): t0 takes A then B, t1 takes B then A.
inline void lockOrder(confail::sched::VirtualScheduler& s,
                      const Instruments& ins = {}) {
  struct State {
    events::Trace ownTrace;
    monitor::Runtime rt;
    std::shared_ptr<void> decoration;
    monitor::Monitor a;
    monitor::Monitor b;
    State(confail::sched::VirtualScheduler& sc, const Instruments& i)
        : rt(i.trace != nullptr ? *i.trace : ownTrace, sc, 1, i.metrics),
          decoration(i.decorate ? i.decorate(rt) : nullptr),
          a(rt, "A"),
          b(rt, "B") {}
  };
  if (ins.trace != nullptr) ins.trace->clear();
  s.declareSnapshotSafe();  // Runtime + two Monitors: all snapshot sources
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("t0", [st] {
    monitor::Synchronized ga(st->a);
    monitor::Synchronized gb(st->b);
  });
  st->rt.spawn("t1", [st] {
    monitor::Synchronized gb(st->b);
    monitor::Synchronized ga(st->a);
  });
}

/// Two threads on fully disjoint state: adjacent steps of different
/// threads always commute.
inline void disjointCounters(confail::sched::VirtualScheduler& s,
                             const Instruments& ins = {}) {
  struct State {
    events::Trace ownTrace;
    monitor::Runtime rt;
    std::shared_ptr<void> decoration;
    monitor::SharedVar<int> a;
    monitor::SharedVar<int> b;
    State(confail::sched::VirtualScheduler& sc, const Instruments& i)
        : rt(i.trace != nullptr ? *i.trace : ownTrace, sc, 1, i.metrics),
          decoration(i.decorate ? i.decorate(rt) : nullptr),
          a(rt, "a", 0),
          b(rt, "b", 0) {}
  };
  if (ins.trace != nullptr) ins.trace->clear();
  s.declareSnapshotSafe();  // Runtime + two SharedVar<int>: all sources
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("ta", [st] {
    for (int i = 0; i < 2; ++i) st->a.set(st->a.get() + 1);
  });
  st->rt.spawn("tb", [st] {
    for (int i = 0; i < 2; ++i) st->b.set(st->b.get() + 1);
  });
}

// ---------------------------------------------------------------------------
// Fuzzer-found reproducers.  These are hand-translations of gen IR programs
// that the `confail fuzz` differential harness shrank out of failing seeds
// during development; they are pinned here (components cannot depend on gen)
// so the exact shapes stay in the regression surface forever.  The IR each
// one encodes is quoted in its comment together with the seed that produced
// it — `confail fuzz --seeds N..N+1 ...` regenerates the original program.
// ---------------------------------------------------------------------------

/// gen IR:  t0: lock m0; wait m0; unlock m0        (1 thread, 1 monitor)
/// The minimal deadlocking monitor program: a self-wait nobody can ever
/// notify.  This is what the shrinker reduces *every* deadlocking seed to
/// under the drop-deadlocks sabotage oracle (first tripping seed 0 of
/// `confail fuzz --seeds 0..40 --sabotage drop-deadlocks`), and doubles as
/// the known-minimal fixture of the shrinker unit tests.
inline void genSelfWait(confail::sched::VirtualScheduler& s,
                        const Instruments& ins = {}) {
  struct State {
    events::Trace ownTrace;
    monitor::Runtime rt;
    std::shared_ptr<void> decoration;
    monitor::Monitor m0;
    State(confail::sched::VirtualScheduler& sc, const Instruments& i)
        : rt(i.trace != nullptr ? *i.trace : ownTrace, sc, 1, i.metrics),
          decoration(i.decorate ? i.decorate(rt) : nullptr),
          m0(rt, "m0") {}
  };
  if (ins.trace != nullptr) ins.trace->clear();
  s.declareSnapshotSafe();
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("t0", [st] {
    monitor::Synchronized g(st->m0);
    st->m0.wait();
  });
}

/// gen IR:  t0: lock m0; wait m0; unlock m0
///          t1: lock m0; notify m0; unlock m0      (2 threads, 1 monitor)
/// Lost notification: schedules where t1's notify lands before t0 waits
/// leave t0 blocked forever (the paper's FF-T5 neighborhood without the
/// buffer plumbing).  Distilled from seed 54 of the default fuzz tier, a
/// 2-thread/21-op program over one monitor whose bounded tree completes on
/// exactly 1 of its 16 schedules — the one where the waiter reaches its
/// wait before the lone notifyAll fires — and deadlocks on the other 15.
inline void genLostSignal(confail::sched::VirtualScheduler& s,
                          const Instruments& ins = {}) {
  struct State {
    events::Trace ownTrace;
    monitor::Runtime rt;
    std::shared_ptr<void> decoration;
    monitor::Monitor m0;
    State(confail::sched::VirtualScheduler& sc, const Instruments& i)
        : rt(i.trace != nullptr ? *i.trace : ownTrace, sc, 1, i.metrics),
          decoration(i.decorate ? i.decorate(rt) : nullptr),
          m0(rt, "m0") {}
  };
  if (ins.trace != nullptr) ins.trace->clear();
  s.declareSnapshotSafe();
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("t0", [st] {
    monitor::Synchronized g(st->m0);
    st->m0.wait();
  });
  st->rt.spawn("t1", [st] {
    monitor::Synchronized g(st->m0);
    st->m0.notifyOne();
  });
}

/// gen IR:  t0: lock m0; write v0; unlock m0
///          t1: write v0                           (2 threads, 1 mon, 1 var)
/// Inconsistent guarding: t1 touches v0 without ever holding m0, so every
/// interleaving carries a data race (empty lock-set intersection + no
/// happens-before edge) while all runs still complete — the FF-T1 shape the
/// lockset/hb detectors exist for.  Distilled from seed 7 of the default
/// fuzz tier (2 threads, 18 ops: t1 writes v0 with an empty lock stack
/// while t0 accesses it under m0); the clean-tier fuzz oracle proves
/// generated *guarded* programs never trip these detectors.
inline void genUnguardedWrite(confail::sched::VirtualScheduler& s,
                              const Instruments& ins = {}) {
  struct State {
    events::Trace ownTrace;
    monitor::Runtime rt;
    std::shared_ptr<void> decoration;
    monitor::Monitor m0;
    monitor::SharedVar<int> v0;
    State(confail::sched::VirtualScheduler& sc, const Instruments& i)
        : rt(i.trace != nullptr ? *i.trace : ownTrace, sc, 1, i.metrics),
          decoration(i.decorate ? i.decorate(rt) : nullptr),
          m0(rt, "m0"),
          v0(rt, "v0", 0) {}
  };
  if (ins.trace != nullptr) ins.trace->clear();
  s.declareSnapshotSafe();
  auto st = std::make_shared<State>(s, ins);
  st->rt.spawn("t0", [st] {
    monitor::Synchronized g(st->m0);
    st->v0.set(st->v0.peek() + 1);
  });
  st->rt.spawn("t1", [st] { st->v0.set(st->v0.peek() + 1); });
}

}  // namespace confail::components::scenarios
