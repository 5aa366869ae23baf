// Unit and property tests for the Petri-net engine and the Figure-1
// thread/lock model: enabledness/firing, reachability, invariants
// (mutual exclusion, token conservation), dead markings in the gated-notify
// variant, and trace-against-model validation.
#include <gtest/gtest.h>

#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/petri/net.hpp"
#include "confail/petri/reachability.hpp"
#include "confail/petri/thread_lock_net.hpp"
#include "confail/petri/trace_validator.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/support/text.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace ev = confail::events;
namespace petri = confail::petri;
namespace sched = confail::sched;
using confail::monitor::Runtime;
using petri::buildThreadLockNet;
using petri::Marking;
using petri::Net;
using petri::NotifyModel;

TEST(Net, EnabledAndFire) {
  Net n;
  auto p0 = n.addPlace("p0");
  auto p1 = n.addPlace("p1");
  auto t = n.addTransition("t", {{p0, 1}}, {{p1, 2}});
  Marking m{1, 0};
  ASSERT_TRUE(n.enabled(t, m));
  Marking next = n.fire(t, m);
  EXPECT_EQ(next, (Marking{0, 2}));
  EXPECT_FALSE(n.enabled(t, next));
  EXPECT_THROW(n.fire(t, next), confail::UsageError);
}

TEST(Net, WeightedArcs) {
  Net n;
  auto p0 = n.addPlace("p0");
  auto t = n.addTransition("t", {{p0, 3}}, {});
  EXPECT_FALSE(n.enabled(t, Marking{2}));
  EXPECT_TRUE(n.enabled(t, Marking{3}));
  EXPECT_EQ(n.fire(t, Marking{5}), Marking{2});
}

TEST(Net, BadConstructionRejected) {
  Net n;
  auto p0 = n.addPlace("p0");
  EXPECT_THROW(n.addTransition("bad", {{p0 + 7, 1}}, {}), confail::UsageError);
  EXPECT_THROW(n.addTransition("bad", {{p0, 0}}, {}), confail::UsageError);
}

TEST(Net, MarkingSizeChecked) {
  Net n;
  n.addPlace("p0");
  auto t = n.addTransition("t", {}, {});
  EXPECT_THROW(n.enabled(t, Marking{}), confail::UsageError);
}

TEST(Net, DescribeAndRender) {
  auto tl = buildThreadLockNet(1, NotifyModel::Free);
  std::string d = tl.net.describe();
  EXPECT_NE(d.find("T1_0"), std::string::npos);
  EXPECT_NE(d.find("A0"), std::string::npos);
  std::string m = tl.net.renderMarking(tl.initial);
  EXPECT_NE(m.find("A0"), std::string::npos);
  EXPECT_NE(m.find("E"), std::string::npos);
}

TEST(ThreadLockNet, SingleThreadReachabilityIsFigure1) {
  // One thread: states are exactly {A+E, B+E, C, D+E} — the four thread
  // states of Figure 1 (lock availability determined by the thread state).
  auto tl = buildThreadLockNet(1, NotifyModel::Free);
  auto r = petri::reachable(tl.net, tl.initial);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.stateCount(), 4u);
  EXPECT_TRUE(r.deadStates.empty());
}

TEST(ThreadLockNet, FreeModelDeadlockFree) {
  for (unsigned n = 1; n <= 4; ++n) {
    auto tl = buildThreadLockNet(n, NotifyModel::Free);
    auto r = petri::reachable(tl.net, tl.initial);
    ASSERT_TRUE(r.complete);
    EXPECT_TRUE(r.deadStates.empty()) << n << " threads";
  }
}

TEST(ThreadLockNet, MutualExclusionInvariantHolds) {
  // E + sum_i C_i == 1 across every reachable marking: at most one thread
  // in the critical section, and the lock token is never lost or forged.
  for (unsigned n = 1; n <= 4; ++n) {
    auto tl = buildThreadLockNet(n, NotifyModel::Free);
    auto r = petri::reachable(tl.net, tl.initial);
    ASSERT_TRUE(r.complete);
    EXPECT_TRUE(petri::holdsPInvariant(r, tl.lockInvariantWeights()))
        << n << " threads";
  }
}

TEST(ThreadLockNet, PerThreadConservationHolds) {
  auto tl = buildThreadLockNet(3, NotifyModel::Free);
  auto r = petri::reachable(tl.net, tl.initial);
  ASSERT_TRUE(r.complete);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_TRUE(petri::holdsPInvariant(r, tl.threadConservationWeights(i)))
        << "thread " << i;
  }
}

TEST(ThreadLockNet, NetIsOneBounded) {
  auto tl = buildThreadLockNet(4, NotifyModel::Free);
  auto r = petri::reachable(tl.net, tl.initial);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(petri::maxTokensPerPlace(r), 1u);
}

TEST(ThreadLockNet, ReachableStateCountGrowsGeometrically) {
  // Each thread contributes 4 local states; the lock token couples them:
  // |states| = sum_{k=0..1} C(n,k)*3^? — just check monotone growth and
  // the exact closed form for small n against enumeration.
  std::vector<std::size_t> counts;
  for (unsigned n = 1; n <= 5; ++n) {
    auto tl = buildThreadLockNet(n, NotifyModel::Free);
    auto r = petri::reachable(tl.net, tl.initial);
    ASSERT_TRUE(r.complete);
    counts.push_back(r.stateCount());
  }
  for (std::size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GT(counts[i], counts[i - 1]);
  }
  // n=1: 4 states (verified above); the sequence is a regression pin.
  EXPECT_EQ(counts[0], 4u);
}

TEST(ThreadLockNet, GatedModelHasTheLostNotifyDeadlock) {
  // With notify gated on another thread being inside the monitor, the
  // marking "every thread in D" is reachable and dead: the FF-T5
  // everybody-waits failure, found by exhaustive model analysis.
  auto tl = buildThreadLockNet(2, NotifyModel::Gated);
  auto r = petri::reachable(tl.net, tl.initial);
  ASSERT_TRUE(r.complete);
  ASSERT_FALSE(r.deadStates.empty());
  bool allWaitingDead = false;
  for (std::size_t s : r.deadStates) {
    allWaitingDead = allWaitingDead || tl.allWaiting(r.states[s]);
  }
  EXPECT_TRUE(allWaitingDead);
}

TEST(ThreadLockNet, GatedDeadlockHasAWitnessPath) {
  auto tl = buildThreadLockNet(2, NotifyModel::Gated);
  auto r = petri::reachable(tl.net, tl.initial);
  std::size_t target = 0;
  for (std::size_t s : r.deadStates) {
    if (tl.allWaiting(r.states[s])) {
      target = s;
      break;
    }
  }
  ASSERT_NE(target, 0u);
  auto path = petri::shortestPathTo(tl.net, r, target);
  // Replay the witness: it must be a legal firing sequence ending dead.
  Marking m = tl.initial;
  for (auto t : path) m = tl.net.fire(t, m);
  EXPECT_EQ(m, r.states[target]);
  EXPECT_TRUE(tl.net.enabledSet(m).empty());
  // Minimal witness: both threads enter and wait: T1,T2,T3 each = 6 firings.
  EXPECT_EQ(path.size(), 6u);
}

TEST(Reachability, StateCapReportsIncomplete) {
  auto tl = buildThreadLockNet(4, NotifyModel::Free);
  auto r = petri::reachable(tl.net, tl.initial, /*maxStates=*/10);
  EXPECT_FALSE(r.complete);
  EXPECT_LE(r.stateCount(), 10u);
}

TEST(TraceValidator, MonitorTraceIsALegalFiringSequence) {
  // Run a real contended wait/notify scenario on the monitor substrate and
  // machine-check the recorded trace against the Figure-1 net.
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, 1);
  confail::monitor::Monitor m(rt, "m");
  bool go = false;
  rt.spawn("w1", [&] {
    confail::monitor::Synchronized sync(m);
    while (!go) m.wait();
  });
  rt.spawn("w2", [&] {
    confail::monitor::Synchronized sync(m);
    while (!go) m.wait();
  });
  rt.spawn("n", [&] {
    for (int i = 0; i < 8; ++i) rt.schedulePoint();
    confail::monitor::Synchronized sync(m);
    go = true;
    m.notifyAll();
  });
  ASSERT_EQ(s.run().outcome, sched::Outcome::Completed);
  auto v = petri::validateTraceAgainstModel(trace, m.id());
  EXPECT_TRUE(v.ok) << v.message;
  EXPECT_GT(v.eventsChecked, 10u);
}

TEST(TraceValidator, CorruptedTraceIsRejected) {
  // Hand-build an illegal sequence: a lock acquired twice without release.
  ev::Trace trace;
  auto push = [&trace](ev::ThreadId t, ev::EventKind k) {
    ev::Event e;
    e.thread = t;
    e.monitor = 0;
    e.kind = k;
    trace.record(e);
  };
  push(0, ev::EventKind::LockRequest);
  push(0, ev::EventKind::LockAcquire);
  push(1, ev::EventKind::LockRequest);
  push(1, ev::EventKind::LockAcquire);  // illegal: lock token consumed
  auto v = petri::validateTraceAgainstModel(trace, 0);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.message.find("T2"), std::string::npos);
}

TEST(TraceValidator, EmptyProjectionIsTriviallyValid) {
  ev::Trace trace;
  auto v = petri::validateTraceAgainstModel(trace, 3);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.eventsChecked, 0u);
}

// ---------------------------------------------------------------------------
// Automatic P-invariant computation (invariants.hpp).
// ---------------------------------------------------------------------------

#include "confail/petri/invariants.hpp"

TEST(Invariants, HandWrittenInvariantRecognized) {
  auto tl = buildThreadLockNet(3, NotifyModel::Free);
  std::vector<long long> lockInv(tl.net.placeCount(), 0);
  for (int w : tl.lockInvariantWeights()) {
    static std::size_t i = 0;
    (void)w;
    ++i;
  }
  // Convert the int weights to long long.
  auto wi = tl.lockInvariantWeights();
  std::vector<long long> w(wi.begin(), wi.end());
  EXPECT_TRUE(petri::isPInvariant(tl.net, w));
  // A wrong weighting is rejected.
  w[tl.A[0]] += 1;
  EXPECT_FALSE(petri::isPInvariant(tl.net, w));
}

TEST(Invariants, ComputedBasisHasExpectedDimension) {
  // The N-thread lock net has exactly N+1 independent P-invariants:
  // one conservation per thread plus the mutual-exclusion invariant.
  for (unsigned n = 1; n <= 4; ++n) {
    auto tl = buildThreadLockNet(n, NotifyModel::Free);
    auto basis = petri::computePInvariants(tl.net);
    EXPECT_EQ(basis.size(), n + 1) << n << " threads";
    for (const auto& y : basis) {
      EXPECT_TRUE(petri::isPInvariant(tl.net, y));
    }
  }
}

TEST(Invariants, ComputedInvariantsHoldOverReachability) {
  auto tl = buildThreadLockNet(3, NotifyModel::Free);
  auto r = petri::reachable(tl.net, tl.initial);
  for (const auto& y : petri::computePInvariants(tl.net)) {
    std::vector<int> w(y.begin(), y.end());
    EXPECT_TRUE(petri::holdsPInvariant(r, w));
  }
}

TEST(Invariants, KnownInvariantsLieInComputedSpan) {
  // Verify the hand-written invariants are linear combinations of the
  // computed basis by checking token sums over reachable markings agree
  // (sufficient here because the computed basis spans the full null space
  // and the hand-written vectors ARE invariants).
  auto tl = buildThreadLockNet(2, NotifyModel::Free);
  auto wi = tl.lockInvariantWeights();
  std::vector<long long> w(wi.begin(), wi.end());
  EXPECT_TRUE(petri::isPInvariant(tl.net, w));
  for (unsigned i = 0; i < 2; ++i) {
    auto ci = tl.threadConservationWeights(i);
    std::vector<long long> c(ci.begin(), ci.end());
    EXPECT_TRUE(petri::isPInvariant(tl.net, c));
  }
}

TEST(Invariants, GatedNetAlsoConservesLockToken) {
  auto tl = buildThreadLockNet(3, NotifyModel::Gated);
  auto basis = petri::computePInvariants(tl.net);
  EXPECT_GE(basis.size(), 4u);
  auto wi = tl.lockInvariantWeights();
  std::vector<long long> w(wi.begin(), wi.end());
  EXPECT_TRUE(petri::isPInvariant(tl.net, w));
}

TEST(Invariants, NetWithNoInvariantsYieldsEmptyBasis) {
  // A pure source transition destroys every conservation law.
  Net n;
  auto p0 = n.addPlace("p0");
  n.addTransition("source", {}, {{p0, 1}});
  auto basis = petri::computePInvariants(n);
  EXPECT_TRUE(basis.empty());
}

TEST(Invariants, WeightedNetInvariant) {
  // t: 2a -> b ; invariant y = (1, 2): 1*a + 2*b? fire consumes 2a (-2)
  // produces 1b (+2) -> conserved.
  Net n;
  auto pa = n.addPlace("a");
  auto pb = n.addPlace("b");
  n.addTransition("t", {{pa, 2}}, {{pb, 1}});
  auto basis = petri::computePInvariants(n);
  ASSERT_EQ(basis.size(), 1u);
  EXPECT_TRUE(petri::isPInvariant(n, basis[0]));
  // The basis vector must be proportional to (1, 2).
  EXPECT_EQ(basis[0][pa] * 2, basis[0][pb]);
}

TEST(Invariants, TInvariantRecognizesTheCriticalSectionCycle) {
  // One thread: firing T1, T2, T4 once each returns to the initial
  // marking; so does the waiting pass T1, T2, T3, T5, T2, T4 (T2 twice).
  auto tl = buildThreadLockNet(1, NotifyModel::Free);
  std::vector<long long> plainCycle(tl.net.transitionCount(), 0);
  plainCycle[tl.T1[0][0]] = 1;
  plainCycle[tl.T2[0][0]] = 1;
  plainCycle[tl.T4[0][0]] = 1;
  EXPECT_TRUE(petri::isTInvariant(tl.net, plainCycle));

  std::vector<long long> waitingPass(tl.net.transitionCount(), 0);
  waitingPass[tl.T1[0][0]] = 1;
  waitingPass[tl.T2[0][0]] = 2;  // acquire + re-acquire after the wait
  waitingPass[tl.T3[0][0]] = 1;
  waitingPass[tl.T5free[0][0]] = 1;
  waitingPass[tl.T4[0][0]] = 1;
  EXPECT_TRUE(petri::isTInvariant(tl.net, waitingPass));

  // A non-cycle (wait without wake) is rejected.
  std::vector<long long> broken(tl.net.transitionCount(), 0);
  broken[tl.T1[0][0]] = 1;
  broken[tl.T2[0][0]] = 1;
  broken[tl.T3[0][0]] = 1;
  EXPECT_FALSE(petri::isTInvariant(tl.net, broken));
}

TEST(Invariants, ComputedTInvariantBasisSpansBothCycles) {
  auto tl = buildThreadLockNet(2, NotifyModel::Free);
  auto basis = petri::computeTInvariants(tl.net);
  // Per thread: plain cycle + waiting pass = 2 independent T-invariants.
  EXPECT_EQ(basis.size(), 4u);
  for (const auto& x : basis) {
    EXPECT_TRUE(petri::isTInvariant(tl.net, x));
  }
}

TEST(Invariants, TInvariantFiringSequenceActuallyCycles) {
  // Execute the waiting-pass T-invariant as a concrete firing sequence and
  // observe the initial marking restored.
  auto tl = buildThreadLockNet(1, NotifyModel::Free);
  Marking m = tl.initial;
  for (auto t : {tl.T1[0][0], tl.T2[0][0], tl.T3[0][0], tl.T5free[0][0],
                 tl.T2[0][0], tl.T4[0][0]}) {
    ASSERT_TRUE(tl.net.enabled(t, m)) << tl.net.transitionName(t);
    m = tl.net.fire(t, m);
  }
  EXPECT_EQ(m, tl.initial);
}

TEST(ModelCrossCheck, ExhaustiveExplorationVisitsEveryReachableNetState) {
  // Cross-validation of substrate vs model: exhaustively explore a
  // two-thread lock/unlock program on the monitor substrate, map every
  // trace through the Figure-1 net, and verify that the set of net
  // markings visited equals the reachable set of the corresponding
  // sub-net (threads that never wait: places A, B, C + E).
  using MarkingSet = std::set<petri::Marking>;
  MarkingSet visited;

  sched::ExhaustiveExplorer::Options opts;
  opts.maxRuns = 20000;
  sched::ExhaustiveExplorer explorer(opts);
  auto stats = explorer.explore(
      [&visited](sched::VirtualScheduler& s) {
        struct State {
          ev::Trace trace;
          Runtime rt;
          confail::monitor::Monitor m;
          explicit State(sched::VirtualScheduler& sc)
              : rt(trace, sc, 1), m(rt, "m") {}
        };
        auto st = std::make_shared<State>(s);
        auto record = [st, &visited] {
          // At thread end, replay this run's trace through the net and
          // collect every intermediate marking.
          auto tl = buildThreadLockNet(2, NotifyModel::Free);
          petri::Marking m = tl.initial;
          visited.insert(m);
          std::map<ev::ThreadId, unsigned> index;
          for (const ev::Event& e : st->trace.events()) {
            if (!ev::isModelTransition(e.kind)) continue;
            if (!index.count(e.thread)) {
              unsigned idx = static_cast<unsigned>(index.size());
              index[e.thread] = idx;
            }
            unsigned i = index[e.thread];
            petri::TransitionId t = 0;
            switch (e.kind) {
              case ev::EventKind::LockRequest: t = tl.T1[i][0]; break;
              case ev::EventKind::LockAcquire: t = tl.T2[i][0]; break;
              case ev::EventKind::WaitBegin: t = tl.T3[i][0]; break;
              case ev::EventKind::LockRelease: t = tl.T4[i][0]; break;
              default: t = tl.T5free[i][0]; break;
            }
            m = tl.net.fire(t, m);
            visited.insert(m);
          }
        };
        for (int t = 0; t < 2; ++t) {
          st->rt.spawn(confail::numbered("t", t), [st] {
            confail::monitor::Synchronized sync(st->m);
            // A schedule point inside the critical section makes the
            // "one in C, the other requesting" markings reachable.
            st->rt.schedulePoint();
          });
        }
        // Record after both threads by spawning a final observer is racy;
        // instead record from the second thread's end via a third thread
        // joined on both.
        st->rt.spawn("observer", [st, record] {
          st->rt.join(0);
          st->rt.join(1);
          record();
        });
      },
      nullptr);
  ASSERT_TRUE(stats.exhausted);
  ASSERT_EQ(stats.completed, stats.runs);

  // Reachable markings of the no-wait submodel: restrict the full net's
  // reachable set to markings with D empty and no T3/T5 fired — i.e.
  // enumerate the net but prune D: equivalently filter full reachability.
  auto tl = buildThreadLockNet(2, NotifyModel::Free);
  auto r = petri::reachable(tl.net, tl.initial);
  MarkingSet expected;
  for (const auto& m : r.states) {
    if (m[tl.D[0][0]] != 0 || m[tl.D[1][0]] != 0) continue;  // nobody waits here
    if (m[tl.B[0][0]] != 0 && m[tl.B[1][0]] != 0) continue;
    if (m[tl.B[0][0]] != 0 && m[tl.C[1][0]] != 0) continue;
    // ^ Two model-only markings: the substrate acquires atomically when the
    //   lock is free (T1 immediately followed by T2 in the trace), so
    //   (a) two threads are never simultaneously observable in B, and
    //   (b) under the replay's first-appearance thread numbering, net
    //   thread 0 is the first requester — who always acquired instantly —
    //   so "0 in B while 1 already in C" cannot be observed either.
    expected.insert(m);
  }
  // Every marking the substrate visits is model-reachable, and it visits
  // every marking the model allows except the documented both-in-B case.
  EXPECT_EQ(visited, expected);
  for (const auto& m : visited) {
    EXPECT_TRUE(std::find(r.states.begin(), r.states.end(), m) !=
                r.states.end());
  }
}

// ---------------------------------------------------------------------------
// N x M nets, packed markings, hashing, parent links (this PR's additions).
// ---------------------------------------------------------------------------

#include "confail/petri/packed_marking.hpp"
#include "confail/support/flat_table.hpp"

TEST(ThreadLockNetNM, MultiMonitorConstruction) {
  auto tl = buildThreadLockNet(3, 2, NotifyModel::Gated);
  EXPECT_EQ(tl.threads, 3u);
  EXPECT_EQ(tl.monitors, 2u);
  // 3 * (A + 2*(B,C,D)) + 2 E places.
  EXPECT_EQ(tl.net.placeCount(), 3u * 7u + 2u);
  // Multi-monitor names carry the _m suffix; single-monitor names do not.
  EXPECT_NE(tl.net.describe().find("T1_0_m1"), std::string::npos);
  auto single = buildThreadLockNet(2, NotifyModel::Free);
  EXPECT_EQ(single.net.describe().find("_m0"), std::string::npos);
}

TEST(ThreadLockNetNM, InvariantBasisIsThreadsPlusMonitors) {
  // One conservation law per thread plus one lock invariant per monitor.
  for (unsigned n = 1; n <= 3; ++n) {
    for (unsigned mth = 1; mth <= 3; ++mth) {
      auto tl = buildThreadLockNet(n, mth, NotifyModel::Free);
      auto basis = petri::computePInvariants(tl.net);
      EXPECT_EQ(basis.size(), n + mth) << n << "x" << mth;
      for (unsigned m = 0; m < mth; ++m) {
        auto wi = tl.lockInvariantWeights(m);
        std::vector<long long> w(wi.begin(), wi.end());
        EXPECT_TRUE(petri::isPInvariant(tl.net, w));
      }
    }
  }
}

TEST(ThreadLockNetNM, MonitorsAreIndependentUntilAThreadCouplesThem) {
  // 2 threads x 2 monitors, free: each thread engages one monitor at a
  // time, so the reachable count is NOT the square of the 1-monitor count
  // (a thread in monitor 0 cannot also be in monitor 1).
  auto one = petri::reachable(buildThreadLockNet(2, 1, NotifyModel::Free).net,
                              buildThreadLockNet(2, 1, NotifyModel::Free)
                                  .initial);
  auto two = petri::reachable(buildThreadLockNet(2, 2, NotifyModel::Free).net,
                              buildThreadLockNet(2, 2, NotifyModel::Free)
                                  .initial);
  ASSERT_TRUE(one.complete);
  ASSERT_TRUE(two.complete);
  EXPECT_GT(two.stateCount(), one.stateCount());
  EXPECT_LT(two.stateCount(), one.stateCount() * one.stateCount());
}

TEST(PackedMarking, RoundTripsEveryReachableMarking) {
  auto tl = buildThreadLockNet(3, 2, NotifyModel::Gated);
  auto r = petri::reachable(tl.net, tl.initial);
  ASSERT_TRUE(r.complete);
  for (const Marking& m : r.states) {
    auto packed = petri::PackedMarking<1>::encode(m);
    ASSERT_TRUE(packed.has_value());
    EXPECT_EQ(packed->decode(m.size()), m);
  }
}

TEST(PackedMarking, RejectsMultiTokenPlaces) {
  Marking m{2, 0, 1};
  EXPECT_FALSE(petri::PackedMarking<1>::encode(m).has_value());
}

TEST(PackedMarking, WordCountMatchesPlaceCount) {
  EXPECT_EQ(petri::packedWords(1), 1u);
  EXPECT_EQ(petri::packedWords(64), 1u);
  EXPECT_EQ(petri::packedWords(65), 2u);
  EXPECT_EQ(petri::packedWords(256), 4u);
}

TEST(FlatTable, MultiWordKeysInsertAndFind) {
  confail::FlatMapN<4> map(4);
  std::array<std::uint64_t, 4> a{1, 2, 3, 4};
  std::array<std::uint64_t, 4> b{1, 2, 3, 5};
  EXPECT_EQ(map.find(a), confail::FlatMapN<4>::kNoValue);
  EXPECT_TRUE(map.findOrInsert(a, 7).second);
  EXPECT_FALSE(map.findOrInsert(a, 9).second);  // already present, keeps 7
  EXPECT_EQ(map.find(a), 7u);
  EXPECT_EQ(map.find(b), confail::FlatMapN<4>::kNoValue);
  // Grow path: push well past the initial capacity.
  for (std::uint64_t i = 0; i < 5000; ++i) {
    map.findOrInsert({i, i * 3, i ^ 0xff, ~i}, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(map.find(a), 7u);
  EXPECT_EQ(map.find({123, 369, 123 ^ 0xff, ~std::uint64_t{123}}), 123u);
}

TEST(MarkingHash, NoCollisionsAcrossReachableSet) {
  // splitmix64 avalanche: every reachable marking of a mid-size net gets a
  // distinct hash.  Not guaranteed in general, but a collision here (2748
  // states into 64 bits) would flag a broken mixer with near certainty.
  auto tl = buildThreadLockNet(5, NotifyModel::Free);
  auto r = petri::reachable(tl.net, tl.initial);
  ASSERT_TRUE(r.complete);
  petri::MarkingHash h;
  std::set<std::size_t> hashes;
  for (const Marking& m : r.states) hashes.insert(h(m));
  EXPECT_EQ(hashes.size(), r.stateCount());
}

TEST(Reachability, ParentLinksReconstructEveryState) {
  auto tl = buildThreadLockNet(3, NotifyModel::Gated);
  auto r = petri::reachable(tl.net, tl.initial);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(r.parents.size(), r.stateCount());
  for (std::size_t s = 1; s < r.stateCount(); ++s) {
    auto path = petri::shortestPathTo(tl.net, r, s);
    Marking m = tl.initial;
    for (auto t : path) {
      ASSERT_TRUE(tl.net.enabled(t, m));
      m = tl.net.fire(t, m);
    }
    EXPECT_EQ(m, r.states[s]);
  }
  EXPECT_TRUE(petri::shortestPathTo(tl.net, r, 0).empty());
}

TEST(Reachability, FreeStateCountClosedForm) {
  // Free N x 1: each thread is in {A, B, D} freely plus at most one thread
  // in C: 3^N + N * 3^(N-1) states.
  for (unsigned n = 1; n <= 6; ++n) {
    auto tl = buildThreadLockNet(n, NotifyModel::Free);
    auto r = petri::reachable(tl.net, tl.initial);
    ASSERT_TRUE(r.complete);
    std::size_t pow3 = 1;
    for (unsigned k = 1; k < n; ++k) pow3 *= 3;
    EXPECT_EQ(r.stateCount(), pow3 * 3 + n * pow3) << n << " threads";
  }
}

TEST(Reachability, PackedAndGenericEnginesAgree) {
  // Force the generic fallback with a net that is not 1-bounded and check
  // the packed path on one that is.
  Net n;
  auto p0 = n.addPlace("p0");
  auto p1 = n.addPlace("p1");
  n.addTransition("t", {{p0, 1}}, {{p1, 2}});
  auto r = petri::reachable(n, Marking{1, 0});
  EXPECT_EQ(r.stateCount(), 2u);  // {1,0} and {0,2} — generic engine
  EXPECT_EQ(r.parents.size(), 2u);

  auto tl = buildThreadLockNet(4, NotifyModel::Gated);
  petri::ReachOptions opts;
  auto packed = petri::reachable(tl.net, tl.initial, opts);
  auto legacy = petri::reachable(tl.net, tl.initial);
  EXPECT_EQ(packed.stateCount(), legacy.stateCount());
  EXPECT_EQ(packed.edgeCount(), legacy.edgeCount());
  EXPECT_EQ(packed.deadStates, legacy.deadStates);
}
