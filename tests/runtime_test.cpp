// Tests for the Runtime bridge itself: id registration, method-scope
// stacks and event attribution, spawn bookkeeping, join semantics and the
// seeded policy RNG.
#include <gtest/gtest.h>

#include <string>

#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace ev = confail::events;
namespace sched = confail::sched;
using confail::monitor::MethodScope;
using confail::monitor::Runtime;

namespace {
struct Harness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
};
}  // namespace

TEST(Runtime, RegistersDenseIdsAndNames) {
  Harness h;
  auto m0 = h.rt.registerMonitor("alpha");
  auto m1 = h.rt.registerMonitor("beta");
  auto v0 = h.rt.registerVar("x");
  auto f0 = h.rt.registerMethod("m.f");
  EXPECT_EQ(m0, 0u);
  EXPECT_EQ(m1, 1u);
  EXPECT_EQ(v0, 0u);
  EXPECT_EQ(f0, 0u);
  EXPECT_EQ(h.trace.monitorName(m1), "beta");
  EXPECT_EQ(h.trace.varName(v0), "x");
  EXPECT_EQ(h.trace.methodName(f0), "m.f");
}

TEST(Runtime, MethodScopeTagsEventsWithInnermostMethod) {
  Harness h;
  auto outer = h.rt.registerMethod("outer");
  auto inner = h.rt.registerMethod("inner");
  auto var = h.rt.registerVar("v");
  h.rt.spawn("t", [&] {
    MethodScope a(h.rt, outer);
    h.rt.emit(ev::EventKind::Read, ev::kNoMonitor, var);
    {
      MethodScope b(h.rt, inner);
      h.rt.emit(ev::EventKind::Write, ev::kNoMonitor, var);
    }
    h.rt.emit(ev::EventKind::Read, ev::kNoMonitor, var);
  });
  ASSERT_TRUE(h.sched.run().ok());
  std::vector<ev::MethodId> accessMethods;
  for (const auto& e : h.trace.events()) {
    if (e.kind == ev::EventKind::Read || e.kind == ev::EventKind::Write) {
      accessMethods.push_back(e.method);
    }
  }
  EXPECT_EQ(accessMethods,
            (std::vector<ev::MethodId>{outer, inner, outer}));
}

TEST(Runtime, SpawnEmitsLifecycleEvents) {
  Harness h;
  h.rt.spawn("parent", [&] {
    h.rt.spawn("child", [] {});
  });
  ASSERT_TRUE(h.sched.run().ok());
  std::size_t starts = 0, ends = 0, spawns = 0;
  for (const auto& e : h.trace.events()) {
    starts += e.kind == ev::EventKind::ThreadStart;
    ends += e.kind == ev::EventKind::ThreadEnd;
    spawns += e.kind == ev::EventKind::ThreadSpawn;
  }
  EXPECT_EQ(starts, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_EQ(spawns, 1u);  // only the in-run spawn has a logical parent
  EXPECT_EQ(h.trace.threadName(0), "parent");
  EXPECT_EQ(h.trace.threadName(1), "child");
}

TEST(Runtime, JoinOrdersParentAfterChild) {
  Harness h;
  std::vector<int> order;
  auto worker = h.rt.spawn("worker", [&] {
    for (int i = 0; i < 3; ++i) h.rt.schedulePoint();
    order.push_back(1);
  });
  h.rt.spawn("joiner", [&] {
    h.rt.join(worker);
    order.push_back(2);
  });
  ASSERT_TRUE(h.sched.run().ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Runtime, DeterministicPolicyRngPerSeed) {
  auto draw = [](std::uint64_t seed) {
    ev::Trace trace;
    sched::RoundRobinStrategy strategy;
    sched::VirtualScheduler s(strategy);
    Runtime rt(trace, s, seed);
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 10; ++i) values.push_back(rt.rngBelow(1000));
    return values;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
}

TEST(Runtime, EmitForAttachesTargetThreadsMethod) {
  Harness h;
  auto method = h.rt.registerMethod("target.method");
  ev::ThreadId waiterId = 0;
  h.rt.spawn("waiter", [&] {
    MethodScope scope(h.rt, method);
    for (int i = 0; i < 4; ++i) h.rt.schedulePoint();
  });
  h.rt.spawn("emitter", [&] {
    // Emit an event on behalf of the waiter while it sits in its method.
    h.rt.emitFor(waiterId, ev::EventKind::Notified, ev::kNoMonitor, 0);
  });
  ASSERT_TRUE(h.sched.run().ok());
  for (const auto& e : h.trace.events()) {
    if (e.kind == ev::EventKind::Notified) {
      EXPECT_EQ(e.thread, waiterId);
      EXPECT_EQ(e.method, method);
    }
  }
}
