// Unit tests for the ConAn abstract clock: await/tick/time semantics,
// auto-advance idle handling, event emission.
#include <gtest/gtest.h>

#include <vector>

#include "confail/clock/abstract_clock.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace ev = confail::events;
using confail::clock::AbstractClock;
using confail::monitor::Runtime;
namespace sched = confail::sched;
using sched::Outcome;

namespace {
struct Harness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
  AbstractClock clk{rt};
};
}  // namespace

TEST(AbstractClock, StartsAtZero) {
  Harness h;
  EXPECT_EQ(h.clk.time(), 0u);
}

TEST(AbstractClock, AwaitPastTimeReturnsImmediately) {
  Harness h;
  bool ran = false;
  h.rt.spawn("t", [&] {
    h.clk.await(0);
    ran = true;
  });
  EXPECT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_TRUE(ran);
}

TEST(AbstractClock, AutoAdvanceWakesAwaitersInTimeOrder) {
  Harness h;
  std::vector<int> order;
  h.rt.spawn("late", [&] {
    h.clk.await(5);
    order.push_back(5);
  });
  h.rt.spawn("early", [&] {
    h.clk.await(2);
    order.push_back(2);
  });
  auto r = h.sched.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(order, (std::vector<int>{2, 5}));
  EXPECT_EQ(h.clk.time(), 5u);
}

TEST(AbstractClock, AutoAdvanceJumpsToEarliestTarget) {
  Harness h;
  std::uint64_t observed = 0;
  h.rt.spawn("t", [&] {
    h.clk.await(7);
    observed = h.clk.time();
  });
  EXPECT_EQ(h.sched.run().outcome, Outcome::Completed);
  EXPECT_EQ(observed, 7u);  // jumped straight to 7, no intermediate ticks
}

TEST(AbstractClock, ManualTickWakesDueAwaiters) {
  Harness h;
  h.clk.setAutoAdvance(false);
  bool woke = false;
  h.rt.spawn("sleeper", [&] {
    h.clk.await(1);
    woke = true;
  });
  h.rt.spawn("ticker", [&] {
    h.rt.schedulePoint();  // let sleeper park first
    h.clk.tick();
  });
  auto r = h.sched.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(woke);
  EXPECT_EQ(h.clk.time(), 1u);
}

TEST(AbstractClock, WithoutAutoAdvanceAwaitersDeadlock) {
  Harness h;
  h.clk.setAutoAdvance(false);
  h.rt.spawn("stuck", [&] { h.clk.await(3); });
  auto r = h.sched.run();
  ASSERT_EQ(r.outcome, Outcome::Deadlock);
  ASSERT_EQ(r.blocked.size(), 1u);
  EXPECT_EQ(r.blocked[0].kind, sched::BlockKind::ClockAwait);
  EXPECT_EQ(r.blocked[0].resource, 3u);
}

TEST(AbstractClock, EmitsAwaitAndTickEvents) {
  Harness h;
  h.rt.spawn("t", [&] { h.clk.await(2); });
  h.sched.run();
  std::size_t awaits = 0, ticks = 0;
  for (const auto& e : h.trace.events()) {
    if (e.kind == ev::EventKind::ClockAwait) ++awaits;
    if (e.kind == ev::EventKind::ClockTick) ++ticks;
  }
  EXPECT_EQ(awaits, 1u);
  EXPECT_GE(ticks, 1u);
}

TEST(AbstractClock, InterleavesWithMonitorBlocking) {
  // A waiter parks on a monitor; the clock must not advance past a
  // runnable thread: only when all threads are blocked does time move.
  Harness h;
  confail::monitor::Monitor m(h.rt, "m");
  std::vector<std::string> sequence;
  bool ready = false;
  h.rt.spawn("waiter", [&] {
    confail::monitor::Synchronized sync(m);
    while (!ready) m.wait();
    sequence.push_back("woken@" + std::to_string(h.clk.time()));
  });
  h.rt.spawn("timed", [&] {
    h.clk.await(3);
    confail::monitor::Synchronized sync(m);
    ready = true;
    sequence.push_back("notify@" + std::to_string(h.clk.time()));
    m.notifyAll();
  });
  auto r = h.sched.run();
  ASSERT_EQ(r.outcome, Outcome::Completed);
  ASSERT_EQ(sequence.size(), 2u);
  EXPECT_EQ(sequence[0], "notify@3");
  EXPECT_EQ(sequence[1], "woken@3");
}
