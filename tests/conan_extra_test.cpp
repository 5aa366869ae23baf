// Second wave of ConAn driver tests: trace bracketing via ClockAwait,
// expectWait propagation, report rendering, window semantics at the
// boundaries, and mixed pass/fail aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "confail/clock/abstract_clock.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/conan/test_driver.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/support/text.hpp"

namespace ev = confail::events;
namespace sched = confail::sched;
using confail::clock::AbstractClock;
using confail::components::ProducerConsumer;
using confail::conan::Call;
using confail::conan::TestDriver;
using confail::monitor::Runtime;

namespace {
struct Harness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
  AbstractClock clk{rt};
  TestDriver driver{rt, clk};
};
}  // namespace

TEST(ConanExtra, EveryCallEmitsItsBracketingClockAwait) {
  Harness h;
  h.driver.addVoid("a", 1, "one", [] {});
  h.driver.addVoid("a", 3, "two", [] {});
  h.driver.addVoid("b", 2, "three", [] {});
  auto res = h.driver.execute();
  ASSERT_EQ(res.run.outcome, sched::Outcome::Completed);
  // Three awaits with the scripted target ticks, regardless of whether the
  // await had to block (tick 3 after tick 1 on thread "a" blocks; the
  // others may be immediate) — the classifier depends on this bracketing.
  std::vector<std::uint64_t> targets;
  for (const auto& e : h.trace.events()) {
    if (e.kind == ev::EventKind::ClockAwait) targets.push_back(e.aux);
  }
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ConanExtra, ExpectWaitIsCopiedIntoReports) {
  Harness h;
  Call c;
  c.thread = "t";
  c.startTick = 1;
  c.label = std::string("x");  // not `= "x"`: GCC 12 -O3 -Wrestrict
  c.action = [] { return std::int64_t{0}; };
  c.expectWait = true;
  h.driver.add(c);
  h.driver.addVoid("t", 2, "y", [] {});
  auto res = h.driver.execute();
  ASSERT_EQ(res.reports.size(), 2u);
  ASSERT_TRUE(res.reports[0].expectWait.has_value());
  EXPECT_TRUE(*res.reports[0].expectWait);
  EXPECT_FALSE(res.reports[1].expectWait.has_value());
}

TEST(ConanExtra, WindowBoundariesAreInclusive) {
  Harness h;
  h.driver.addVoid("t", 2, "exact", [] {}, {{2, 2}});
  h.driver.addVoid("t", 3, "lo-edge", [] {}, {{3, 5}});
  h.driver.addVoid("t", 7, "hi-edge", [] {}, {{5, 7}});
  auto res = h.driver.execute();
  EXPECT_TRUE(res.allPassed()) << res.describe();
}

TEST(ConanExtra, DescribeRendersPassAndFailLines) {
  Harness h;
  ProducerConsumer pc(h.rt);
  h.driver.addVoid("p", 1, "send(q)", [&pc] { pc.send("q"); }, {{1, 1}});
  Call bad;
  bad.thread = "c";
  bad.startTick = 2;
  bad.label = "receive()";
  bad.action = [&pc]() -> std::int64_t { return pc.receive(); };
  bad.expectedValue = 'z';  // wrong
  h.driver.add(bad);
  auto res = h.driver.execute();
  std::string text = res.describe();
  EXPECT_NE(text.find("PASS"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("wrong value"), std::string::npos);
  EXPECT_NE(text.find("1 FAILED"), std::string::npos);
  EXPECT_EQ(res.failures(), 1u);
}

TEST(ConanExtra, HangReportSaysHung) {
  Harness h;
  ProducerConsumer pc(h.rt);
  Call r;
  r.thread = "c";
  r.startTick = 1;
  r.label = "receive()";
  r.action = [&pc]() -> std::int64_t { return pc.receive(); };
  h.driver.add(r);  // nobody sends: hangs, and that was not expected
  auto res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, sched::Outcome::Deadlock);
  std::string text = res.reports[0].describe();
  EXPECT_NE(text.find("did not complete"), std::string::npos);
  EXPECT_NE(text.find("(hung)"), std::string::npos);
}

TEST(ConanExtra, ZeroTickCallsRunImmediately) {
  Harness h;
  std::vector<int> order;
  h.driver.addVoid("a", 0, "first", [&order] { order.push_back(1); });
  h.driver.addVoid("a", 0, "second", [&order] { order.push_back(2); });
  auto res = h.driver.execute();
  ASSERT_EQ(res.run.outcome, sched::Outcome::Completed);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(res.reports[0].completedAtTick, 0u);
}

TEST(ConanExtra, ManyThreadsManyTicksCompleteInTickOrder) {
  Harness h;
  std::vector<std::string> log;
  for (int t = 0; t < 5; ++t) {
    for (int call = 0; call < 3; ++call) {
      std::uint64_t tick = static_cast<std::uint64_t>(3 * t + call + 1);
      h.driver.addVoid(confail::numbered("t", t), tick,
                       confail::numbered("c", tick), [&log, tick] {
                         log.push_back(std::to_string(tick));
                       });
    }
  }
  auto res = h.driver.execute();
  ASSERT_EQ(res.run.outcome, sched::Outcome::Completed);
  ASSERT_EQ(log.size(), 15u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(std::stoul(log[i - 1]), std::stoul(log[i]));
  }
}
