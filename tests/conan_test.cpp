// Unit tests for the ConAn-style deterministic test driver: scripted call
// ordering, completion-tick checking, value checking, expectHang handling —
// exercised against the real ProducerConsumer and seeded mutants.
#include <gtest/gtest.h>

#include "confail/clock/abstract_clock.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/conan/test_driver.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace ev = confail::events;
namespace sched = confail::sched;
using confail::clock::AbstractClock;
using confail::components::ProducerConsumer;
using confail::conan::Call;
using confail::conan::Results;
using confail::conan::TestDriver;
using confail::monitor::Runtime;
using sched::Outcome;

namespace {
struct Harness {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
  AbstractClock clk{rt};
  TestDriver driver{rt, clk};
};

Call receiveCall(ProducerConsumer& pc, std::string thread, std::uint64_t at,
                 char expect, std::uint64_t completeLo, std::uint64_t completeHi) {
  Call c;
  c.thread = std::move(thread);
  c.startTick = at;
  c.label = "receive()";
  c.action = [&pc]() -> std::int64_t { return pc.receive(); };
  c.completionWindow = {{completeLo, completeHi}};
  c.expectedValue = static_cast<std::int64_t>(expect);
  return c;
}
}  // namespace

TEST(TestDriver, OrderedSendReceivePasses) {
  Harness h;
  ProducerConsumer pc(h.rt);
  h.driver.addVoid("producer", 1, "send(ab)", [&pc] { pc.send("ab"); },
                   {{1, 1}});
  h.driver.add(receiveCall(pc, "consumer", 2, 'a', 2, 2));
  h.driver.add(receiveCall(pc, "consumer", 3, 'b', 3, 3));
  Results res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, Outcome::Completed);
  EXPECT_TRUE(res.allPassed()) << res.describe();
}

TEST(TestDriver, ReceiveBeforeSendIsDelayedUntilNotified) {
  // The consumer calls receive() at tick 1 (buffer empty: suspends, T3);
  // the producer sends at tick 3; the receive completes at tick 3 (T5, T2).
  Harness h;
  ProducerConsumer pc(h.rt);
  Call r = receiveCall(pc, "consumer", 1, 'x', 3, 3);
  r.expectWait = true;
  h.driver.add(r);
  h.driver.addVoid("producer", 3, "send(x)", [&pc] { pc.send("x"); }, {{3, 3}});
  Results res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, Outcome::Completed);
  EXPECT_TRUE(res.allPassed()) << res.describe();
}

TEST(TestDriver, WrongExpectedValueFails) {
  Harness h;
  ProducerConsumer pc(h.rt);
  h.driver.addVoid("producer", 1, "send(z)", [&pc] { pc.send("z"); });
  h.driver.add(receiveCall(pc, "consumer", 2, 'q', 2, 2));  // expect wrong char
  Results res = h.driver.execute();
  EXPECT_FALSE(res.allPassed());
  EXPECT_EQ(res.failures(), 1u);
  EXPECT_FALSE(res.reports[1].valueOk);
  EXPECT_TRUE(res.reports[1].timeOk);
}

TEST(TestDriver, CompletionOutsideWindowFails) {
  // Consumer at tick 1 must wait until the producer's tick-4 send, so a
  // completion window of [1,2] is violated.
  Harness h;
  ProducerConsumer pc(h.rt);
  h.driver.add(receiveCall(pc, "consumer", 1, 'x', 1, 2));
  h.driver.addVoid("producer", 4, "send(x)", [&pc] { pc.send("x"); });
  Results res = h.driver.execute();
  EXPECT_FALSE(res.allPassed());
  EXPECT_FALSE(res.reports[0].timeOk);
  EXPECT_EQ(res.reports[0].completedAtTick, 4u);
}

TEST(TestDriver, ExpectHangOnLostNotification) {
  // Mutant: send never notifies -> the suspended receive hangs forever.
  Harness h;
  ProducerConsumer::Faults f;
  f.skipNotify = true;
  ProducerConsumer pc(h.rt, f);
  Call r = receiveCall(pc, "consumer", 1, 'x', 2, 2);
  r.completionWindow.reset();
  r.expectedValue.reset();
  r.expectHang = true;
  h.driver.add(r);
  h.driver.addVoid("producer", 2, "send(x)", [&pc] { pc.send("x"); }, {{2, 2}});
  Results res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, Outcome::Deadlock);
  EXPECT_TRUE(res.allPassed()) << res.describe();
}

TEST(TestDriver, UnexpectedHangFails) {
  Harness h;
  ProducerConsumer::Faults f;
  f.skipNotify = true;
  ProducerConsumer pc(h.rt, f);
  h.driver.add(receiveCall(pc, "consumer", 1, 'x', 2, 2));  // not expected to hang
  h.driver.addVoid("producer", 2, "send(x)", [&pc] { pc.send("x"); });
  Results res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, Outcome::Deadlock);
  EXPECT_FALSE(res.allPassed());
  EXPECT_FALSE(res.reports[0].completed);
  EXPECT_FALSE(res.reports[0].hangOk);
}

TEST(TestDriver, ActionExceptionIsCapturedNotFatal) {
  Harness h;
  h.driver.addVoid("t", 1, "thrower",
                   [] { throw std::runtime_error("component bug"); });
  h.driver.addVoid("t", 2, "after", [] {}, {{2, 2}});
  Results res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, Outcome::Completed);
  ASSERT_EQ(res.reports.size(), 2u);
  EXPECT_EQ(res.reports[0].error, "component bug");
  EXPECT_FALSE(res.reports[0].passed());
  EXPECT_TRUE(res.reports[1].passed());  // the thread carried on
}

TEST(TestDriver, CallsOnOneThreadRunInInsertionOrder) {
  Harness h;
  std::vector<int> order;
  h.driver.addVoid("t", 2, "second", [&order] { order.push_back(2); });
  // Same thread, earlier tick, but added later: runs after "second"
  // finishes awaiting? No — insertion order governs the thread's program:
  // the thread awaits tick 2, runs, then awaits tick 1 (already past).
  h.driver.addVoid("t", 1, "first-added-late", [&order] { order.push_back(1); });
  Results res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, Outcome::Completed);
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(TestDriver, MultipleThreadsInterleaveByTicks) {
  Harness h;
  std::vector<std::string> log;
  h.driver.addVoid("a", 1, "a1", [&log] { log.push_back("a1"); });
  h.driver.addVoid("b", 2, "b2", [&log] { log.push_back("b2"); });
  h.driver.addVoid("a", 3, "a3", [&log] { log.push_back("a3"); });
  h.driver.addVoid("b", 4, "b4", [&log] { log.push_back("b4"); });
  Results res = h.driver.execute();
  EXPECT_EQ(res.run.outcome, Outcome::Completed);
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b2", "a3", "b4"}));
}
