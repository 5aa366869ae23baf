// Future-work reproduction: "development of CoFGs and test sequences using
// this technique on a range of concurrent components" (paper Section 7,
// future work item 1 — promised, never published).
//
// For every component in the library this bench constructs the CoFGs of
// its methods, drives a hand-designed ConAn sequence against the
// component, measures arc coverage, and prints the uncovered arcs together
// with the generated test-sequence suggestions.  Some arcs are
// *structurally unreachable* without spurious wakeups (e.g. wait->wait in
// a semaphore whose notify only fires when the guard turned false); the
// bench documents exactly which, instead of hiding them — that distinction
// is itself a finding the paper's method surfaces.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "confail/clock/abstract_clock.hpp"
#include "confail/cofg/cofg.hpp"
#include "confail/cofg/coverage.hpp"
#include "confail/components/alarm_clock.hpp"
#include "confail/components/barrier.hpp"
#include "confail/components/bounded_buffer.hpp"
#include "confail/components/latch.hpp"
#include "confail/components/readers_writers.hpp"
#include "confail/components/semaphore.hpp"
#include "confail/conan/test_driver.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/support/text.hpp"

namespace cofg = confail::cofg;
namespace comps = confail::components;
namespace ev = confail::events;
namespace sched = confail::sched;
using confail::clock::AbstractClock;
using confail::conan::TestDriver;
using confail::monitor::Runtime;

namespace {

int failures = 0;

struct Campaign {
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler sched{strategy};
  Runtime rt{trace, sched, 1};
  AbstractClock clk{rt};
  TestDriver driver{rt, clk};
};

struct MethodCheck {
  cofg::MethodModel model;
  ev::MethodId method;
  std::size_t expectCovered;  // structurally reachable arcs
};

void report(Campaign& c, const std::string& component,
            const std::vector<MethodCheck>& checks) {
  auto res = c.driver.execute();
  if (res.run.outcome != sched::Outcome::Completed) {
    std::printf("  [FAIL] %s sequence did not complete (%s)\n",
                component.c_str(), sched::outcomeName(res.run.outcome));
    ++failures;
    return;
  }
  for (const MethodCheck& mc : checks) {
    cofg::Cofg graph = cofg::Cofg::build(mc.model);
    cofg::CoverageTracker cov(graph, mc.method);
    cov.process(c.trace.events());
    bool ok = cov.coveredArcs() >= mc.expectCovered && cov.anomalies().empty();
    std::printf("  [%s] %-28s %zu/%zu arcs covered", ok ? "ok" : "FAIL",
                mc.model.name().c_str(), cov.coveredArcs(), cov.totalArcs());
    if (cov.coveredArcs() < cov.totalArcs()) {
      std::printf("  (unreachable without spurious wakeups: ");
      bool first = true;
      for (std::size_t idx : cov.uncoveredArcs()) {
        std::printf("%s%s", first ? "" : ", ",
                    graph.arcs()[idx].label().c_str());
        first = false;
      }
      std::printf(")");
    }
    std::printf("\n");
    if (!ok) {
      std::printf("%s", cov.suggestSequences().c_str());
      ++failures;
    }
  }
}

void boundedBufferCampaign() {
  std::printf("\nBoundedBuffer (capacity 1):\n");
  Campaign c;
  comps::BoundedBuffer<int> buf(c.rt, "buf", 1);
  auto take = [&buf] { (void)buf.take(); };
  auto put = [&buf] { buf.put(1); };
  // take arcs: two takers wait; a put wakes both, one re-waits.
  c.driver.addVoid("t1", 1, "take", take);
  c.driver.addVoid("t2", 2, "take", take);
  c.driver.addVoid("p1", 3, "put", put);
  c.driver.addVoid("p1", 4, "put", put);
  // put arcs: buffer left full by the tick-5 put; two puts wait; takes
  // release them one at a time so one re-waits on a re-filled buffer.
  c.driver.addVoid("p1", 5, "put", put);
  c.driver.addVoid("p2", 6, "put", put);
  c.driver.addVoid("p3", 7, "put", put);
  c.driver.addVoid("t1", 8, "take", take);
  c.driver.addVoid("t1", 9, "take", take);
  c.driver.addVoid("t1", 10, "take", take);
  report(c, "BoundedBuffer",
         {{comps::BoundedBuffer<int>::takeModel(), buf.takeMethodId(), 5},
          {comps::BoundedBuffer<int>::putModel(), buf.putMethodId(), 5}});
}

void semaphoreCampaign() {
  std::printf("\nCountingSemaphore (0 permits):\n");
  Campaign c;
  comps::CountingSemaphore sem(c.rt, "sem", 0);
  c.driver.addVoid("a", 1, "acquire", [&sem] { sem.acquire(); });
  c.driver.addVoid("b", 2, "release", [&sem] { sem.release(); });
  c.driver.addVoid("b", 3, "release", [&sem] { sem.release(); });
  c.driver.addVoid("a", 4, "acquire", [&sem] { sem.acquire(); });
  // acquire: start->wait, wait->end, start->end reachable; wait->wait is
  // unreachable without spurious wakeups (release only notifies after
  // making the guard false).  release: both arcs trivially covered.
  report(c, "CountingSemaphore",
         {{comps::CountingSemaphore::acquireModel(),
           sem.acquireMethodId(), 3},
          {comps::CountingSemaphore::releaseModel(),
           sem.releaseMethodId(), 2}});
}

void barrierCampaign() {
  std::printf("\nCyclicBarrier (3 parties, 2 generations):\n");
  Campaign c;
  comps::CyclicBarrier bar(c.rt, "bar", 3);
  for (int t = 0; t < 3; ++t) {
    c.driver.addVoid(confail::numbered("t", t),
                     static_cast<std::uint64_t>(t + 1), "await#1",
                     [&bar] { (void)bar.await(); });
    c.driver.addVoid(confail::numbered("t", t),
                     static_cast<std::uint64_t>(4 + t), "await#2",
                     [&bar] { (void)bar.await(); });
  }
  // Of the 7 arcs of the conditional-notify model, 4 are reachable:
  // start->wait (early arrivers), start->notifyAll + notifyAll->end (last
  // arriver), wait->end (woken waiters).  wait->wait needs a spurious
  // wake; wait->notifyAll and start->end are structurally impossible in
  // this component (waiters never notify; everyone waits or notifies).
  report(c, "CyclicBarrier",
         {{comps::CyclicBarrier::awaitModel(), bar.awaitMethodId(), 4}});
}

void latchCampaign() {
  std::printf("\nCountDownLatch (count 2):\n");
  Campaign c;
  comps::CountDownLatch latch(c.rt, "latch", 2);
  c.driver.addVoid("w", 1, "await", [&latch] { latch.await(); });
  c.driver.addVoid("d", 2, "countDown", [&latch] { latch.countDown(); });
  c.driver.addVoid("d", 3, "countDown", [&latch] { latch.countDown(); });
  c.driver.addVoid("w", 4, "await(open)", [&latch] { latch.await(); });
  // await: wait->wait unreachable — countDown only notifies at zero, when
  // the guard is false.
  report(c, "CountDownLatch",
         {{comps::CountDownLatch::awaitModel(), latch.awaitMethodId(), 3},
          {comps::CountDownLatch::countDownModel(),
           latch.countDownMethodId(), 3}});
}

void readersWritersCampaign() {
  std::printf("\nReadersWriters (Fair preference):\n");
  Campaign c;
  comps::ReadersWriters rw(c.rt, comps::ReadersWriters::Preference::Fair);
  // Writer 1 active; reader and writer 2 queue; endWrite(1) wakes both —
  // the reader re-waits (fair mode: writer 2 still queued): wait->wait.
  c.driver.addVoid("w1", 1, "startWrite", [&rw] { rw.startWrite(); });
  c.driver.addVoid("r", 2, "startRead", [&rw] { rw.startRead(); });
  c.driver.addVoid("w2", 3, "startWrite", [&rw] { rw.startWrite(); });
  c.driver.addVoid("w3", 4, "startWrite", [&rw] { rw.startWrite(); });
  // endWrite(1) wakes w2, w3 and the reader: w2 proceeds, w3 re-checks a
  // true guard (writer active) -> wait->wait; the fair-mode reader also
  // re-waits while writers are queued.
  c.driver.addVoid("w1", 5, "endWrite", [&rw] { rw.endWrite(); });
  c.driver.addVoid("w2", 6, "endWrite", [&rw] { rw.endWrite(); });
  c.driver.addVoid("w3", 7, "endWrite", [&rw] { rw.endWrite(); });
  c.driver.addVoid("r", 8, "endRead", [&rw] { rw.endRead(); });
  // Two overlapping readers: the first endRead is not the last reader
  // (no notify: start->end in endRead's CoFG), the second is.
  c.driver.addVoid("r", 9, "startRead(free)", [&rw] { rw.startRead(); });
  c.driver.addVoid("r2", 10, "startRead(overlap)", [&rw] { rw.startRead(); });
  c.driver.addVoid("r", 11, "endRead(non-last)", [&rw] { rw.endRead(); });
  c.driver.addVoid("r2", 12, "endRead(last)", [&rw] { rw.endRead(); });
  report(c, "ReadersWriters",
         {{comps::ReadersWriters::startReadModel(), rw.startReadMethodId(), 4},
          {comps::ReadersWriters::startWriteModel(), rw.startWriteMethodId(), 4},
          {comps::ReadersWriters::endWriteModel(), rw.endWriteMethodId(), 2},
          {comps::ReadersWriters::endReadModel(), rw.endReadMethodId(), 3}});
}

void alarmClockCampaign() {
  std::printf("\nAlarmClock:\n");
  Campaign c;
  comps::AlarmClock alarm(c.rt, "alarm");
  c.driver.addVoid("s", 1, "wakeMe(2)", [&alarm] { (void)alarm.wakeMe(2); });
  c.driver.addVoid("d", 2, "tick", [&alarm] { alarm.tick(); });
  c.driver.addVoid("d", 3, "tick", [&alarm] { alarm.tick(); });
  c.driver.addVoid("s", 4, "wakeMe(0)", [&alarm] { (void)alarm.wakeMe(0); });
  // wakeMe: all four arcs reachable — tick at logical time 1 wakes the
  // sleeper whose deadline is 2 (wait->wait), time 2 releases it
  // (wait->end); wakeMe(0) covers start->end.
  report(c, "AlarmClock",
         {{comps::AlarmClock::wakeMeModel(), alarm.wakeMeMethodId(), 4},
          {comps::AlarmClock::tickModel(), alarm.tickMethodId(), 2}});
}

}  // namespace

int main() {
  std::printf("=== Future work item 1: CoFGs for a range of components ===\n");
  std::printf("(paper Section 7: promised follow-up, reproduced here)\n");

  boundedBufferCampaign();
  semaphoreCampaign();
  barrierCampaign();
  latchCampaign();
  readersWritersCampaign();
  alarmClockCampaign();

  std::printf("\n%s\n", failures == 0 ? "FUTURE-WORK CoFG SUITE: OK"
                                      : "FUTURE-WORK CoFG SUITE: FAILURES");
  return failures == 0 ? 0 : 1;
}
