// Figure 2 reproduction: the asymmetric producer-consumer monitor.
//
// Three progressively stronger checks:
//   1. Brinch Hansen-style deterministic test (Section 6 step 2): a
//      scripted sequence of send/receive calls with exact completion ticks
//      and values, driven by the abstract clock.
//   2. Stress under random schedules (P producers x C consumers of the
//      asymmetric monitor): every string is received intact, in order.
//   3. Model conformance: the stress trace replays through the Figure 1
//      Petri net, and the throughput of a bulk transfer under the virtual
//      scheduler is reported.
#include <chrono>
#include <cstdio>
#include <string>

#include "confail/clock/abstract_clock.hpp"
#include "confail/components/producer_consumer.hpp"
#include "confail/conan/test_driver.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/petri/trace_validator.hpp"
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
int failures = 0;
void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) ++failures;
}
}  // namespace

int main() {
  std::printf("=== Figure 2: producer-consumer monitor ===\n\n");

  std::printf("--- deterministic ConAn sequence (Section 6) ---\n");
  {
    ev::Trace trace;
    sched::RoundRobinStrategy strategy;
    sched::VirtualScheduler s(strategy);
    Runtime rt(trace, s, 1);
    AbstractClock clk(rt);
    TestDriver driver(rt, clk);
    ProducerConsumer pc(rt);

    auto receive = [&pc](std::string thread, std::uint64_t at, char expect,
                         std::uint64_t doneLo, std::uint64_t doneHi,
                         bool waits) {
      Call c;
      c.thread = std::move(thread);
      c.startTick = at;
      c.label = std::string("receive()->") + expect;
      c.action = [&pc]() -> std::int64_t { return pc.receive(); };
      c.completionWindow = {{doneLo, doneHi}};
      c.expectedValue = expect;
      c.expectWait = waits;
      return c;
    };

    // Consumer arrives early and suspends (T3); producer sends "hi" at
    // tick 3, waking it (T5,T2); the rest drains without waiting; the
    // second send must itself wait until the buffer drains.
    driver.add(receive("consumer", 1, 'h', 3, 3, true));
    driver.addVoid("producer", 3, "send(hi)", [&pc] { pc.send("hi"); },
                   {{3, 3}});
    driver.add(receive("consumer", 4, 'i', 4, 4, false));
    driver.addVoid("producer", 5, "send(ok)", [&pc] { pc.send("ok"); },
                   {{5, 5}});
    driver.add(receive("consumer", 6, 'o', 6, 6, false));
    driver.add(receive("consumer", 7, 'k', 7, 7, false));

    auto res = driver.execute();
    for (const auto& r : res.reports) {
      std::printf("    %s\n", r.describe().c_str());
    }
    check(res.run.outcome == sched::Outcome::Completed,
          "scheduler run completed");
    check(res.allPassed(), "all scripted calls at the predicted tick/value");
  }

  std::printf("\n--- stress: random schedules, message integrity ---\n");
  {
    bool allIntact = true;
    std::uint64_t totalEvents = 0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      ev::Trace trace;
      sched::RandomWalkStrategy strategy(seed);
      sched::VirtualScheduler s(strategy);
      Runtime rt(trace, s, seed);
      ProducerConsumer pc(rt);
      std::string received;
      std::string sent;
      rt.spawn("producer", [&] {
        for (int m = 0; m < 8; ++m) {
          std::string msg = confail::numbered("m", m) + "!";
          sent += msg;
          pc.send(msg);
        }
      });
      rt.spawn("consumer", [&] {
        for (int i = 0; i < 8 * 3; ++i) received.push_back(pc.receive());
      });
      auto run = s.run();
      allIntact = allIntact && run.ok() && received == sent;
      totalEvents += trace.size();
      if (seed == 1) {
        auto v = confail::petri::validateTraceAgainstModel(trace, pc.mon().id());
        check(v.ok, "stress trace conforms to the Figure 1 model (" +
                        std::to_string(v.eventsChecked) + " transitions)");
      }
    }
    check(allIntact, "10 seeds x 8 messages: every string received intact");
    std::printf("    (%llu instrumented events recorded)\n",
                static_cast<unsigned long long>(totalEvents));
  }

  std::printf("\n--- throughput: bulk transfer ---\n");
  {
    using Clock = std::chrono::steady_clock;
    constexpr int kMessages = 2000;

    auto t0 = Clock::now();
    {
      ev::Trace trace;
      sched::RoundRobinStrategy strategy;
      sched::VirtualScheduler::Options so;
      so.maxSteps = 10u << 20;
      sched::VirtualScheduler s(strategy, so);
      Runtime rt(trace, s, 1);
      ProducerConsumer pc(rt);
      rt.spawn("producer", [&] {
        for (int m = 0; m < kMessages; ++m) pc.send("x");
      });
      rt.spawn("consumer", [&] {
        for (int i = 0; i < kMessages; ++i) (void)pc.receive();
      });
      check(s.run().ok(), "bulk transfer completed");
    }
    auto t1 = Clock::now();
    const long long us =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count();
    std::printf("    %lld us for %d messages (%.2f us/msg)\n", us, kMessages,
                static_cast<double>(us) / kMessages);
  }

  std::printf("\n%s\n", failures == 0 ? "FIGURE 2 REPRODUCTION: OK"
                                      : "FIGURE 2 REPRODUCTION: FAILURES");
  return failures == 0 ? 0 : 1;
}
