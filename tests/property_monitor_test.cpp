// Property tests (parameterized sweeps) for the monitor substrate.
//
// Swept dimensions: grant policy x wake policy x schedule seed x thread
// count.  For every combination the same invariants must hold:
//   * mutual exclusion (never two threads inside a critical section),
//   * trace balance (per thread and monitor: requests == acquires ==
//     releases + waits, every wait is followed by at most one wake),
//   * model conformance (the trace is a legal Figure-1 firing sequence),
//   * completion (the workload is deadlock-free by construction).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/petri/trace_validator.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/support/text.hpp"

namespace ev = confail::events;
namespace sched = confail::sched;
using confail::monitor::Monitor;
using confail::monitor::Runtime;
using confail::monitor::SelectPolicy;
using confail::monitor::Synchronized;

namespace {

struct SweepParam {
  SelectPolicy grant;
  SelectPolicy wake;
  std::uint64_t seed;
  int threads;
};

std::string paramName(const testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  return std::string(confail::monitor::selectPolicyName(p.grant)) + "grant_" +
         confail::monitor::selectPolicyName(p.wake) + "wake_seed" +
         std::to_string(p.seed) + "_t" + std::to_string(p.threads);
}

class MonitorSweep : public testing::TestWithParam<SweepParam> {};

// Shared workload: threads alternate between plain critical sections and a
// wait/notify token-passing phase, with preemption invited everywhere.
struct WorkloadResult {
  sched::RunResult run;
  int maxInside = 0;
  int finalCounter = 0;
};

WorkloadResult runWorkload(const SweepParam& p, ev::Trace& trace) {
  sched::RandomWalkStrategy strategy(p.seed);
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, p.seed);
  Monitor::Options mo;
  mo.grantPolicy = p.grant;
  mo.wakePolicy = p.wake;
  Monitor m(rt, "swept", mo);

  WorkloadResult result;
  int inside = 0;
  int counter = 0;
  int arrivals = 0;

  for (int t = 0; t < p.threads; ++t) {
    rt.spawn(confail::numbered("t", t), [&, t] {
      // Phase 1: contended critical sections.
      for (int i = 0; i < 10; ++i) {
        Synchronized sync(m);
        ++inside;
        result.maxInside = std::max(result.maxInside, inside);
        rt.schedulePoint();
        ++counter;
        --inside;
      }
      // Phase 2: a barrier rendezvous hand-rolled on the monitor —
      // deadlock-free regardless of wake policy because the opener uses
      // notifyAll and waiters re-check the guard.
      {
        Synchronized sync(m);
        ++arrivals;
        if (arrivals == p.threads) {
          m.notifyAll();
        } else {
          while (arrivals < p.threads) m.wait();
        }
      }
      (void)t;
    });
  }
  result.run = s.run();
  result.finalCounter = counter;
  return result;
}

}  // namespace

TEST_P(MonitorSweep, MutualExclusionAndCompletion) {
  ev::Trace trace;
  WorkloadResult r = runWorkload(GetParam(), trace);
  EXPECT_EQ(r.run.outcome, sched::Outcome::Completed);
  EXPECT_EQ(r.maxInside, 1) << "mutual exclusion violated";
  EXPECT_EQ(r.finalCounter, GetParam().threads * 10);
}

TEST_P(MonitorSweep, TraceIsBalancedAndModelConformant) {
  ev::Trace trace;
  WorkloadResult r = runWorkload(GetParam(), trace);
  ASSERT_EQ(r.run.outcome, sched::Outcome::Completed);

  // Balance accounting per thread.
  std::map<ev::ThreadId, int> requests, acquires, releases, waits, wakes;
  for (const ev::Event& e : trace.events()) {
    switch (e.kind) {
      case ev::EventKind::LockRequest: ++requests[e.thread]; break;
      case ev::EventKind::LockAcquire: ++acquires[e.thread]; break;
      case ev::EventKind::LockRelease: ++releases[e.thread]; break;
      case ev::EventKind::WaitBegin: ++waits[e.thread]; break;
      case ev::EventKind::Notified:
      case ev::EventKind::SpuriousWake: ++wakes[e.thread]; break;
      default: break;
    }
  }
  for (const auto& [tid, acq] : acquires) {
    // Every acquisition is eventually released or converted into a wait,
    // and the run completed, so the books must balance exactly.
    EXPECT_EQ(acq, releases[tid] + waits[tid]) << "thread " << tid;
    // Each wake corresponds to exactly one wait (completed run).
    EXPECT_EQ(waits[tid], wakes[tid]) << "thread " << tid;
    // T1 fires once per non-reentrant entry; a woken wait re-acquires via
    // handoff without a new request: requests == acquires - wakes.
    EXPECT_EQ(requests[tid], acq - wakes[tid]) << "thread " << tid;
  }

  // The full trace replays through the Figure 1 net.
  auto v = confail::petri::validateTraceAgainstModel(trace, 0);
  EXPECT_TRUE(v.ok) << v.message;
  EXPECT_GT(v.eventsChecked, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PolicySeedThreadSweep, MonitorSweep,
    testing::ValuesIn([] {
      std::vector<SweepParam> params;
      for (SelectPolicy grant : {SelectPolicy::Fifo, SelectPolicy::Lifo,
                                 SelectPolicy::Random}) {
        for (SelectPolicy wake : {SelectPolicy::Fifo, SelectPolicy::Random}) {
          for (std::uint64_t seed : {1ull, 17ull, 99ull}) {
            for (int threads : {2, 4}) {
              params.push_back(SweepParam{grant, wake, seed, threads});
            }
          }
        }
      }
      return params;
    }()),
    paramName);

// ---------------------------------------------------------------------------
// Spurious-wakeup sweep: with guarded waits, ANY spurious-wake probability
// must be harmless; the trace may contain SpuriousWake events but the
// workload still completes with the correct result.
// ---------------------------------------------------------------------------

class SpuriousSweep : public testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

namespace {
std::string spuriousName(
    const testing::TestParamInfo<std::tuple<double, std::uint64_t>>& info) {
  return confail::numbered(
             "p", static_cast<int>(std::get<0>(info.param) * 100)) +
         "_seed" + std::to_string(std::get<1>(info.param));
}
std::string depthName(const testing::TestParamInfo<int>& info) {
  return "depth" + std::to_string(info.param);
}
}  // namespace


TEST_P(SpuriousSweep, GuardedWaitsAbsorbSpuriousWakes) {
  const auto [prob, seed] = GetParam();
  ev::Trace trace;
  sched::RandomWalkStrategy strategy(seed);
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, seed);
  Monitor::Options mo;
  mo.spuriousWakeProbability = prob;
  Monitor m(rt, "spurious", mo);

  int token = 0;
  const int rounds = 6;
  for (int t = 0; t < 2; ++t) {
    rt.spawn(confail::numbered("t", t), [&, t] {
      for (int i = 0; i < rounds; ++i) {
        Synchronized sync(m);
        while (token % 2 != t) m.wait();
        ++token;
        m.notifyAll();
      }
    });
  }
  auto r = s.run();
  EXPECT_EQ(r.outcome, sched::Outcome::Completed);
  EXPECT_EQ(token, 2 * rounds);
  // The trace must still be a legal firing sequence (SpuriousWake == T5).
  auto v = confail::petri::validateTraceAgainstModel(trace, 0);
  EXPECT_TRUE(v.ok) << v.message;
}

INSTANTIATE_TEST_SUITE_P(
    ProbabilitySweep, SpuriousSweep,
    testing::Combine(testing::Values(0.0, 0.1, 0.5, 0.9),
                     testing::Values(2ull, 3ull, 5ull)),
    spuriousName);

// ---------------------------------------------------------------------------
// Reentrancy depth sweep: wait() must restore any depth exactly.
// ---------------------------------------------------------------------------

class DepthSweep : public testing::TestWithParam<int> {};

TEST_P(DepthSweep, WaitRestoresArbitraryDepth) {
  const int depth = GetParam();
  ev::Trace trace;
  sched::RoundRobinStrategy strategy;
  sched::VirtualScheduler s(strategy);
  Runtime rt(trace, s, 1);
  Monitor m(rt, "deep");
  bool flag = false;
  rt.spawn("waiter", [&] {
    for (int i = 0; i < depth; ++i) m.lock();
    EXPECT_EQ(m.depth(), static_cast<std::uint32_t>(depth));
    while (!flag) m.wait();
    EXPECT_EQ(m.depth(), static_cast<std::uint32_t>(depth));
    for (int i = 0; i < depth; ++i) m.unlock();
    EXPECT_FALSE(m.heldByCurrent());
  });
  rt.spawn("setter", [&] {
    Synchronized sync(m);  // must be grantable: wait released all levels
    flag = true;
    m.notifyAll();
  });
  EXPECT_EQ(s.run().outcome, sched::Outcome::Completed);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep, testing::Values(1, 2, 3, 5, 8),
                         depthName);
