// Parallel explorer: determinism across worker counts and budget-exhaustion
// reporting.  (DPOR's own determinism suite is sched_dpor_test.cpp.)
//
// The determinism contract under test (see docs/exploration.md):
//   * exhausted tree -> every Stats counter AND the canonical firstFailure
//     (lexicographically smallest failing schedule) are identical at any
//     worker count;
//   * the run budget is exact and firstFailure is reported even when the
//     budget dies mid-tree.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "confail/components/scenario_registry.hpp"
#include "confail/sched/explorer.hpp"

namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;

namespace {

/// A registry scenario's plain form.
const sched::ExhaustiveExplorer::Program& scenario(const char* name) {
  return scenarios::find(name)->fn;
}

struct Exploration {
  sched::ExhaustiveExplorer::Stats stats;
  std::set<std::uint64_t> deadlockSigs;
};

Exploration explore(const char* name, sched::ExhaustiveExplorer::Options eo) {
  eo.maxSteps = 20000;
  sched::ExhaustiveExplorer explorer(eo);
  Exploration out;
  out.stats = explorer.explore(
      scenario(name), [&out](const std::vector<sched::ThreadId>&,
                             const sched::RunResult& r) {
        if (r.outcome == sched::Outcome::Deadlock) {
          out.deadlockSigs.insert(sched::deadlockSignature(r));
        }
        return true;
      });
  return out;
}

}  // namespace

// Full enumeration, exhausted tree: all counters and the canonical witness
// are identical at 1, 2 and 8 workers.  lockOrder (FF-T2) has deadlocks,
// so this also pins the canonical firstFailure across worker counts.
TEST(ParallelExplorer, LockOrderDeterministicAcrossWorkerCounts) {
  Exploration serial;
  for (std::size_t workers : {1u, 2u, 8u}) {
    sched::ExhaustiveExplorer::Options eo;
    eo.workers = workers;
    Exploration e = explore("lock_order", eo);
    ASSERT_TRUE(e.stats.exhausted);
    EXPECT_GT(e.stats.runs, 0u);
    EXPECT_GT(e.stats.deadlocks, 0u);
    EXPECT_EQ(e.stats.prunedBranches, 0u);  // no reductions -> zero counters
    EXPECT_FALSE(e.stats.firstFailure.empty());
    EXPECT_EQ(e.stats.firstFailureOutcome, sched::Outcome::Deadlock);
    if (workers == 1) {
      serial = e;
      continue;
    }
    EXPECT_EQ(e.stats.runs, serial.stats.runs) << "workers=" << workers;
    EXPECT_EQ(e.stats.completed, serial.stats.completed);
    EXPECT_EQ(e.stats.deadlocks, serial.stats.deadlocks);
    EXPECT_EQ(e.stats.stepLimited, serial.stats.stepLimited);
    EXPECT_EQ(e.stats.exceptions, serial.stats.exceptions);
    EXPECT_EQ(e.stats.firstFailure, serial.stats.firstFailure);
    EXPECT_EQ(e.deadlockSigs, serial.deadlockSigs);
  }
}

// The Figure-2 producer/consumer shape (correct notifyAll buffer),
// branch-bounded so the tree exhausts: counters identical across worker
// counts and no deadlock exists within the bound.
TEST(ParallelExplorer, Figure2DeterministicAcrossWorkerCounts) {
  Exploration serial;
  for (std::size_t workers : {1u, 2u, 8u}) {
    sched::ExhaustiveExplorer::Options eo;
    eo.workers = workers;
    eo.maxBranchDepth = 5;
    Exploration e = explore("fig2", eo);
    ASSERT_TRUE(e.stats.exhausted);
    EXPECT_EQ(e.stats.deadlocks, 0u);
    if (workers == 1) {
      serial = e;
      continue;
    }
    EXPECT_EQ(e.stats.runs, serial.stats.runs) << "workers=" << workers;
    EXPECT_EQ(e.stats.completed, serial.stats.completed);
    EXPECT_EQ(e.stats.exhausted, serial.stats.exhausted);
  }
}

// Budget exhaustion mid-tree: the claim is exact (exactly maxRuns runs),
// exhausted stays false, and firstFailure is still reported if any
// executed run failed.
TEST(ParallelExplorer, BudgetExhaustionReportsFirstFailure) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 10;
  Exploration e = explore("lock_order", eo);
  EXPECT_EQ(e.stats.runs, 10u);
  EXPECT_FALSE(e.stats.exhausted);
  EXPECT_GT(e.stats.deadlocks, 0u);
  ASSERT_FALSE(e.stats.firstFailure.empty());
  EXPECT_EQ(e.stats.firstFailureOutcome, sched::Outcome::Deadlock);
}

// The canonical witness replays to the reported failure.
TEST(ParallelExplorer, FirstFailureReplaysToDeadlock) {
  sched::ExhaustiveExplorer::Options eo;
  Exploration e = explore("lock_order", eo);
  ASSERT_FALSE(e.stats.firstFailure.empty());

  sched::PrefixReplayStrategy replay(e.stats.firstFailure);
  sched::VirtualScheduler s(replay);
  scenario("lock_order")(s);
  sched::RunResult r = s.run();
  EXPECT_EQ(r.outcome, sched::Outcome::Deadlock);
}

// A zero budget executes nothing and claims no coverage.
TEST(ParallelExplorer, ZeroBudgetRunsNothing) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 0;
  Exploration e = explore("lock_order", eo);
  EXPECT_EQ(e.stats.runs, 0u);
  EXPECT_FALSE(e.stats.exhausted);
  EXPECT_TRUE(e.stats.firstFailure.empty());
}

// workers == 0 resolves to hardware_concurrency and behaves like any other
// worker count: on an exhausted tree, same counters.
TEST(ParallelExplorer, HardwareConcurrencyWorkersMatchSerial) {
  sched::ExhaustiveExplorer::Options serialOpts;
  Exploration serial = explore("lock_order", serialOpts);

  sched::ExhaustiveExplorer::Options autoOpts;
  autoOpts.workers = 0;
  Exploration autod = explore("lock_order", autoOpts);
  ASSERT_TRUE(autod.stats.exhausted);
  EXPECT_EQ(autod.stats.runs, serial.stats.runs);
  EXPECT_EQ(autod.stats.deadlocks, serial.stats.deadlocks);
  EXPECT_EQ(autod.stats.firstFailure, serial.stats.firstFailure);
}

// A callback stop is honored in parallel mode without hanging and without
// claiming exhaustion.
TEST(ParallelExplorer, CallbackStopTerminatesParallelExploration) {
  sched::ExhaustiveExplorer::Options eo;
  eo.workers = 4;
  sched::ExhaustiveExplorer explorer(eo);
  std::uint64_t seen = 0;
  auto stats = explorer.explore(
      scenario("lock_order"),
      [&seen](const std::vector<sched::ThreadId>&, const sched::RunResult&) {
        // Serialized by the explorer; plain mutation is safe here.
        return ++seen < 5;
      });
  EXPECT_TRUE(stats.stoppedByCallback);
  EXPECT_FALSE(stats.exhausted);
  EXPECT_GE(stats.runs, 5u);
}
