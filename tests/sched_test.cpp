// Unit tests for the virtual scheduler: strict alternation, strategies,
// blocking/unblocking, deadlock and step-limit detection, determinism,
// and the exhaustive explorer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "confail/sched/explorer.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace sched = confail::sched;
using confail::events::ThreadId;
using sched::BlockKind;
using sched::Outcome;
using sched::RoundRobinStrategy;
using sched::RandomWalkStrategy;
using sched::PrefixReplayStrategy;
using sched::VirtualScheduler;

TEST(VirtualScheduler, RunsSingleThreadToCompletion) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  int x = 0;
  s.spawn("t0", [&] { x = 42; });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(x, 42);
}

TEST(VirtualScheduler, StrictAlternationNoOverlap) {
  // With yields between increments, two threads interleave but never
  // overlap: a non-atomic counter stays exact.
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  long counter = 0;  // deliberately not atomic
  auto body = [&] {
    for (int i = 0; i < 1000; ++i) {
      ++counter;
      s.yield();
    }
  };
  s.spawn("a", body);
  s.spawn("b", body);
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(counter, 2000);
}

TEST(VirtualScheduler, ThreadsSpawnedMidRunExecute) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  bool childRan = false;
  s.spawn("parent", [&] {
    s.spawn("child", [&] { childRan = true; });
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(childRan);
}

TEST(VirtualScheduler, BlockWithoutUnblockIsDeadlock) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  s.spawn("stuck", [&] { s.block(BlockKind::Custom, 7); });
  auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Deadlock);
  ASSERT_EQ(r.blocked.size(), 1u);
  EXPECT_EQ(r.blocked[0].name, "stuck");
  EXPECT_EQ(r.blocked[0].kind, BlockKind::Custom);
  EXPECT_EQ(r.blocked[0].resource, 7u);
}

TEST(VirtualScheduler, UnblockMakesThreadRunnableAgain) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  bool resumed = false;
  ThreadId sleeper = s.spawn("sleeper", [&] {
    s.block(BlockKind::Custom, 0);
    resumed = true;
  });
  s.spawn("waker", [&] {
    s.yield();  // let the sleeper block first (round-robin order)
    s.unblock(sleeper);
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(resumed);
}

TEST(VirtualScheduler, StepLimitAbortsLivelock) {
  RoundRobinStrategy strat;
  VirtualScheduler::Options opts;
  opts.maxSteps = 500;
  VirtualScheduler s(strat, opts);
  s.spawn("spin", [&] {
    for (;;) s.yield();
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::StepLimit);
  EXPECT_EQ(r.steps, 500u);
}

TEST(VirtualScheduler, UncaughtExceptionReported) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  s.spawn("thrower", [] { throw std::runtime_error("boom"); });
  auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Exception);
  EXPECT_EQ(r.errorMessage, "boom");
}

TEST(VirtualScheduler, ScheduleIsReplayable) {
  // Run once with a random strategy; replay the recorded schedule and
  // observe the identical interleaving (same output word).
  auto program = [](VirtualScheduler& s, std::string& word) {
    for (char c : {'a', 'b', 'c'}) {
      s.spawn(std::string(1, c), [&s, &word, c] {
        for (int i = 0; i < 3; ++i) {
          word.push_back(c);
          s.yield();
        }
      });
    }
  };

  std::string word1;
  RandomWalkStrategy rws(1234);
  VirtualScheduler s1(rws);
  program(s1, word1);
  auto r1 = s1.run();
  ASSERT_EQ(r1.outcome, Outcome::Completed);

  std::string word2;
  PrefixReplayStrategy replay(r1.schedule);
  VirtualScheduler s2(replay);
  program(s2, word2);
  auto r2 = s2.run();
  ASSERT_EQ(r2.outcome, Outcome::Completed);
  EXPECT_EQ(word1, word2);
  EXPECT_EQ(r1.schedule, r2.schedule);
}

TEST(VirtualScheduler, RandomWalkIsDeterministicPerSeed) {
  auto runWith = [](std::uint64_t seed) {
    RandomWalkStrategy strat(seed);
    VirtualScheduler s(strat);
    std::string word;
    for (char c : {'x', 'y'}) {
      s.spawn(std::string(1, c), [&s, &word, c] {
        for (int i = 0; i < 5; ++i) {
          word.push_back(c);
          s.yield();
        }
      });
    }
    auto r = s.run();
    EXPECT_EQ(r.outcome, Outcome::Completed);
    return word;
  };
  EXPECT_EQ(runWith(7), runWith(7));
  // Not a hard guarantee, but with 10 interleaved steps two seeds agreeing
  // entirely would be a (2^-something) fluke worth noticing.
  EXPECT_NE(runWith(7), runWith(8));
}

TEST(VirtualScheduler, DestructorCleansUpWithoutRun) {
  RoundRobinStrategy strat;
  {
    VirtualScheduler s(strat);
    s.spawn("never-runs", [] {});
    // destructor must tear down the never-started fiber without hanging
  }
  SUCCEED();
}

TEST(VirtualScheduler, LogicalThreadsRunOnTheControllerThread) {
  // Every logical thread is a fiber on the OS thread that calls run(),
  // including threads spawned mid-run: no OS thread per logical thread.
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  const std::thread::id controller = std::this_thread::get_id();
  int steps = 0;
  int onController = 0;
  auto body = [&] {
    for (int i = 0; i < 3; ++i) {
      ++steps;
      if (std::this_thread::get_id() == controller) ++onController;
      s.yield();
    }
  };
  s.spawn("a", body);
  s.spawn("b", body);
  s.spawn("spawner", [&] { s.spawn("child", body); });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(steps, 9);
  EXPECT_EQ(onController, steps);
}

TEST(VirtualScheduler, ExceptionStateIsPerLogicalThread) {
  // Two logical threads reach schedule points inside their catch blocks
  // and leave them in the opposite order they entered: each must still see
  // its own exception, and a third thread outside any handler sees none.
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  std::vector<std::string> seen;
  bool bystanderSawException = true;
  auto catcher = [&](const char* tag, int yields) {
    return [&, tag, yields] {
      try {
        throw std::runtime_error(tag);
      } catch (const std::runtime_error& e) {
        for (int i = 0; i < yields; ++i) s.yield();
        seen.push_back(e.what());
        EXPECT_NE(std::current_exception(), nullptr);
      }
      EXPECT_EQ(std::current_exception(), nullptr);
    };
  };
  s.spawn("outer", catcher("outer", 4));
  s.spawn("inner", catcher("inner", 1));
  s.spawn("bystander", [&] {
    s.yield();
    bystanderSawException = std::current_exception() != nullptr;
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed) << r.errorMessage;
  EXPECT_EQ(seen, (std::vector<std::string>{"inner", "outer"}));
  EXPECT_FALSE(bystanderSawException);
}

TEST(VirtualScheduler, FloatingPointEnvironmentIsPerLogicalThread) {
  // The rounding mode lives in the MXCSR (SSE arithmetic) and the x87
  // control word (what fegetround reads on x86-64).  A fiber switch must
  // carry both per logical thread, as a switch between OS threads does.
  // The quotients use volatile operands so they are computed at run time
  // under the live rounding mode.
  static volatile double one = 1.0;
  static volatile double three = 3.0;
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = one / three;

  // Runs "upward" first, then always the highest runnable id, and samples
  // the controller's rounding mode at every decision point: the last two
  // are taken while "upward" is suspended in FE_UPWARD.
  struct SamplingStrategy final : sched::Strategy {
    std::vector<int> rounds;
    std::vector<double> quotients;
    ThreadId pick(const std::vector<ThreadId>& runnable,
                  std::uint64_t step) override {
      rounds.push_back(std::fegetround());
      quotients.push_back(one / three);
      return step == 0 ? runnable.front() : runnable.back();
    }
  };
  SamplingStrategy strat;
  VirtualScheduler s(strat);
  int upwardAfterResume = -1;
  double upwardQuotient = 0.0;
  int otherRound = -1;
  double otherQuotient = 0.0;
  s.spawn("upward", [&] {
    ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
    s.yield();
    upwardAfterResume = std::fegetround();
    upwardQuotient = one / three;
  });
  s.spawn("other", [&] {
    otherRound = std::fegetround();
    otherQuotient = one / three;
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed) << r.errorMessage;
  EXPECT_EQ(r.schedule, (std::vector<ThreadId>{0, 1, 0}));
  EXPECT_EQ(otherRound, FE_TONEAREST);
  EXPECT_EQ(otherQuotient, nearest);
  EXPECT_EQ(upwardAfterResume, FE_UPWARD);
  EXPECT_GT(upwardQuotient, nearest);
  EXPECT_EQ(strat.rounds, (std::vector<int>(3, FE_TONEAREST)));
  EXPECT_EQ(strat.quotients, (std::vector<double>(3, nearest)));
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one / three, nearest);
}

TEST(SnapshotVersion, StampsAreUniqueAcrossThreads) {
  // Each OS thread draws from its own block of 2^16 stamps; drawing more
  // than one block per thread crosses block boundaries concurrently.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = (std::size_t{1} << 16) + 5000;
  std::vector<std::vector<std::uint64_t>> drawn(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&drawn, t] {
      drawn[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        drawn[t].push_back(sched::nextSnapshotVersion());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<std::uint64_t> all;
  for (const auto& d : drawn) all.insert(all.end(), d.begin(), d.end());
  ASSERT_EQ(all.size(), kThreads * kPerThread);
  EXPECT_EQ(std::count(all.begin(), all.end(), std::uint64_t{0}), 0);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

TEST(Explorer, CoversAllInterleavingsOfTwoThreads) {
  // Two threads, each one yield point: the schedule tree has a handful of
  // interleavings; the explorer must terminate having covered all of them.
  sched::ExhaustiveExplorer::Options opts;
  opts.maxRuns = 1000;
  sched::ExhaustiveExplorer explorer(opts);
  std::vector<std::string> words;
  auto stats = explorer.explore(
      [](VirtualScheduler& s) {
        auto word = std::make_shared<std::string>();
        for (char c : {'a', 'b'}) {
          s.spawn(std::string(1, c), [&s, word, c] {
            word->push_back(c);
            s.yield();
            word->push_back(c);
          });
        }
      },
      nullptr);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_GT(stats.runs, 1u);
  EXPECT_EQ(stats.deadlocks, 0u);
  EXPECT_EQ(stats.exceptions, 0u);
  EXPECT_EQ(stats.completed, stats.runs);
}

TEST(Explorer, FindsTheOneBadInterleaving) {
  // A seeded atomicity bug: thread B crashes only if it runs entirely
  // between A's two halves.  The explorer must find it.
  sched::ExhaustiveExplorer explorer;
  auto stats = explorer.explore([](VirtualScheduler& s) {
    auto stage = std::make_shared<int>(0);
    s.spawn("A", [&s, stage] {
      *stage = 1;
      s.yield();
      *stage = 0;
    });
    s.spawn("B", [&s, stage] {
      if (*stage == 1) throw std::runtime_error("hit the window");
      s.yield();
    });
  });
  EXPECT_GT(stats.exceptions, 0u);
  EXPECT_FALSE(stats.firstFailure.empty());
}

TEST(Explorer, CallbackCanStopEarly) {
  sched::ExhaustiveExplorer explorer;
  std::uint64_t seen = 0;
  auto stats = explorer.explore(
      [](VirtualScheduler& s) {
        for (char c : {'a', 'b', 'c'}) {
          s.spawn(std::string(1, c), [&s] { s.yield(); });
        }
      },
      [&seen](const std::vector<ThreadId>&, const sched::RunResult&) {
        ++seen;
        return seen < 3;
      });
  EXPECT_TRUE(stats.stoppedByCallback);
  EXPECT_EQ(stats.runs, 3u);
}

TEST(Explorer, DeadlockReachableIsFound) {
  // Classic lock-order inversion built directly on scheduler blocking:
  // two "locks" as booleans; threads block if taken.
  sched::ExhaustiveExplorer explorer;
  auto stats = explorer.explore([](VirtualScheduler& s) {
    struct Locks {
      bool l1 = false, l2 = false;
      ThreadId w1 = confail::events::kNoThread, w2 = confail::events::kNoThread;
    };
    auto locks = std::make_shared<Locks>();
    auto take = [&s, locks](bool Locks::*flag, ThreadId Locks::*waiter) {
      if ((*locks).*flag) {
        (*locks).*waiter = s.currentThread();
        s.block(BlockKind::Custom, 0);
      }
      (*locks).*flag = true;
    };
    auto release = [&s, locks](bool Locks::*flag, ThreadId Locks::*waiter) {
      (*locks).*flag = false;
      if ((*locks).*waiter != confail::events::kNoThread) {
        s.unblock((*locks).*waiter);
        (*locks).*waiter = confail::events::kNoThread;
      }
    };
    s.spawn("ab", [&s, take, release] {
      take(&Locks::l1, &Locks::w1);
      s.yield();
      take(&Locks::l2, &Locks::w2);
      release(&Locks::l2, &Locks::w2);
      release(&Locks::l1, &Locks::w1);
    });
    s.spawn("ba", [&s, take, release] {
      take(&Locks::l2, &Locks::w2);
      s.yield();
      take(&Locks::l1, &Locks::w1);
      release(&Locks::l1, &Locks::w1);
      release(&Locks::l2, &Locks::w2);
    });
  });
  EXPECT_GT(stats.deadlocks, 0u);
}

TEST(Strategy, PrefixReplayDivergenceIsAnError) {
  // Demanding a thread that is not runnable must surface as a run error,
  // not an abort.
  PrefixReplayStrategy strat({99});
  VirtualScheduler s(strat);
  s.spawn("only", [] {});
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Exception);
  EXPECT_NE(r.errorMessage.find("diverged"), std::string::npos);
}

TEST(Strategy, RoundRobinCyclesFairly) {
  RoundRobinStrategy strat;
  std::vector<ThreadId> runnable = {0, 1, 2};
  std::vector<ThreadId> picks;
  for (int i = 0; i < 6; ++i) picks.push_back(strat.pick(runnable, static_cast<std::uint64_t>(i)));
  EXPECT_EQ(picks, (std::vector<ThreadId>{0, 1, 2, 0, 1, 2}));
}

TEST(Strategy, PctAlwaysPicksFromRunnable) {
  sched::PctStrategy strat(42, 3, 100);
  for (ThreadId t = 0; t < 4; ++t) strat.onSpawn(t);
  std::vector<ThreadId> runnable = {1, 3};
  for (int i = 0; i < 50; ++i) {
    ThreadId p = strat.pick(runnable, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(p == 1 || p == 3);
  }
}

TEST(VirtualScheduler, JoinWaitsForTarget) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  std::vector<int> order;
  ThreadId worker = s.spawn("worker", [&] {
    for (int i = 0; i < 3; ++i) s.yield();
    order.push_back(1);
  });
  s.spawn("joiner", [&] {
    s.joinThread(worker);
    order.push_back(2);
  });
  auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Completed);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(VirtualScheduler, JoinOnFinishedThreadReturnsImmediately) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  bool joined = false;
  ThreadId quick = s.spawn("quick", [] {});
  s.spawn("joiner", [&] {
    for (int i = 0; i < 5; ++i) s.yield();  // let quick finish first
    s.joinThread(quick);
    joined = true;
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(joined);
}

TEST(VirtualScheduler, SelfJoinRejected) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  bool threw = false;
  s.spawn("narcissist", [&] {
    try {
      s.joinThread(s.currentThread());
    } catch (const confail::UsageError&) {
      threw = true;
    }
  });
  auto r = s.run();
  EXPECT_EQ(r.outcome, Outcome::Completed);
  EXPECT_TRUE(threw);
}

TEST(VirtualScheduler, MutualJoinIsAnObservableDeadlock) {
  RoundRobinStrategy strat;
  VirtualScheduler s(strat);
  // Two threads joining each other: classic deadlock, observable here.
  ThreadId a = s.spawn("a", [&] {
    s.yield();
    s.joinThread(1);
  });
  s.spawn("b", [&] {
    s.yield();
    s.joinThread(a);
  });
  auto r = s.run();
  ASSERT_EQ(r.outcome, Outcome::Deadlock);
  EXPECT_EQ(r.blocked.size(), 2u);
  EXPECT_EQ(r.blocked[0].kind, BlockKind::Join);
}

TEST(Explorer, BranchDepthBoundLimitsTree) {
  // With branching restricted to the first decision, the explorer's run
  // count equals the size of the first runnable set, not the full tree.
  sched::ExhaustiveExplorer::Options opts;
  opts.maxBranchDepth = 1;
  sched::ExhaustiveExplorer explorer(opts);
  auto stats = explorer.explore([](VirtualScheduler& s) {
    for (char c : {'a', 'b', 'c'}) {
      s.spawn(std::string(1, c), [&s] { s.yield(); });
    }
  });
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, 3u);
}
