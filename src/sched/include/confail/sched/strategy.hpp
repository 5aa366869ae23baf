// Scheduling strategies for the virtual scheduler.
//
// A strategy is consulted at every decision point (schedule point where at
// least one logical thread is runnable) and picks which thread runs next.
// All strategies are deterministic given their construction parameters, so
// any run can be reproduced exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "confail/events/event.hpp"
#include "confail/support/rng.hpp"

namespace confail::sched {

using events::ThreadId;

/// Picks the next thread to run from the (non-empty, ascending-id) set of
/// runnable threads.  `step` is the global decision index, starting at 0.
class Strategy {
 public:
  virtual ~Strategy() = default;
  virtual ThreadId pick(const std::vector<ThreadId>& runnable,
                        std::uint64_t step) = 0;
  /// Called when a new thread is spawned (PCT uses this to assign priority).
  virtual void onSpawn(ThreadId /*t*/) {}
};

/// Cycles fairly through runnable threads.  The baseline "fair JVM".
class RoundRobinStrategy final : public Strategy {
 public:
  ThreadId pick(const std::vector<ThreadId>& runnable, std::uint64_t step) override;

 private:
  ThreadId last_ = events::kNoThread;
};

/// Uniform random walk over runnable threads; models an arbitrary,
/// unfair JVM scheduler.  Deterministic per seed.
class RandomWalkStrategy final : public Strategy {
 public:
  explicit RandomWalkStrategy(std::uint64_t seed) : rng_(seed) {}
  ThreadId pick(const std::vector<ThreadId>& runnable, std::uint64_t step) override;

 private:
  Xoshiro256 rng_;
};

/// PCT (probabilistic concurrency testing): random static priorities with
/// `depth-1` random priority-change points; always runs the highest-priority
/// runnable thread.  Gives probabilistic guarantees of hitting bugs of small
/// depth; used in the scheduler-ablation bench.
class PctStrategy final : public Strategy {
 public:
  /// `depth` >= 1; `expectedSteps` scales where change points are placed.
  PctStrategy(std::uint64_t seed, unsigned depth, std::uint64_t expectedSteps);
  ThreadId pick(const std::vector<ThreadId>& runnable, std::uint64_t step) override;
  void onSpawn(ThreadId t) override;

 private:
  Xoshiro256 rng_;
  std::vector<std::uint64_t> priority_;      // per thread id
  std::vector<std::uint64_t> changePoints_;  // decision indices (sorted)
  std::uint64_t nextLowPriority_ = 0;        // counts down as change points hit
  std::size_t nextChange_ = 0;
};

/// Replays a recorded schedule prefix, then falls back to picking the
/// lowest-id runnable thread.  Used by the exhaustive explorer and by
/// trace replay.  If the prefix becomes infeasible (the demanded thread is
/// not runnable) the strategy throws UsageError: this indicates the program
/// under test is not deterministic modulo the schedule.
class PrefixReplayStrategy final : public Strategy {
 public:
  explicit PrefixReplayStrategy(std::vector<ThreadId> prefix)
      : own_(std::move(prefix)), data_(own_.data()), len_(own_.size()) {}

  /// Zero-copy form: replay `prefix[0..len)` without owning it.  The
  /// explorer materializes each work item's prefix-tree chain into a
  /// per-worker scratch buffer once and lends it out here; the caller
  /// keeps the buffer alive and unchanged for the strategy's lifetime.
  PrefixReplayStrategy(const ThreadId* prefix, std::size_t len)
      : data_(prefix), len_(len) {}

  // data_ points into own_ in the owning constructor; copying would leave
  // the copy aliasing the original's storage.
  PrefixReplayStrategy(const PrefixReplayStrategy&) = delete;
  PrefixReplayStrategy& operator=(const PrefixReplayStrategy&) = delete;

  ThreadId pick(const std::vector<ThreadId>& runnable, std::uint64_t step) override;

 private:
  std::vector<ThreadId> own_;          ///< storage for the owning form
  const ThreadId* data_ = nullptr;     ///< the prefix actually replayed
  std::size_t len_ = 0;
};

}  // namespace confail::sched
