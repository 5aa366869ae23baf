#include "confail/sched/strategy.hpp"

#include <algorithm>

#include "confail/support/assert.hpp"

namespace confail::sched {

ThreadId RoundRobinStrategy::pick(const std::vector<ThreadId>& runnable,
                                  std::uint64_t /*step*/) {
  CONFAIL_ASSERT(!runnable.empty(), "pick on empty runnable set");
  // First runnable id strictly greater than the last scheduled one,
  // wrapping around — classic fair rotation.
  for (ThreadId t : runnable) {
    if (last_ == events::kNoThread || t > last_) {
      last_ = t;
      return t;
    }
  }
  last_ = runnable.front();
  return last_;
}

ThreadId RandomWalkStrategy::pick(const std::vector<ThreadId>& runnable,
                                  std::uint64_t /*step*/) {
  CONFAIL_ASSERT(!runnable.empty(), "pick on empty runnable set");
  return runnable[rng_.pickIndex(runnable)];
}

PctStrategy::PctStrategy(std::uint64_t seed, unsigned depth,
                         std::uint64_t expectedSteps)
    : rng_(seed) {
  CONFAIL_ASSERT(depth >= 1, "PCT depth must be >= 1");
  // depth-1 change points uniformly over the expected execution length.
  for (unsigned i = 0; i + 1 < depth; ++i) {
    changePoints_.push_back(rng_.below(std::max<std::uint64_t>(expectedSteps, 1)));
  }
  std::sort(changePoints_.begin(), changePoints_.end());
}

void PctStrategy::onSpawn(ThreadId t) {
  if (priority_.size() <= t) priority_.resize(t + 1, 0);
  // Random high priority band; change points later demote to a low band
  // (0, 1, 2, ... in hit order) so the demoted thread runs last.
  priority_[t] = (1ull << 32) + rng_.next() % (1ull << 31);
}

ThreadId PctStrategy::pick(const std::vector<ThreadId>& runnable,
                           std::uint64_t step) {
  CONFAIL_ASSERT(!runnable.empty(), "pick on empty runnable set");
  ThreadId best = runnable.front();
  std::uint64_t bestPri = 0;
  for (ThreadId t : runnable) {
    std::uint64_t pri = t < priority_.size() ? priority_[t] : 0;
    if (pri >= bestPri) {
      bestPri = pri;
      best = t;
    }
  }
  if (nextChange_ < changePoints_.size() && step >= changePoints_[nextChange_]) {
    // Demote the currently-highest thread to the lowest unused priority.
    priority_[best] = nextLowPriority_++;
    ++nextChange_;
  }
  return best;
}

ThreadId PrefixReplayStrategy::pick(const std::vector<ThreadId>& runnable,
                                    std::uint64_t step) {
  CONFAIL_ASSERT(!runnable.empty(), "pick on empty runnable set");
  if (step < len_) {
    ThreadId want = data_[step];
    if (!std::binary_search(runnable.begin(), runnable.end(), want)) {
      throw UsageError(
          "schedule replay diverged: thread " + std::to_string(want) +
          " demanded at step " + std::to_string(step) + " is not runnable");
    }
    return want;
  }
  return runnable.front();
}

}  // namespace confail::sched
