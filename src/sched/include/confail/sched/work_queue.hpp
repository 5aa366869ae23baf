// Work-stealing deque pool for the parallel schedule explorer.
//
// Each worker owns a shard: a deque it pushes and pops at the back (LIFO,
// preserving the serial explorer's depth-first order and cache locality,
// since a just-branched prefix shares most of its replay with the run that
// produced it).  An idle worker steals a small batch from the *front* of a
// victim's shard — the oldest, shallowest prefixes, whose subtrees are the
// largest and therefore the best units to migrate; sibling branches from
// one decision point sit adjacent there and travel together.
//
// Termination is exact, not heuristic: `inFlight` counts items that are
// queued or being processed (processing may push children, so a worker's
// claim keeps the count positive until done() is called).  When it reaches
// zero no further work can appear and every blocked worker wakes and exits.
// Shards use plain mutexes: the owner's push/pop is uncontended in the
// common case, and steals are rare once the tree fans out — profiling the
// explorer shows run execution (fiber setup and context switches)
// dominates queue traffic by orders of magnitude, so a lock-free Chase-Lev
// deque would buy nothing measurable here.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace confail::sched {

template <typename T>
class WorkStealQueue {
 public:
  explicit WorkStealQueue(std::size_t workers) {
    shards_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Enqueue an item on `worker`'s own shard.  inFlight is raised *before*
  /// the item becomes visible: an item that can be stolen and completed must
  /// never be momentarily uncounted, or a thief's done() could drive the
  /// count to zero with work still live and wake idle workers into exiting.
  void push(std::size_t worker, T item) {
    inFlight_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> g(shards_[worker]->mu);
      shards_[worker]->q.push_back(std::move(item));
    }
    queued_.fetch_add(1, std::memory_order_release);
    cv_.notify_one();
  }

  /// Enqueue a batch on `worker`'s own shard under one lock acquisition,
  /// preserving order (the deque ends up exactly as if each item had been
  /// push()ed in sequence, so serial LIFO traversal is unchanged).  The
  /// explorer publishes each run's children in one batch *after* its race
  /// analysis has finished claiming branches: a child popped by another
  /// worker can therefore never race its own analysis against the tail of
  /// the analysis that produced it (see the claim-order note in
  /// explorer.cpp).  Consumes `items` (left empty).
  void pushAll(std::size_t worker, std::vector<T>& items) {
    if (items.empty()) return;
    const std::int64_t n = static_cast<std::int64_t>(items.size());
    inFlight_.fetch_add(n, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> g(shards_[worker]->mu);
      for (T& item : items) {
        shards_[worker]->q.push_back(std::move(item));
      }
    }
    items.clear();
    queued_.fetch_add(n, std::memory_order_release);
    if (n == 1) {
      cv_.notify_one();
    } else {
      cv_.notify_all();
    }
  }

  /// Fetch the next item for `worker`: its own back first (DFS order), then
  /// steal from the front of another shard.  Blocks until an item arrives,
  /// all work is finished (returns nullopt), or stop() is called (returns
  /// nullopt immediately).  The caller MUST call done() after processing a
  /// returned item (after pushing any children it produces).
  std::optional<T> next(std::size_t worker) {
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return std::nullopt;
      if (auto item = tryPop(worker)) return item;
      if (inFlight_.load(std::memory_order_acquire) == 0) return std::nullopt;
      std::unique_lock<std::mutex> lk(idleMu_);
      // Re-check under the lock with a short timed wait: a push between our
      // scan and the wait would otherwise be missable.  The timeout bounds
      // the race window; idle workers cost a few wakeups/ms at worst.
      cv_.wait_for(lk, std::chrono::milliseconds(1), [&] {
        return stop_.load(std::memory_order_acquire) ||
               queued_.load(std::memory_order_acquire) > 0 ||
               inFlight_.load(std::memory_order_acquire) == 0;
      });
    }
  }

  /// Mark one previously-fetched item fully processed.
  void done() {
    if (inFlight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      cv_.notify_all();
    }
  }

  /// Abandon all remaining work: every next() call returns nullopt from now
  /// on (used for callback-requested stops and budget exhaustion).
  void stop() {
    stop_.store(true, std::memory_order_release);
    cv_.notify_all();
  }

  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Items taken from another worker's shard so far (each migrated batch
  /// member counts).
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Successful steal operations (each moved up to kStealBatch items).
  std::uint64_t stealBatches() const {
    return stealBatches_.load(std::memory_order_relaxed);
  }

  /// Items currently queued (approximate under concurrency: a wakeup hint,
  /// not a synchronized count — good enough for progress reporting).
  std::int64_t queuedApprox() const {
    return queued_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    std::mutex mu;
    std::deque<T> q;
  };

  std::optional<T> tryPop(std::size_t worker) {
    {
      Shard& own = *shards_[worker];
      std::lock_guard<std::mutex> g(own.mu);
      if (!own.q.empty()) {
        T item = std::move(own.q.back());
        own.q.pop_back();
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return item;
      }
    }
    for (std::size_t k = 1; k < shards_.size(); ++k) {
      Shard& victim = *shards_[(worker + k) % shards_.size()];
      // Batch steal: grab up to kStealBatch of the victim's oldest items in
      // one lock acquisition.  Siblings branched from one decision point sit
      // adjacent at the shard front, so migrating a batch moves a coherent
      // chunk of subtree and an oversubscribed victim is visited ~4x less
      // often.  The surplus is re-homed under the thief's own lock *after*
      // the victim's is released — two thieves stealing from each other
      // would otherwise hold opposite locks and deadlock.
      std::vector<T> batch;
      {
        std::lock_guard<std::mutex> g(victim.mu);
        const std::size_t take =
            std::min(victim.q.size(), kStealBatch);
        batch.reserve(take);
        for (std::size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(victim.q.front()));
          victim.q.pop_front();
        }
      }
      if (batch.empty()) continue;
      queued_.fetch_sub(1, std::memory_order_relaxed);
      steals_.fetch_add(batch.size(), std::memory_order_relaxed);
      stealBatches_.fetch_add(1, std::memory_order_relaxed);
      T item = std::move(batch.front());
      if (batch.size() > 1) {
        Shard& own = *shards_[worker];
        std::lock_guard<std::mutex> g(own.mu);
        // Keep relative age: batch[1] is the oldest surplus item, so append
        // in reverse and the owner's LIFO pop sees oldest first — the
        // shallowest prefix with the largest subtree, matching the
        // steal-from-front policy this batch came from.
        for (std::size_t i = batch.size(); i-- > 1;) {
          own.q.push_back(std::move(batch[i]));
        }
      }
      return item;
    }
    return std::nullopt;
  }

  /// Oldest-first items migrated per successful steal; siblings from one
  /// branch point travel together.
  static constexpr std::size_t kStealBatch = 4;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::int64_t> inFlight_{0};  ///< queued + being processed
  std::atomic<std::int64_t> queued_{0};    ///< queued only (wakeup hint)
  std::atomic<std::uint64_t> steals_{0};        ///< cross-shard item moves
  std::atomic<std::uint64_t> stealBatches_{0};  ///< cross-shard steal ops
  std::atomic<bool> stop_{false};
  std::mutex idleMu_;
  std::condition_variable cv_;
};

}  // namespace confail::sched
