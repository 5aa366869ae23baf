// ThreadPool: a fixed-size worker pool fed by a bounded task queue — the
// kind of composite component the paper's intro motivates (components
// "come to life through objects ... one or more classes").  Built entirely
// on the instrumented substrate: BoundedBuffer for the queue, monitor
// wait/notify for idle workers, so the whole pool is analyzable by the
// same detectors, model validation and CoFG coverage as the primitives.
#pragma once

#include <functional>
#include <string>

#include "confail/components/bounded_buffer.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/components/latch.hpp"
#include "confail/monitor/runtime.hpp"

namespace confail::components {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Creates `workers` logical threads immediately (they run once the
  /// scheduler runs).  `queueCapacity` bounds submit().
  ThreadPool(monitor::Runtime& rt, const std::string& name, int workers,
             std::size_t queueCapacity);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; blocks while the queue is full.  Tasks that throw are
  /// counted as failed, not propagated (a pool must survive bad tasks).
  void submit(Task task);

  /// Stop accepting work and release every worker once the queue drains.
  /// Blocks (on the pool's latch) until all workers have exited.
  void shutdown();

  int completedTasks() const { return completed_.peek(); }
  int failedTasks() const { return failed_.peek(); }

 private:
  struct Slot {
    Task task;  // empty task == poison pill
  };

  void workerLoop();

  monitor::Runtime& rt_;
  int workers_;
  BoundedBuffer<Slot> queue_;
  monitor::Monitor stats_;  // guards the two counters below
  monitor::SharedVar<int> completed_;
  monitor::SharedVar<int> failed_;
  CountDownLatch exited_;
};

}  // namespace confail::components
