// Server: the `confail serve` daemon loop.
//
// One instance owns a CampaignStore root and runs jobs to completion:
//
//   scan queue/ -> adopt job -> expand shards -> dispatch to worker pool
//     -> reap results -> state -> merge when all shards landed
//
// Shards run in worker subprocesses by default (`<self> worker --job ...
// --shard N --out ...`), so a shard that crashes or is killed takes down
// only its own process: the daemon reaps the failure, retries once and
// otherwise records the shard as failed without losing the job.  An
// in-process pool (threads calling inject::runShard directly) backs tests
// and sanitizer builds where fork+exec is unavailable or unsafe.
//
// Resume is structural, not transactional: a shard is complete iff its
// result file exists and parses (the store writes it atomically), so a
// daemon restarted over an existing root — including after SIGKILL —
// re-expands each unfinished job and dispatches only the missing shards.
// Completed shard files are never rewritten.  The shard file is the only
// record of a shard's completion: the event feed and the merged reports are
// all derived from the shard files once the last one lands.
//
// Observability: progress counters live in an obs::Registry
// (serve.jobs_adopted, serve.shards_completed, serve.shards_failed,
// serve.heartbeats, gauges serve.jobs_active / serve.workers_busy); each
// loop iteration snapshots them to `metricsOut`.  On completion every
// shard's captured run is written, in shard order, to the job's
// events.jsonl.
#pragma once

#include <cstdint>
#include <string>

#include "confail/serve/store.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::serve {

struct ServerOptions {
  std::string root;          ///< spool directory (required)
  std::size_t poolSize = 2;  ///< concurrent shard workers
  /// Run shards as worker subprocesses (crash isolation).  false = run
  /// them on in-process threads.
  bool subprocess = true;
  /// Worker binary; empty = /proc/self/exe (the running confail binary).
  std::string workerBinary;
  std::uint64_t pollMs = 25;  ///< idle loop sleep
  /// Exit once the queue is empty and no job is in flight (one-shot batch
  /// mode; the tests run the daemon this way).  A drain request always
  /// ends the loop the same way.
  bool exitWhenIdle = false;
  /// Stop after this many merged jobs (0 = unlimited).
  std::uint64_t maxJobs = 0;
  /// Snapshot the metrics registry here every loop iteration ("" = off).
  std::string metricsOut;
  obs::Registry* metrics = nullptr;  ///< optional external registry
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Run the daemon loop until drained / idle-exit / maxJobs.  Returns 0
  /// when every completed job merged cleanly, 1 when any job failed, 3 on
  /// an unusable root.
  int run();

  const CampaignStore& store() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace confail::serve
