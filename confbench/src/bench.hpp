// Shared declarations of the confbench harness: the in-memory span tracer,
// the per-workload result record, the known-answer file and small process
// helpers.  Everything here runs on the harness's main thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "confail/events/trace.hpp"
#include "confail/gen/fuzz.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/obs/json.hpp"

namespace confbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Spans recorded around the harness's calls into each library layer.  Kept
/// in memory; written out once when the run ends.  With tracing off every
/// call is a single branch.
class Tracer {
 public:
  struct Span {
    std::string layer;  ///< sched, gen, ingest, detect, serve, tools, bench...
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;    ///< index into spans(), -1 for a root
  };

  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  bool on() const { return on_; }

  int begin(const std::string& layer, const std::string& name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in seconds: each span's duration minus the part
  /// its children cover.
  std::map<std::string, double> selfSecondsByLayer() const;

  /// The spans as a JSON document (name, layer, start/end ns, parent).
  std::string toJson() const;

 private:
  std::int64_t nowNs() const;

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& t, const std::string& layer, const std::string& name)
      : t_(t), id_(t.on() ? t.begin(layer, name) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload measured.  Times are per repetition; main() reports
/// their medians.
struct WorkloadResult {
  std::vector<double> setupSec;    ///< one entry per set-up repetition
  std::vector<double> verdictSec;  ///< one entry per timed pass
  double workPerPass = 0.0;        ///< seeds / events / jobs / shards per pass
  double decidedShare = 1.0;       ///< verdicts reached / verdicts attempted
  std::uint64_t attempted = 0;     ///< operations attempted (all passes)
  std::uint64_t failed = 0;        ///< operations failed (all passes)
  std::vector<std::string> problems;  ///< gate and probe failures

  void fail(const std::string& why) { problems.push_back(why); }
};

struct RunContext {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  std::string confail;     ///< path of the built `confail` binary
  std::string workDir;     ///< working directory inside the checkout
  std::string expectPath;  ///< the hand-maintained known-answer file
  confail::obs::JsonValue expect;  ///< its parsed contents
};

/// The four workloads.  Each sets up (several times), then runs closed-loop
/// timed passes for ctx.seconds, gating every pass against the known
/// answers, then runs its liveness probes outside the timed phase.  Spans
/// go to `tracer` (a no-op when it is off).
WorkloadResult runExplore(const RunContext& ctx, Tracer& tracer);
WorkloadResult runFuzz(const RunContext& ctx, Tracer& tracer);
WorkloadResult runIngest(const RunContext& ctx, Tracer& tracer);
WorkloadResult runCampaign(const RunContext& ctx, Tracer& tracer);

// ---- workload inputs, shared with the ledger --------------------------------

/// A fuzz pass checks a fixed base window [0, kFuzzBase) plus a window of
/// kFuzzSeeded seeds chosen by the workload seed, starting at
/// kFuzzBase + seed * kFuzzSeeded.  Per-program cost varies several-fold
/// between seeds, so a window drawn by the seed alone makes the figures
/// depend on which seed the benchmark ran; the base keeps most of the work
/// common to every seed.
inline constexpr std::uint64_t kFuzzBase = 32;
inline constexpr std::uint64_t kFuzzSeeded = 2;

/// runFuzz options over [begin, begin + count): all seven oracles, the
/// worker-determinism oracle at worker counts within nproc.
confail::gen::FuzzOptions fuzzOptions(std::uint64_t begin,
                                      std::uint64_t count);

/// The ingest stream: a seeded random-walk run of a correct BoundedBuffer
/// and a ReadersWriters with the unsynced-endRead fault.  Returns false
/// (with `why`) when the run did not complete.
bool recordStream(std::uint64_t seed, confail::events::Trace& trace,
                  std::string& why);

/// The campaign job spec named by the known-answer file.
confail::inject::JobSpec campaignSpec(const confail::obs::JsonValue& expect);

/// The traced run's layer ledger: every per-layer metric, measured by
/// probes with fixed inputs so the same rows appear on every workload.
/// Probe failures are appended to `problems`.
Metrics runLedger(const RunContext& ctx, Tracer& tracer,
                  std::vector<std::string>& problems);

// ---- helpers (support.cpp) -------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q);

bool readFile(const std::string& path, std::string& out);
bool writeFile(const std::string& path, const std::string& text);

/// Load and parse a known-answer file; throws on malformed input.
confail::obs::JsonValue loadExpect(const std::string& path);

/// Liveness probe input: a temporary copy of the known-answer file with the
/// first boolean `key` after `"section"` flipped, written to ctx.workDir
/// and parsed back.  Throws when the key is absent.
confail::obs::JsonValue flippedExpect(const RunContext& ctx,
                                      const std::string& section,
                                      const std::string& key);

/// Spawn `argv` (argv[0] is a path), wait for it, return its exit status
/// (128 + signal when killed, -1 when it could not start).  stdout goes to
/// `stdoutPath` ("" = /dev/null), stderr to /dev/null.
int runProcess(const std::vector<std::string>& argv,
               const std::string& stdoutPath);

/// Bytes and regular files under `dir`, recursively.
void countTree(const std::string& dir, std::uint64_t& files,
               std::uint64_t& bytes);

}  // namespace confbench
