// confbench: the confail benchmark harness.
//
//   confbench --workload explore|fuzz|ingest|campaign --seed N --seconds S
//             --trace 0|1 --confail PATH --expect FILE --work-dir DIR
//
// Untraced (--trace 0): set up, run closed-loop timed passes for S seconds,
// gate every pass against the known-answer file, run the liveness probes,
// and print one JSON line with the end-to-end metrics (peak RSS is added by
// run.py, which measures it from outside).
//
// Traced (--trace 1): run the workload untraced and then traced, report each
// layer's self time and the tracing overhead on stderr and in
// DIR/spans-<workload>.json, then run the layer ledger and print one JSON
// line with the per-layer metrics.
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"

namespace confbench {
namespace {

int usage() {
  std::fprintf(stderr,
               "usage: confbench --workload explore|fuzz|ingest|campaign "
               "--seed N --seconds S --trace 0|1\n"
               "                 --confail PATH --expect FILE --work-dir DIR\n");
  return 2;
}

WorkloadResult runWorkload(const RunContext& ctx, Tracer& tracer) {
  if (ctx.workload == "explore") return runExplore(ctx, tracer);
  if (ctx.workload == "fuzz") return runFuzz(ctx, tracer);
  if (ctx.workload == "ingest") return runIngest(ctx, tracer);
  return runCampaign(ctx, tracer);
}

/// The result line: {"correct", "attempted", "failed", "metrics"} with
/// every metric value printed at full precision.
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

void report(const WorkloadResult& r, const std::string& workload) {
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "confbench %s: FAIL %s\n", workload.c_str(),
                 p.c_str());
  }
  std::fprintf(stderr,
               "confbench %s: %zu set-ups (median %.4f s), %zu passes "
               "(median %.4f s, %.0f units each), attempted %llu, failed "
               "%llu\n",
               workload.c_str(), r.setupSec.size(), median(r.setupSec),
               r.verdictSec.size(), median(r.verdictSec), r.workPerPass,
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::string passes;
  for (double v : r.verdictSec) passes += " " + std::to_string(v);
  std::fprintf(stderr, "confbench %s: pass seconds%s\n", workload.c_str(),
               passes.c_str());
}

int runMain(RunContext& ctx, bool traced) {
  ctx.expect = loadExpect(ctx.expectPath);
  std::fprintf(stderr, "confbench: hardware_concurrency %u, workload %s, "
               "seed %llu, %s\n",
               std::thread::hardware_concurrency(), ctx.workload.c_str(),
               static_cast<unsigned long long>(ctx.seed),
               traced ? "traced" : "untraced");

  Tracer off(false);
  const WorkloadResult base = runWorkload(ctx, off);
  report(base, ctx.workload);
  bool correct = base.problems.empty();
  std::uint64_t attempted = base.attempted;
  std::uint64_t failed = base.failed;

  Metrics metrics;
  if (!traced) {
    const double verdict = median(base.verdictSec);
    metrics["setup_s"] = {median(base.setupSec), "s"};
    metrics["verdict_s"] = {verdict, "s"};
    metrics["work_per_s"] = {verdict > 0 ? base.workPerPass / verdict : 0.0,
                             "1/s"};
    metrics["decided_share"] = {base.decidedShare, "ratio"};
  } else {
    Tracer tracer(true);
    const int root = tracer.begin("bench", "traced " + ctx.workload);
    const WorkloadResult tr = runWorkload(ctx, tracer);
    tracer.end(root);
    report(tr, ctx.workload + " (traced)");
    correct = correct && tr.problems.empty();
    attempted += tr.attempted;
    failed += tr.failed;

    const Tracer::Span& rs = tracer.spans()[static_cast<std::size_t>(root)];
    const double total = static_cast<double>(rs.endNs - rs.startNs) / 1e9;
    const double untracedV = median(base.verdictSec);
    const double tracedV = median(tr.verdictSec);
    std::fprintf(stderr,
                 "confbench %s: tracing overhead %+.4f s per pass "
                 "(traced %.4f s, untraced %.4f s, %+.2f%%)\n",
                 ctx.workload.c_str(), tracedV - untracedV, tracedV,
                 untracedV,
                 untracedV > 0 ? 100.0 * (tracedV - untracedV) / untracedV
                               : 0.0);
    std::fprintf(stderr, "confbench %s: %zu spans; layer self time over "
                 "%.3f s (bench = harness code and gates, the uncovered "
                 "remainder)\n",
                 ctx.workload.c_str(), tracer.spans().size(), total);
    for (const auto& [layer, sec] : tracer.selfSecondsByLayer()) {
      std::fprintf(stderr, "  %-8s %9.4f s  %6.2f%%\n", layer.c_str(), sec,
                   total > 0 ? 100.0 * sec / total : 0.0);
    }
    if (!writeFile(ctx.workDir + "/spans-" + ctx.workload + ".json",
                   tracer.toJson())) {
      std::fprintf(stderr, "confbench: cannot write spans\n");
    }

    Tracer ledgerTracer(false);
    std::vector<std::string> problems;
    metrics = runLedger(ctx, ledgerTracer, problems);
    for (const std::string& p : problems) {
      std::fprintf(stderr, "confbench: FAIL %s\n", p.c_str());
    }
    correct = correct && problems.empty();
  }
  std::printf("%s\n", resultLine(correct, attempted, failed, metrics).c_str());
  return 0;
}
}  // namespace
}  // namespace confbench

int main(int argc, char** argv) {
  confbench::RunContext ctx;
  bool traced = false;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return confbench::usage();
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        ctx.workload = v;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(v);
        haveSeed = true;
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(v);
      } else if (arg == "--trace") {
        traced = v == "1";
      } else if (arg == "--confail") {
        ctx.confail = v;
      } else if (arg == "--expect") {
        ctx.expectPath = v;
      } else if (arg == "--work-dir") {
        ctx.workDir = v;
      } else {
        return confbench::usage();
      }
    } catch (const std::exception&) {
      return confbench::usage();
    }
  }
  if ((ctx.workload != "explore" && ctx.workload != "fuzz" &&
       ctx.workload != "ingest" && ctx.workload != "campaign") ||
      !haveSeed || ctx.seconds <= 0 || ctx.confail.empty() ||
      ctx.expectPath.empty() || ctx.workDir.empty()) {
    return confbench::usage();
  }
  try {
    return confbench::runMain(ctx, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "confbench: %s\n", e.what());
    return 3;
  }
}
