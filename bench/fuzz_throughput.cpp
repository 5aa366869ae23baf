// Fuzz harness throughput: how fast the generator draws programs and how
// fast the differential-oracle battery chews through them.
//
// Two figures, emitted as BENCH_fuzz.json (schema mirrors the other
// committed BENCH_* documents):
//
//   1. Generation — programs/sec of generate() alone over a fixed seed
//      block, for the default and cleanOnly tiers.  Pure IR construction;
//      no exploration.  Also reports the mean op count as a sanity anchor
//      (a generator that shrank to trivial programs would look "faster").
//
//   2. Oracles — a full runFuzz() campaign (both tiers, all oracles, no
//      failures expected) over a seed block, reporting generated
//      programs/sec and oracle explorer-runs/sec end to end.  The campaign
//      must come back FUZZ OK: a bench that benchmarks a failing harness
//      measures nothing.
//
// `--smoke` shrinks both blocks so the binary finishes in a couple of
// seconds; the bench_smoke target runs that mode and leaves its
// BENCH_fuzz.json in the build tree.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_json.hpp"
#include "confail/gen/fuzz.hpp"
#include "confail/gen/generator.hpp"

namespace gen = confail::gen;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bool ok = true;

  std::printf("=== Fuzz harness throughput (%s mode) ===\n\n",
              smoke ? "smoke" : "full");

  confail::benchjson::Writer json;
  json.beginObject();
  json.field("bench", "fuzz_throughput");
  json.field("smoke", smoke);

  // ---- 1. raw generation ---------------------------------------------------
  const std::uint64_t genSeeds = smoke ? 2000 : 20000;
  json.key("generation");
  json.beginArray();
  for (const bool clean : {false, true}) {
    gen::GenConfig cfg;
    cfg.cleanOnly = clean;
    if (clean) cfg.allowWaitNotify = false;
    std::uint64_t totalOps = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t seed = 0; seed < genSeeds; ++seed) {
      const gen::Program p = gen::generate(seed, cfg);
      totalOps += p.opCount();
      if (!p.validate()) {
        std::printf("FAIL: seed %llu (%s tier) does not validate\n",
                    static_cast<unsigned long long>(seed),
                    clean ? "clean" : "default");
        ok = false;
      }
    }
    const double sec = secondsSince(t0);
    const double pps = sec > 0.0 ? static_cast<double>(genSeeds) / sec : 0.0;
    const double meanOps =
        static_cast<double>(totalOps) / static_cast<double>(genSeeds);
    std::printf("generation (%s tier): %llu programs in %.2fs "
                "(%.0f programs/sec, mean %.1f ops)\n",
                clean ? "clean" : "default",
                static_cast<unsigned long long>(genSeeds), sec, pps, meanOps);
    json.beginObject();
    json.field("tier", clean ? "clean" : "default");
    json.field("programs", genSeeds);
    json.field("seconds", sec);
    json.field("programs_per_sec", pps);
    json.field("mean_op_count", meanOps);
    json.endObject();
  }
  json.endArray();

  // ---- 2. oracle campaign --------------------------------------------------
  gen::FuzzOptions opts;
  opts.seedBegin = 0;
  opts.seedEnd = smoke ? 40 : 200;
  opts.oracle.checkClean = true;  // both tiers, all five oracles
  const gen::FuzzReport report = gen::runFuzz(opts);
  std::printf("\noracles: %llu seeds, %llu programs, %llu checks "
              "(%llu skipped), %llu explorer runs in %.2fs\n",
              static_cast<unsigned long long>(report.seedsRun),
              static_cast<unsigned long long>(report.programsGenerated),
              static_cast<unsigned long long>(report.oracleChecks),
              static_cast<unsigned long long>(report.oracleSkips),
              static_cast<unsigned long long>(report.exploreRuns),
              report.elapsedSec);
  std::printf("         %.1f programs/sec, %.0f oracle runs/sec\n",
              report.programsPerSec(), report.oracleRunsPerSec());
  if (!report.ok()) {
    std::printf("FAIL: the oracle campaign found failures:\n%s",
                report.human().c_str());
    ok = false;
  }

  json.key("oracles");
  json.beginObject();
  json.field("seeds", report.seedsRun);
  json.field("programs", report.programsGenerated);
  json.field("oracle_checks", report.oracleChecks);
  json.field("oracle_skips", report.oracleSkips);
  json.field("explorer_runs", report.exploreRuns);
  json.field("seconds", report.elapsedSec);
  json.field("programs_per_sec", report.programsPerSec());
  json.field("oracle_runs_per_sec", report.oracleRunsPerSec());
  json.field("ok", report.ok());
  json.endObject();
  json.endObject();

  if (!json.writeFile("BENCH_fuzz.json")) {
    std::printf("FAIL: could not write BENCH_fuzz.json\n");
    ok = false;
  } else {
    std::printf("\nwrote BENCH_fuzz.json\n");
  }

  std::printf("\n%s\n", ok ? "FUZZ THROUGHPUT: OK" : "FUZZ THROUGHPUT: FAILURES");
  return ok ? 0 : 1;
}
