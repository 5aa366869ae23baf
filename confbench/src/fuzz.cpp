// fuzz: gen::runFuzz with all seven oracles over a fixed base window plus a
// seed-chosen window.
//
// Thousands of tiny generated programs: the replay side of
// incremental-vs-replay runs on the OS-thread scheduler backend, and the
// detector battery, the streaming ingest path and the Petri cross-check run
// lightly.  The worker-determinism oracle compares worker counts within
// nproc instead of its default {1,2,8}.
#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "confail/gen/fuzz.hpp"
#include "confail/gen/generator.hpp"

namespace confbench {

namespace gen = confail::gen;

confail::gen::FuzzOptions fuzzOptions(std::uint64_t begin,
                                      std::uint64_t count) {
  gen::FuzzOptions fo;
  fo.seedBegin = begin;
  fo.seedEnd = begin + count;
  fo.oracle.checkClean = true;
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  fo.oracle.workerCounts = {1, std::min<std::size_t>(2, hw),
                            std::min<std::size_t>(4, hw)};
  return fo;
}

WorkloadResult runFuzz(const RunContext& ctx, Tracer& tracer) {
  WorkloadResult res;
  const std::uint64_t seeded = kFuzzBase + ctx.seed * kFuzzSeeded;
  const std::vector<gen::FuzzOptions> windows = {
      fuzzOptions(0, kFuzzBase), fuzzOptions(seeded, kFuzzSeeded)};
  const std::string label = "seeds 0.." + std::to_string(kFuzzBase) + " and " +
                            std::to_string(seeded) + ".." +
                            std::to_string(seeded + kFuzzSeeded);

  // Set-up: draw the default-tier and clean-tier programs of both windows,
  // and warm the oracle machinery on one fixed seed.
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    Scope span(tracer, "bench", "setup");
    std::size_t bytes = 0;
    for (const gen::FuzzOptions& fo : windows) {
      gen::GenConfig clean = fo.cfg;
      clean.cleanOnly = true;
      for (std::uint64_t s = fo.seedBegin; s < fo.seedEnd; ++s) {
        Scope gs(tracer, "gen", "generate");
        bytes += gen::generate(s, fo.cfg).render().size() +
                 gen::generate(s, clean).render().size();
      }
    }
    if (bytes == 0) res.fail("fuzz: generator produced empty programs");
    {
      Scope ws(tracer, "gen", "runFuzz warm-up");
      if (!gen::runFuzz(fuzzOptions(0, 1)).ok()) {
        res.fail("fuzz: warm-up seed 0 failed an oracle");
      }
    }
    res.setupSec.push_back(secondsSince(t0));
  }

  const confail::obs::JsonValue* pass = ctx.expect.at("fuzz.all_oracles_pass");
  const bool expectPass = pass != nullptr && pass->boolean;
  std::uint64_t checks = 0;
  std::uint64_t skips = 0;
  std::size_t lastFailures = 0;
  const auto start = Clock::now();
  while (res.verdictSec.empty() || secondsSince(start) < ctx.seconds) {
    std::vector<gen::FuzzReport> reports;
    const auto t0 = Clock::now();
    for (const gen::FuzzOptions& fo : windows) {
      Scope fs(tracer, "gen", "runFuzz");
      reports.push_back(gen::runFuzz(fo));
    }
    res.verdictSec.push_back(secondsSince(t0));
    Scope g(tracer, "bench", "gate");
    std::uint64_t seedsRun = 0;
    lastFailures = 0;
    std::string first;
    for (const gen::FuzzReport& rep : reports) {
      checks += rep.oracleChecks;
      skips += rep.oracleSkips;
      res.attempted += rep.oracleChecks;
      seedsRun += rep.seedsRun;
      lastFailures += rep.failures.size();
      if (first.empty() && !rep.failures.empty()) {
        first = " (first: " + rep.failures[0].oracle + " on seed " +
                std::to_string(rep.failures[0].seed) + ")";
      }
    }
    res.failed += lastFailures;
    if ((lastFailures == 0) != expectPass ||
        seedsRun != kFuzzBase + kFuzzSeeded) {
      res.fail("fuzz: " + label + " ran " + std::to_string(seedsRun) +
               " seeds with " + std::to_string(lastFailures) +
               " failing oracles" + first);
    }
  }
  res.workPerPass = static_cast<double>(kFuzzBase + kFuzzSeeded);
  res.decidedShare = checks + skips == 0
                         ? 0.0
                         : static_cast<double>(checks) /
                               static_cast<double>(checks + skips);

  Scope probes(tracer, "bench", "probes");
  // Liveness: the drop-deadlocks sabotage must be caught (shrink off, on
  // the window whose first deadlocking seed is 0), and a known-answer file
  // claiming failures must trip the gate.
  {
    Scope ss(tracer, "gen", "runFuzz sabotage");
    gen::FuzzOptions so = fuzzOptions(0, 40);
    so.oracle.sabotage = gen::Sabotage::DropDeadlocks;
    so.shrinkFailures = false;
    so.maxFailures = 1;
    if (gen::runFuzz(so).failures.empty()) {
      res.fail("fuzz: drop-deadlocks sabotage was not detected");
    }
  }
  const confail::obs::JsonValue flipped =
      flippedExpect(ctx, "fuzz", "all_oracles_pass");
  const confail::obs::JsonValue* fp = flipped.at("fuzz.all_oracles_pass");
  if (fp == nullptr || fp->boolean == (lastFailures == 0)) {
    res.fail("fuzz: flipped known answer did not trip the gate");
  }
  return res;
}

}  // namespace confbench
