// explore: bounded exhaustive exploration of a fixed job list at 4 workers.
//
// Full enumeration on fig2 and ff_t5_small (many cheap snapshot-restored
// runs), DPOR on ff_t5 (few runs, heavy race analysis) and the tiny
// lock_order / gen_* trees.  The seed is ignored: the trees are exhaustive.
// The verdict of each job (tree exhausted, deadlock present, distinct
// deadlock states) is gated against the known-answer file on every pass.
#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "confail/components/scenario_registry.hpp"
#include "confail/inject/explore_config.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/sched/strategy.hpp"

namespace confbench {

namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;

namespace {

constexpr std::size_t kWorkers = 4;

struct Job {
  const scenarios::NamedScenario* scenario = nullptr;
  sched::ExhaustiveExplorer::Reduction reduction =
      sched::ExhaustiveExplorer::Reduction::None;
  std::size_t depth = 0;
  std::string label;
};

struct Verdict {
  bool exhausted = false;
  bool deadlock = false;
  std::size_t distinct = 0;
  std::vector<sched::ThreadId> firstFailure;
};

std::vector<Job> loadJobs(const confail::obs::JsonValue& expect) {
  const confail::obs::JsonValue* jobs = expect.at("explore.jobs");
  if (jobs == nullptr || !jobs->isArray() || jobs->array.empty()) {
    throw std::runtime_error("known answers: explore.jobs missing");
  }
  std::vector<Job> out;
  for (const confail::obs::JsonValue& j : jobs->array) {
    Job job;
    const confail::obs::JsonValue* sc = j.get("scenario");
    const confail::obs::JsonValue* red = j.get("reduction");
    const confail::obs::JsonValue* depth = j.get("depth");
    if (sc == nullptr || red == nullptr || depth == nullptr ||
        !depth->isNumber()) {
      throw std::runtime_error("known answers: malformed explore job");
    }
    job.scenario = scenarios::find(sc->string);
    if (job.scenario == nullptr ||
        !confail::inject::parseReduction(red->string, job.reduction)) {
      throw std::runtime_error("known answers: unknown scenario/reduction " +
                               sc->string + "/" + red->string);
    }
    job.depth = static_cast<std::size_t>(depth->number);
    job.label = sc->string + " " + red->string + " d" +
                std::to_string(job.depth);
    out.push_back(job);
  }
  return out;
}

Verdict exploreJob(const Job& job, std::size_t depth) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = 50'000'000;
  eo.maxSteps = 20000;
  eo.maxBranchDepth = depth;
  eo.workers = kWorkers;
  eo.reduction = job.reduction;
  std::set<std::uint64_t> states;  // callbacks are serialized by the explorer
  const sched::ExhaustiveExplorer::Stats st =
      sched::ExhaustiveExplorer(eo).explore(
          job.scenario->fn,
          [&](const std::vector<sched::ThreadId>&, const sched::RunResult& r) {
            if (r.outcome == sched::Outcome::Deadlock) {
              states.insert(
                  confail::inject::ExploreConfig::deadlockSignature(r));
            }
            return true;
          });
  Verdict v;
  v.exhausted = st.exhausted;
  v.deadlock = st.deadlocks > 0;
  v.distinct = states.size();
  v.firstFailure = st.firstFailure;
  return v;
}

/// Compare one pass's verdicts with the known answers; returns the number
/// of jobs whose verdict is wrong or whose tree was not exhausted.
std::size_t gate(const confail::obs::JsonValue& expect,
                 const std::vector<Job>& jobs,
                 const std::vector<Verdict>& got, WorkloadResult& res) {
  const std::vector<confail::obs::JsonValue>& want =
      expect.at("explore.jobs")->array;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const confail::obs::JsonValue* ex = want[i].get("exhausted");
    const confail::obs::JsonValue* dl = want[i].get("deadlock");
    const confail::obs::JsonValue* ds = want[i].get("distinct_deadlock_states");
    const bool ok = ex != nullptr && dl != nullptr && ds != nullptr &&
                    got[i].exhausted && ex->boolean &&
                    got[i].deadlock == dl->boolean &&
                    got[i].distinct == static_cast<std::size_t>(ds->number);
    if (!ok) {
      ++wrong;
      res.fail("explore " + jobs[i].label + ": exhausted=" +
               std::to_string(got[i].exhausted) +
               " deadlock=" + std::to_string(got[i].deadlock) +
               " distinct=" + std::to_string(got[i].distinct) +
               " differs from the known answer");
    }
  }
  return wrong;
}

/// Reductions must agree at the same bound: every pair of jobs on one
/// scenario and depth reports the same deadlock verdict, distinct-state
/// count and canonical witness.
void gateAgreement(const std::vector<Job>& jobs,
                   const std::vector<Verdict>& got, WorkloadResult& res) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (std::size_t j = i + 1; j < jobs.size(); ++j) {
      if (jobs[i].scenario != jobs[j].scenario ||
          jobs[i].depth != jobs[j].depth) {
        continue;
      }
      if (got[i].deadlock != got[j].deadlock ||
          got[i].distinct != got[j].distinct ||
          got[i].firstFailure != got[j].firstFailure) {
        res.fail("explore: " + jobs[i].label + " and " + jobs[j].label +
                 " disagree");
      }
    }
  }
}

/// The canonical witness of every deadlocking job must replay to a
/// deadlock under PrefixReplayStrategy.
void gateReplay(const std::vector<Job>& jobs, const std::vector<Verdict>& got,
                WorkloadResult& res) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!got[i].deadlock) continue;
    sched::PrefixReplayStrategy strategy(got[i].firstFailure);
    sched::VirtualScheduler s(strategy);
    jobs[i].scenario->fn(s);
    if (s.run().outcome != sched::Outcome::Deadlock) {
      res.fail("explore " + jobs[i].label +
               ": firstFailure does not replay to a deadlock");
    }
  }
}

}  // namespace

WorkloadResult runExplore(const RunContext& ctx, Tracer& tracer) {
  WorkloadResult res;
  std::vector<Job> jobs;

  // Set-up: resolve the job list and warm every job's explorer (worker
  // threads, arenas, snapshot pools) on its first six branch levels, enough
  // work that thread start-up jitter does not dominate the set-up time.
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    Scope span(tracer, "bench", "setup");
    jobs = loadJobs(ctx.expect);
    for (const Job& job : jobs) {
      Scope js(tracer, "sched", "warm " + job.label);
      (void)exploreJob(job, std::min<std::size_t>(job.depth, 6));
    }
    res.setupSec.push_back(secondsSince(t0));
  }

  std::vector<Verdict> got(jobs.size());
  const auto start = Clock::now();
  while (res.verdictSec.empty() || secondsSince(start) < ctx.seconds) {
    Scope pass(tracer, "bench", "pass");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Scope js(tracer, "sched", "explore " + jobs[i].label);
      got[i] = exploreJob(jobs[i], jobs[i].depth);
    }
    res.verdictSec.push_back(secondsSince(t0));
    Scope g(tracer, "bench", "gate");
    res.attempted += jobs.size();
    res.failed += gate(ctx.expect, jobs, got, res);
  }
  res.workPerPass = static_cast<double>(jobs.size());

  Scope probes(tracer, "bench", "probes");
  gateAgreement(jobs, got, res);
  {
    Scope rs(tracer, "sched", "replay witnesses");
    gateReplay(jobs, got, res);
  }
  // Liveness: a known-answer file with one verdict flipped must trip.
  WorkloadResult flipped;
  if (gate(flippedExpect(ctx, "explore", "deadlock"), jobs, got, flipped) ==
      0) {
    res.fail("explore: flipped known answer did not trip the gate");
  }
  return res;
}

}  // namespace confbench
