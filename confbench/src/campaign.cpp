// campaign: a scenario x reduction x class grid run through the CLI as
// `confail submit` -> `confail serve --pool 4` -> `confail results`, with a
// fresh spool per pass.
//
// The only workload that exercises serve's store, journal and merge, the
// inject operators and per-shard worker spawn; sched runs many tiny trees.
// Set-up is the in-process serial fold of the job (the answer every served
// job must reproduce) plus, per pass, creating the spool and submitting the
// job; the timed part is serve to completion plus fetching the merged
// results.  The fold keeps set-up long enough to time steadily: spool
// creation and one submit take only a few milliseconds.  The seed is
// ignored: shards are deterministic.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "confail/inject/job_spec.hpp"
#include "confail/serve/client.hpp"
#include "confail/serve/merge.hpp"

namespace confbench {

namespace inject = confail::inject;
namespace serve = confail::serve;

namespace {

constexpr const char* kPool = "4";
constexpr const char* kSerialId = "confbench-serial";

}  // namespace

inject::JobSpec campaignSpec(const confail::obs::JsonValue& expect) {
  inject::JobSpec spec;
  spec.name = "confbench";
  const confail::obs::JsonValue* sc = expect.at("campaign.scenarios");
  const confail::obs::JsonValue* red = expect.at("campaign.reductions");
  if (sc == nullptr || red == nullptr || !sc->isArray() || !red->isArray()) {
    throw std::runtime_error("known answers: campaign grid missing");
  }
  for (const confail::obs::JsonValue& s : sc->array) {
    spec.scenarios.push_back(s.string);
  }
  spec.reductions.clear();
  for (const confail::obs::JsonValue& r : red->array) {
    confail::sched::ExhaustiveExplorer::Reduction v{};
    if (!inject::parseReduction(r.string, v)) {
      throw std::runtime_error("known answers: bad reduction " + r.string);
    }
    spec.reductions.push_back(v);
  }
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    throw std::runtime_error("known answers: campaign spec: " + problem);
  }
  return spec;
}

namespace {

/// The serial in-process fold every served job must reproduce.
serve::MergedReports serialFold(const inject::JobSpec& spec) {
  std::vector<inject::ShardResult> results;
  for (const inject::ShardSpec& s : inject::expandShards(spec)) {
    results.push_back(inject::runShard(spec, s));
  }
  return serve::mergeShards(spec, kSerialId, std::move(results));
}

std::string withJobId(std::string doc, const std::string& id) {
  const std::string from = kSerialId;
  for (std::string::size_type p = 0;
       (p = doc.find(from, p)) != std::string::npos; p += id.size()) {
    doc.replace(p, from.size(), id);
  }
  return doc;
}

std::string trimNewlines(std::string s) {
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

struct Served {
  std::string status;      ///< exit codes and job state, for diagnostics
  bool ok = false;         ///< status completed, 0 failed, all shards done
  bool matrixOk = false;
  std::string findings;    ///< merged findings, trailing newline stripped
};

}  // namespace

WorkloadResult runCampaign(const RunContext& ctx, Tracer& tracer) {
  WorkloadResult res;
  const inject::JobSpec spec = campaignSpec(ctx.expect);
  const confail::obs::JsonValue* shardsWant = ctx.expect.at("campaign.shards");
  const confail::obs::JsonValue* matrixWant = ctx.expect.at("campaign.matrix_ok");
  if (shardsWant == nullptr || matrixWant == nullptr) {
    throw std::runtime_error("known answers: campaign section malformed");
  }
  const auto shards = static_cast<std::uint64_t>(shardsWant->number);

  serve::MergedReports reference;
  const auto f0 = Clock::now();
  {
    Scope rs(tracer, "inject", "serial runShard + mergeShards");
    reference = serialFold(spec);
  }
  const double foldSec = secondsSince(f0);
  const std::string jobFile = ctx.workDir + "/campaign.job.json";
  if (!writeFile(jobFile, spec.toJson())) {
    throw std::runtime_error("cannot write " + jobFile);
  }

  auto gate = [&](const Served& s, const std::string& id,
                  const confail::obs::JsonValue& want, WorkloadResult& into) {
    bool ok = s.ok && s.matrixOk == want.at("campaign.matrix_ok")->boolean &&
              reference.matrixOk == s.matrixOk &&
              s.findings == withJobId(reference.findingsJson, id);
    if (!ok) {
      into.fail("campaign: job " + id + " (" + s.status + ") completed=" +
                std::to_string(s.ok) +
                " matrixOk=" + std::to_string(s.matrixOk) +
                " findings " +
                (s.findings == withJobId(reference.findingsJson, id)
                     ? "match"
                     : "differ from") +
                " the serial fold");
    }
    return ok;
  };

  Served last;
  std::string lastId;
  const auto start = Clock::now();
  for (int pass = 0; res.verdictSec.empty() || secondsSince(start) < ctx.seconds;
       ++pass) {
    const std::string root = ctx.workDir + "/spool-" + std::to_string(pass);
    const std::string idFile = ctx.workDir + "/job-id.txt";
    std::error_code ec;
    std::filesystem::remove_all(root, ec);

    // Set-up: a fresh spool and the submitted job.
    std::string id;
    {
      const auto t0 = Clock::now();
      Scope su(tracer, "tools", "confail submit");
      std::filesystem::create_directories(root, ec);
      const int rc = runProcess(
          {ctx.confail, "submit", "--root", root, "--job", jobFile}, idFile);
      readFile(idFile, id);
      id = trimNewlines(id);
      res.setupSec.push_back(foldSec + secondsSince(t0));
      if (rc != 0 || id.empty()) {
        res.fail("campaign: submit exited " + std::to_string(rc));
        break;
      }
    }

    const std::string findingsFile = ctx.workDir + "/findings.out.json";
    const std::string matrixFile = ctx.workDir + "/matrix.out.json";
    std::filesystem::remove(findingsFile, ec);
    std::filesystem::remove(matrixFile, ec);
    const auto t0 = Clock::now();
    int serveRc = 0;
    int resultsRc = 0;
    {
      Scope ss(tracer, "tools", "confail serve");
      serveRc = runProcess({ctx.confail, "serve", "--root", root, "--pool",
                            kPool, "--exit-when-idle"},
                           "");
    }
    {
      Scope rs(tracer, "tools", "confail results");
      resultsRc = runProcess({ctx.confail, "results", "--root", root, "--job",
                              id, "--json-out", findingsFile, "--matrix-out",
                              matrixFile},
                             "");
    }
    res.verdictSec.push_back(secondsSince(t0));

    Scope g(tracer, "bench", "gate");
    Served s;
    serve::JobState st;
    s.ok = serveRc == 0 && resultsRc == 0 && serve::jobStatus(root, id, st) &&
           st.status == "completed" && st.shardsFailed == 0 &&
           st.shardsDone == shards && st.shardsTotal == shards;
    s.status = "serve exit " + std::to_string(serveRc) + ", results exit " +
               std::to_string(resultsRc) + ", " + st.status + " " +
               std::to_string(st.shardsDone) + "/" +
               std::to_string(st.shardsTotal) + " shards, " +
               std::to_string(st.shardsFailed) + " failed";
    std::string matrix;
    if (readFile(matrixFile, matrix)) {
      const confail::obs::JsonValue m = confail::obs::parseJson(matrix);
      const confail::obs::JsonValue* ok = m.get("ok");
      s.matrixOk = ok != nullptr && ok->boolean;
    }
    readFile(findingsFile, s.findings);
    s.findings = trimNewlines(s.findings);
    res.attempted += shards;
    res.failed += s.ok ? 0 : std::max<std::uint64_t>(st.shardsFailed, 1);
    gate(s, id, ctx.expect, res);
    last = s;
    lastId = id;
    std::filesystem::remove_all(root, ec);
  }
  res.workPerPass = static_cast<double>(shards);

  // Liveness: a known-answer file with the matrix verdict flipped must trip.
  WorkloadResult flipped;
  if (!lastId.empty() &&
      gate(last, lastId, flippedExpect(ctx, "campaign", "matrix_ok"), flipped)) {
    res.fail("campaign: flipped known answer did not trip the gate");
  }
  return res;
}

}  // namespace confbench
