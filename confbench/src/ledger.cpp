// The layer ledger of the traced run: one probe per layer boundary, each
// calling the layer's public functions directly with fixed inputs, so every
// per-layer row appears on every workload and means the same thing there.
// The comment on each probe names the end-to-end metric the row should
// move.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "confail/components/scenario_registry.hpp"
#include "confail/detect/report_sink.hpp"
#include "confail/detect/streaming_suite.hpp"
#include "confail/detect/suite.hpp"
#include "confail/gen/generator.hpp"
#include "confail/gen/oracle.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/ingest/pipeline.hpp"
#include "confail/ingest/ring.hpp"
#include "confail/obs/metrics.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/petri/cross_check.hpp"
#include "confail/petri/reachability.hpp"
#include "confail/petri/thread_lock_net.hpp"
#include "confail/sched/explorer.hpp"
#include "confail/sched/strategy.hpp"
#include "confail/serve/merge.hpp"

namespace confbench {

namespace detect = confail::detect;
namespace events = confail::events;
namespace gen = confail::gen;
namespace ingest = confail::ingest;
namespace inject = confail::inject;
namespace obs = confail::obs;
namespace petri = confail::petri;
namespace sched = confail::sched;
namespace scenarios = confail::components::scenarios;
namespace serve = confail::serve;

namespace {

using Reduction = sched::ExhaustiveExplorer::Reduction;

double histogramMean(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::Snapshot::HistogramStats& h : snap.histograms) {
    if (h.name == name) return h.mean;
  }
  return 0.0;
}

/// "happens-before(vector-clock)" -> "happens-before": metric names allow
/// letters, digits, '_', '.' and '-'.
std::string coreKey(const char* core) {
  std::string out;
  for (const char* c = core; *c != '\0' && *c != '('; ++c) {
    out += std::isalnum(static_cast<unsigned char>(*c)) || *c == '-' ? *c : '_';
  }
  return out;
}

sched::ExhaustiveExplorer::Stats explore(const std::string& scenario,
                                         Reduction r, std::size_t depth,
                                         std::size_t workers, bool incremental,
                                         std::uint64_t maxRuns,
                                         obs::Registry* metrics) {
  sched::ExhaustiveExplorer::Options eo;
  eo.maxRuns = maxRuns;
  eo.maxSteps = 20000;
  eo.maxBranchDepth = depth;
  eo.workers = workers;
  eo.reduction = r;
  eo.incremental = incremental;
  eo.metrics = metrics;
  return sched::ExhaustiveExplorer(eo).explore(scenarios::find(scenario)->fn);
}

// sched: explorer counters on a snapshot-restore-heavy tree and a DPOR tree
// -> verdict_s on explore.
void probeExplorer(Metrics& m) {
  obs::Registry reg;
  const auto t0 = Clock::now();
  const auto st = explore("fig2", Reduction::None, 8, 4, true, 50'000'000, &reg);
  const double sec = secondsSince(t0);
  const obs::Snapshot snap = reg.snapshot();
  m["explorer.runs"] = {static_cast<double>(st.runs), "count"};
  m["explorer.runs_per_s"] = {static_cast<double>(st.runs) / sec, "1/s"};
  m["explorer.snapshot_restores"] = {
      static_cast<double>(snap.counter("explorer.snapshot_restores")), "count"};
  m["explorer.replay_steps_avoided"] = {
      static_cast<double>(snap.counter("explorer.replay_steps_avoided")),
      "count"};
  m["explorer.steals"] = {static_cast<double>(snap.counter("explorer.steals")),
                          "count"};
  m["explorer.worker_utilization_pct"] = {
      histogramMean(snap, "explorer.worker_utilization_pct"), "%"};
  m["explorer.snapshot_bytes_peak"] = {
      snap.gauge("explorer.snapshot_bytes_peak"), "bytes"};

  obs::Registry dporReg;
  (void)explore("ff_t5", Reduction::Dpor, 12, 4, true, 50'000'000, &dporReg);
  m["explorer.dpor_backtracks"] = {
      static_cast<double>(dporReg.snapshot().counter("explorer.dpor_backtracks")),
      "count"};
}

// sched: per-explore() cost on shard-sized trees (the campaign's budgets)
// -> verdict_s on campaign and fuzz.
void probeExploreCalls(Metrics& m) {
  const inject::JobSpec defaults;
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const scenarios::NamedScenario& sc : scenarios::registry()) {
      for (Reduction r : {Reduction::None, Reduction::Dpor}) {
        const auto t0 = Clock::now();
        (void)explore(sc.name, r, defaults.maxBranchDepth, 1, true,
                      defaults.maxRuns, nullptr);
        ms.push_back(secondsSince(t0) * 1e3);
      }
    }
  }
  m["explorer.call_ms.p50"] = {percentile(ms, 0.50), "ms"};
  m["explorer.call_ms.p95"] = {percentile(ms, 0.95), "ms"};
}

// sched: one context switch on each backend (same program, fibers off and
// on) -> verdict_s on fuzz, setup_s on ingest; about nothing on explore.
void probeSwitch(Metrics& m, std::vector<std::string>& problems) {
  constexpr int kYields = 20000;
  for (bool fibers : {false, true}) {
    if (fibers && !sched::fibersSupported()) {
      problems.push_back("ledger: fibers unsupported in this build");
      m["sched.switch_ns.fiber"] = {0.0, "ns"};
      continue;
    }
    obs::Registry reg;
    sched::RoundRobinStrategy strategy;
    sched::VirtualScheduler::Options opts;
    opts.fibers = fibers;
    opts.metrics = &reg;
    opts.maxSteps = 10 * kYields;
    sched::VirtualScheduler s(strategy, opts);
    for (int t = 0; t < 2; ++t) {
      s.spawn("t" + std::to_string(t), [&s] {
        for (int i = 0; i < kYields; ++i) s.yield();
      });
    }
    const auto t0 = Clock::now();
    (void)s.run();
    const double ns = secondsSince(t0) * 1e9;
    const auto switches = reg.snapshot().counter("sched.context_switches");
    m[fibers ? "sched.switch_ns.fiber" : "sched.switch_ns.thread"] = {
        switches == 0 ? 0.0 : ns / static_cast<double>(switches), "ns"};
    if (!fibers) {
      m["sched.context_switches"] = {static_cast<double>(switches), "count"};
    }
  }
}

// sched: one prefix-replayed run (incremental off) -> verdict_s on fuzz.
void probeReplay(Metrics& m) {
  const auto t0 = Clock::now();
  const auto st =
      explore("ff_t5_small", Reduction::None, 8, 1, false, 3000, nullptr);
  m["sched.replay_run_us"] = {
      secondsSince(t0) * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                                   st.runs, 1)),
      "us"};
}

// monitor/events, ingest, detect: one recorded stream, then decode, ring,
// streaming battery and offline battery on it -> work_per_s on ingest,
// setup_s on ingest (recording), verdict_s on campaign/fuzz (offline).
void probeStream(const RunContext& ctx, Metrics& m,
                 std::vector<std::string>& problems) {
  events::Trace trace;
  std::string why;
  const auto t0 = Clock::now();
  if (!recordStream(ctx.seed, trace, why)) problems.push_back("ledger: " + why);
  const double recordSec = secondsSince(t0);
  const auto n = static_cast<double>(trace.size());
  m["monitor.events_per_s"] = {n / recordSec, "1/s"};
  const std::string jsonl = obs::toJsonl(trace);

  // Decode alone.
  std::vector<events::Event> decoded;
  decoded.reserve(trace.size());
  ingest::JsonlDecoder dec;
  const auto emit = [&](const events::Event& e) { decoded.push_back(e); };
  const auto d0 = Clock::now();
  dec.feed(jsonl, emit);
  dec.flush(emit);
  const double decodeSec = secondsSince(d0);
  m["ingest.decode_ns_per_event"] = {decodeSec * 1e9 / n, "ns"};
  m["ingest.decode_mb_per_s"] = {
      static_cast<double>(jsonl.size()) / 1e6 / decodeSec, "MB/s"};

  // Ring alone: a producer thread hands every decoded event to this one.
  {
    ingest::SpscRing<events::Event> ring(1 << 16);
    const auto r0 = Clock::now();
    std::thread producer([&] {
      for (const events::Event& e : decoded) {
        while (!ring.tryPush(e)) std::this_thread::yield();
      }
    });
    events::Event out;
    for (std::size_t got = 0; got < decoded.size();) {
      if (ring.tryPop(out)) ++got;
    }
    producer.join();
    m["ingest.ring_ns_per_event"] = {secondsSince(r0) * 1e9 / n, "ns"};
  }

  // The streaming battery alone, per quarter of the stream.
  {
    detect::StreamingSuite suite;
    const std::size_t q = decoded.size() / 4;
    double quarterNs[4] = {0, 0, 0, 0};
    double totalSec = 0;
    for (int k = 0; k < 4; ++k) {
      const std::size_t from = q * static_cast<std::size_t>(k);
      const std::size_t to = k == 3 ? decoded.size() : from + q;
      const auto f0 = Clock::now();
      for (std::size_t i = from; i < to; ++i) suite.feed(decoded[i]);
      const double sec = secondsSince(f0);
      totalSec += sec;
      quarterNs[k] = sec * 1e9 / static_cast<double>(to - from);
    }
    suite.finish(dec.names());
    m["detect.feed_ns_per_event"] = {totalSec * 1e9 / n, "ns"};
    m["detect.feed_ns_per_event.q1"] = {quarterNs[0], "ns"};
    m["detect.feed_ns_per_event.q4"] = {quarterNs[3], "ns"};
  }

  // The whole pipeline with its own metrics: per-core feed cost, drops.
  {
    obs::Registry reg;
    ingest::IngestOptions io;
    io.metrics = &reg;
    ingest::IngestPipeline pipe(io);
    detect::ReportSink sink;
    std::istringstream in(jsonl);
    (void)pipe.run(in, sink);
    const obs::Snapshot snap = reg.snapshot();
    m["ingest.ring_drops"] = {
        static_cast<double>(snap.counter("ingest.ring_drops")), "count"};
    m["ingest.malformed_lines"] = {
        static_cast<double>(snap.counter("ingest.malformed_lines")), "count"};
    for (const char* core : pipe.suite().coreNames()) {
      m["detect." + coreKey(core) + ".feed_ns"] = {
          histogramMean(snap, std::string("ingest.") + core + ".feed_ns"),
          "ns"};
    }
  }

  // The offline battery on the recorded trace.
  {
    detect::DetectorSuite suite;
    const auto a0 = Clock::now();
    (void)suite.analyze(trace);
    m["detect.analyze_ns_per_event"] = {secondsSince(a0) * 1e9 / n, "ns"};
  }
}

// gen: generation rate, each oracle alone, and the per-seed distribution
// -> work_per_s and decided_share on fuzz.
void probeGen(Metrics& m, std::vector<std::string>& problems) {
  constexpr std::uint64_t kPrograms = 2000;
  const gen::GenConfig cfg;
  std::size_t bytes = 0;
  const auto g0 = Clock::now();
  for (std::uint64_t s = 0; s < kPrograms; ++s) {
    bytes += gen::generate(s, cfg).render().size();
  }
  m["gen.programs_per_s"] = {
      static_cast<double>(kPrograms) / secondsSince(g0), "1/s"};
  if (bytes == 0) problems.push_back("ledger: generator drew empty programs");

  constexpr std::uint64_t kSeeds = 12;
  constexpr std::uint64_t begin = 0;
  for (const std::string& name : gen::oracleNames()) {
    gen::FuzzOptions fo = fuzzOptions(begin, kSeeds);
    fo.oracle = gen::onlyOracle(fo.oracle, name);
    const auto o0 = Clock::now();
    const gen::FuzzReport rep = gen::runFuzz(fo);
    const double total =
        static_cast<double>(rep.oracleChecks + rep.oracleSkips);
    m["gen.oracle." + name + ".ms_per_seed"] = {
        secondsSince(o0) * 1e3 / static_cast<double>(kSeeds), "ms"};
    m["gen.oracle." + name + ".skip_share"] = {
        total == 0 ? 0.0 : static_cast<double>(rep.oracleSkips) / total,
        "ratio"};
  }

  std::vector<double> seedMs;
  for (std::uint64_t s = begin; s < begin + kSeeds; ++s) {
    const auto s0 = Clock::now();
    (void)gen::runFuzz(fuzzOptions(s, 1));
    seedMs.push_back(secondsSince(s0) * 1e3);
  }
  m["gen.seed_ms.p50"] = {percentile(seedMs, 0.50), "ms"};
  m["gen.seed_ms.p95"] = {percentile(seedMs, 0.95), "ms"};
}

// petri: gated N x M reachability and the explorer-vs-net cross-check
// -> verdict_s on fuzz (a small share).
void probePetri(Metrics& m) {
  const petri::ThreadLockNet tl =
      petri::buildThreadLockNet(5, 2, petri::NotifyModel::Gated);
  const auto p0 = Clock::now();
  const petri::ReachabilityResult r =
      petri::reachable(tl.net, tl.initial, petri::ReachOptions{});
  m["petri.states_per_s"] = {
      static_cast<double>(r.stateCount()) / secondsSince(p0), "1/s"};

  std::vector<std::unique_ptr<events::Trace>> traces;
  std::vector<bool> failed;
  for (const char* name : {"fig2", "ff_t5_small", "lock_order"}) {
    const scenarios::NamedScenario* sc = scenarios::find(name);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      auto t = std::make_unique<events::Trace>();
      sched::RandomWalkStrategy strategy(seed);
      sched::VirtualScheduler s(strategy);
      scenarios::Instruments ins;
      ins.trace = t.get();
      sc->ifn(s, ins);
      failed.push_back(!s.run().ok());
      traces.push_back(std::move(t));
    }
  }
  petri::ModelCrossChecker checker;
  const auto c0 = Clock::now();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    checker.addRun(*traces[i], failed[i]);
  }
  m["petri.cross_check_ms"] = {secondsSince(c0) * 1e3, "ms"};
}

// inject and serve: serial shards, then the same job through the CLI
// -> verdict_s on campaign.
void probeCampaign(const RunContext& ctx, Metrics& m,
                   std::vector<std::string>& problems) {
  const inject::JobSpec spec = campaignSpec(ctx.expect);
  std::vector<inject::ShardResult> results;
  std::vector<double> shardMs;
  for (const inject::ShardSpec& s : inject::expandShards(spec)) {
    const auto t0 = Clock::now();
    results.push_back(inject::runShard(spec, s));
    shardMs.push_back(secondsSince(t0) * 1e3);
  }
  double serialSec = 0;
  for (double v : shardMs) serialSec += v / 1e3;
  m["inject.shard_ms.p50"] = {percentile(shardMs, 0.50), "ms"};
  m["inject.shard_ms.p95"] = {percentile(shardMs, 0.95), "ms"};

  const auto mg = Clock::now();
  (void)serve::mergeShards(spec, "confbench-ledger", std::move(results));
  m["serve.merge_ms"] = {secondsSince(mg) * 1e3, "ms"};

  const std::string root = ctx.workDir + "/ledger-spool";
  const std::string jobFile = ctx.workDir + "/ledger.job.json";
  const std::string idFile = ctx.workDir + "/ledger-id.txt";
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  std::filesystem::create_directories(root, ec);
  writeFile(jobFile, spec.toJson());
  const auto s0 = Clock::now();
  int rc = runProcess({ctx.confail, "submit", "--root", root, "--job", jobFile},
                      idFile);
  m["serve.submit_ms"] = {secondsSince(s0) * 1e3, "ms"};
  std::string id;
  readFile(idFile, id);
  while (!id.empty() && id.back() == '\n') id.pop_back();
  const auto v0 = Clock::now();
  rc |= runProcess(
      {ctx.confail, "serve", "--root", root, "--pool", "4", "--exit-when-idle"},
      "");
  const double serveSec = secondsSince(v0);
  const auto r0 = Clock::now();
  rc |= runProcess({ctx.confail, "results", "--root", root, "--job", id}, "");
  const double resultsSec = secondsSince(r0);
  m["serve.results_ms"] = {resultsSec * 1e3, "ms"};
  m["serve.overhead_share"] = {
      1.0 - (serialSec / 4.0) / (serveSec + resultsSec), "ratio"};
  std::uint64_t files = 0;
  std::uint64_t bytes = 0;
  countTree(root, files, bytes);
  m["serve.spool_files"] = {static_cast<double>(files), "count"};
  m["serve.spool_bytes"] = {static_cast<double>(bytes), "bytes"};
  std::filesystem::remove_all(root, ec);
  if (rc != 0) problems.push_back("ledger: campaign CLI run failed");

  // tools: start-up of a trivial invocation, paid once per shard.
  std::vector<double> spawnMs;
  for (int i = 0; i < 10; ++i) {
    const auto t0 = Clock::now();
    (void)runProcess({ctx.confail, "--help"}, "");
    spawnMs.push_back(secondsSince(t0) * 1e3);
  }
  m["cli.spawn_ms"] = {median(spawnMs), "ms"};
}

}  // namespace

Metrics runLedger(const RunContext& ctx, Tracer& tracer,
                  std::vector<std::string>& problems) {
  Metrics m;
  {
    Scope s(tracer, "sched", "ledger explorer");
    probeExplorer(m);
    probeExploreCalls(m);
    probeSwitch(m, problems);
    probeReplay(m);
  }
  {
    Scope s(tracer, "ingest", "ledger stream");
    probeStream(ctx, m, problems);
  }
  {
    Scope s(tracer, "gen", "ledger gen");
    probeGen(m, problems);
  }
  {
    Scope s(tracer, "petri", "ledger petri");
    probePetri(m);
  }
  {
    Scope s(tracer, "serve", "ledger campaign");
    probeCampaign(ctx, m, problems);
  }
  if (m.at("ingest.ring_drops").value != 0 ||
      m.at("ingest.malformed_lines").value != 0) {
    problems.push_back("ledger: the ingest pipeline dropped or misread events");
  }
  return m;
}

}  // namespace confbench
