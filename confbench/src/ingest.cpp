// ingest: one long JSONL stream through IngestPipeline::run.
//
// Set-up records the stream from a seeded random-walk run of library
// components on the default scheduler backend: a correct BoundedBuffer next
// to a ReadersWriters whose endRead skips the monitor (a seeded FF-T1
// fault).  The timed passes decode it, move it through the ring and feed
// the streaming detector battery; no scheduler runs while timing.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "confail/components/bounded_buffer.hpp"
#include "confail/components/readers_writers.hpp"
#include "confail/detect/report_sink.hpp"
#include "confail/detect/suite.hpp"
#include "confail/events/trace.hpp"
#include "confail/ingest/pipeline.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/obs/trace_export.hpp"
#include "confail/sched/strategy.hpp"
#include "confail/taxonomy/classifier.hpp"

namespace confbench {

namespace components = confail::components;
namespace detect = confail::detect;
namespace events = confail::events;
namespace taxonomy = confail::taxonomy;

namespace {

/// Items each producer puts (and each consumer takes), and read sections
/// each reader runs; together about 150k events.
constexpr int kItems = 2500;
constexpr int kReads = 2500;

}  // namespace

bool recordStream(std::uint64_t seed, events::Trace& trace, std::string& why) {
  confail::sched::RandomWalkStrategy strategy(seed);
  confail::sched::VirtualScheduler sched(strategy);
  confail::monitor::Runtime rt(trace, sched, seed);
  components::BoundedBuffer<int> buf(rt, "buf", 2);
  components::ReadersWriters::Faults faults;
  faults.unsyncedEndRead = true;
  components::ReadersWriters rw(rt, components::ReadersWriters::Preference::Readers,
                                faults);
  for (int p = 0; p < 2; ++p) {
    rt.spawn("producer" + std::to_string(p), [&buf] {
      for (int i = 0; i < kItems; ++i) buf.put(i);
    });
  }
  for (int c = 0; c < 2; ++c) {
    rt.spawn("consumer" + std::to_string(c), [&buf] {
      for (int i = 0; i < kItems; ++i) (void)buf.take();
    });
  }
  for (int r = 0; r < 2; ++r) {
    rt.spawn("reader" + std::to_string(r), [&rw] {
      for (int i = 0; i < kReads; ++i) {
        rw.startRead();
        rw.endRead();
      }
    });
  }
  const confail::sched::RunResult result = sched.run();
  if (!result.ok()) {
    why = std::string("recording run ended ") +
          confail::sched::outcomeName(result.outcome);
    return false;
  }
  return true;
}

namespace {

bool hasClass(const detect::ReportSink& sink, taxonomy::FailureClass cls) {
  for (const detect::ReportSink::Entry& e : sink.entries()) {
    const auto classes = taxonomy::Classifier::classesOf(e.finding.kind);
    if (std::find(classes.begin(), classes.end(), cls) != classes.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

WorkloadResult runIngest(const RunContext& ctx, Tracer& tracer) {
  WorkloadResult res;
  const confail::obs::JsonValue* clsName = ctx.expect.at("ingest.fault_class");
  const confail::obs::JsonValue* present =
      ctx.expect.at("ingest.fault_class_present");
  taxonomy::FailureClass cls = taxonomy::FailureClass::FF_T1;
  if (clsName == nullptr || present == nullptr ||
      !taxonomy::parseFailureClass(clsName->string, cls)) {
    throw std::runtime_error("known answers: ingest section malformed");
  }

  // Set-up: record the stream and render it as JSONL, three times.
  std::unique_ptr<events::Trace> trace;
  std::string jsonl;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    Scope span(tracer, "bench", "setup");
    auto fresh = std::make_unique<events::Trace>();
    std::string why;
    {
      Scope rs(tracer, "sched", "record random walk");
      if (!recordStream(ctx.seed, *fresh, why)) res.fail("ingest: " + why);
    }
    {
      Scope es(tracer, "events", "toJsonl");
      jsonl = confail::obs::toJsonl(*fresh);
    }
    trace = std::move(fresh);
    res.setupSec.push_back(secondsSince(t0));
  }
  const std::uint64_t recorded = trace->size();

  detect::ReportSink online;
  confail::ingest::IngestStats st;
  std::unique_ptr<confail::ingest::IngestPipeline> pipe;
  const auto start = Clock::now();
  while (res.verdictSec.empty() || secondsSince(start) < ctx.seconds) {
    std::istringstream in(jsonl);
    online = detect::ReportSink();
    online.setSource("confbench");
    pipe = std::make_unique<confail::ingest::IngestPipeline>(
        confail::ingest::IngestOptions{});
    const auto t0 = Clock::now();
    {
      Scope ps(tracer, "ingest", "IngestPipeline::run");
      st = pipe->run(in, online);
    }
    res.verdictSec.push_back(secondsSince(t0));
    Scope g(tracer, "bench", "gate");
    res.attempted += recorded;
    res.failed += st.ringDrops + st.malformed + st.truncated;
    if (st.eventsAnalyzed != recorded || st.ringDrops != 0 ||
        st.malformed != 0 || st.truncated != 0) {
      res.fail("ingest: analyzed " + std::to_string(st.eventsAnalyzed) +
               " of " + std::to_string(recorded) + " events (" +
               std::to_string(st.ringDrops) + " dropped, " +
               std::to_string(st.malformed) + " malformed)");
    }
    if (hasClass(online, cls) != present->boolean) {
      res.fail("ingest: seeded class " + clsName->string +
               " presence differs from the known answer");
    }
  }
  res.workPerPass = static_cast<double>(recorded);

  Scope probes(tracer, "bench", "probes");
  // The streaming findings must equal the offline battery's, byte for byte.
  {
    Scope os(tracer, "detect", "DetectorSuite::analyze");
    detect::DetectorSuite suite;
    detect::ReportSink offline;
    offline.setSource("confbench");
    for (const auto& report : suite.analyzeEach(*trace)) {
      offline.addAll(report.detector, report.findings);
    }
    if (offline.toJson(detect::TraceNames(*trace)) !=
        online.toJson(pipe->names())) {
      res.fail("ingest: streaming findings differ from the offline battery (" +
               std::to_string(online.size()) + " vs " +
               std::to_string(offline.size()) + ")");
    }
  }
  // Liveness: a known-answer file denying the seeded class must trip.
  const confail::obs::JsonValue flipped =
      flippedExpect(ctx, "ingest", "fault_class_present");
  if (hasClass(online, cls) == flipped.at("ingest.fault_class_present")->boolean) {
    res.fail("ingest: flipped known answer did not trip the gate");
  }
  return res;
}

}  // namespace confbench
