// Streaming ingest throughput: the cost of each stage of the online
// analysis path, emitted as BENCH_ingest.json.
//
// Three figures:
//
//   1. Ring transport — raw SPSC handoff of events::Event records between
//      a producer and a consumer thread through the fixed-capacity ring.
//      This is the budget ceiling for everything downstream; the bench
//      gates on >= 1M events/sec and zero drops at steady state (the
//      backpressure path must never lose events).
//
//   2. Decode — JsonlDecoder over a multi-MB synthetic JSONL stream
//      (bytes/sec and events/sec, no detector work).
//
//   3. End-to-end pipeline — the same stream through IngestPipeline:
//      reader thread, ring, full streaming battery, ReportSink.  The
//      steady-state drop count must be zero (default backpressure mode).
//
// `--smoke` shrinks the event counts so the binary finishes in a couple of
// seconds; the bench_smoke target runs that mode and leaves its
// BENCH_ingest.json in the build tree.  The 1M events/sec
// gate is skipped under ThreadSanitizer (the ~70x interception cost is
// TSan's, not the ring's).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "bench_json.hpp"
#include "confail/detect/report_sink.hpp"
#include "confail/events/trace.hpp"
#include "confail/ingest/decode.hpp"
#include "confail/ingest/pipeline.hpp"
#include "confail/ingest/ring.hpp"
#include "confail/obs/trace_export.hpp"

namespace events = confail::events;
namespace ingest = confail::ingest;

namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A steady-state monitor workload: three threads cycling
/// request/acquire/write/read/release over two monitors and two variables.
events::Trace syntheticTrace(int iters) {
  events::Trace trace;
  trace.nameMonitor(0, "shared");
  trace.nameMonitor(1, "other");
  trace.nameVar(0, "counter");
  trace.nameVar(1, "flag");
  for (std::uint32_t t = 0; t < 3; ++t) {
    trace.nameThread(t, "worker" + std::to_string(t));
  }
  for (int i = 0; i < iters; ++i) {
    events::Event e;
    e.thread = static_cast<std::uint32_t>(i % 3);
    e.monitor = i % 2 == 0 ? 0 : 1;
    e.kind = events::EventKind::LockRequest;
    trace.record(e);
    e.kind = events::EventKind::LockAcquire;
    trace.record(e);
    e.kind = events::EventKind::Write;
    e.monitor = events::kNoMonitor;
    e.aux = i % 2 == 0 ? 0 : 1;
    trace.record(e);
    e.kind = events::EventKind::Read;
    trace.record(e);
    e.kind = events::EventKind::LockRelease;
    e.monitor = i % 2 == 0 ? 0 : 1;
    e.aux = 0;
    trace.record(e);
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bool ok = true;

  std::printf("=== Streaming ingest throughput (%s mode) ===\n\n",
              smoke ? "smoke" : "full");

  confail::benchjson::Writer json;
  json.beginObject();
  json.field("bench", "trace_ingest");
  json.field("smoke", smoke);
  json.field("tsan", kSanitized);

  // ---- 1. ring transport ---------------------------------------------------
  {
    const std::uint64_t n = smoke ? 2'000'000 : 20'000'000;
    ingest::SpscRing<events::Event> ring(1 << 16);
    events::Event proto;
    proto.thread = 1;
    proto.kind = events::EventKind::Write;
    proto.aux = 7;
    const auto t0 = std::chrono::steady_clock::now();
    std::thread producer([&] {
      for (std::uint64_t i = 0; i < n; ++i) {
        events::Event e = proto;
        e.seq = i;
        while (!ring.tryPush(e)) {
          std::this_thread::yield();
        }
      }
    });
    std::uint64_t popped = 0;
    events::Event out;
    while (popped < n) {
      if (ring.tryPop(out)) {
        ++popped;
      }
    }
    producer.join();
    const double sec = secondsSince(t0);
    const double eps = sec > 0.0 ? static_cast<double>(n) / sec : 0.0;
    std::printf("ring transport: %llu events in %.2fs (%.2fM events/sec, "
                "%llu drops)\n",
                static_cast<unsigned long long>(n), sec, eps / 1e6,
                static_cast<unsigned long long>(ring.drops()));
    if (ring.drops() != 0) {
      std::printf("FAIL: backpressure transport dropped events\n");
      ok = false;
    }
    if (!kSanitized && eps < 1e6) {
      std::printf("FAIL: ring transport below 1M events/sec\n");
      ok = false;
    }
    json.key("ring_transport");
    json.beginObject();
    json.field("events", n);
    json.field("seconds", sec);
    json.field("events_per_sec", eps);
    json.field("drops", ring.drops());
    json.field("ring_capacity", static_cast<std::uint64_t>(ring.capacity()));
    json.endObject();
  }

  // ---- 2. decode -----------------------------------------------------------
  const events::Trace trace = syntheticTrace(smoke ? 40'000 : 400'000);
  const std::string jsonl = confail::obs::toJsonl(trace);
  {
    ingest::JsonlDecoder dec;
    std::uint64_t decoded = 0;
    const auto t0 = std::chrono::steady_clock::now();
    dec.feed(jsonl, [&](const events::Event&) { ++decoded; });
    dec.flush([&](const events::Event&) { ++decoded; });
    const double sec = secondsSince(t0);
    const double eps = sec > 0.0 ? static_cast<double>(decoded) / sec : 0.0;
    const double mbps =
        sec > 0.0 ? static_cast<double>(jsonl.size()) / sec / 1e6 : 0.0;
    std::printf("decode: %.1f MB, %llu events in %.2fs (%.1f MB/sec, "
                "%.2fM events/sec)\n",
                static_cast<double>(jsonl.size()) / 1e6,
                static_cast<unsigned long long>(decoded), sec, mbps,
                eps / 1e6);
    if (decoded != trace.size() || dec.stats().malformed != 0) {
      std::printf("FAIL: decode lost or misread events\n");
      ok = false;
    }
    json.key("decode");
    json.beginObject();
    json.field("bytes", static_cast<std::uint64_t>(jsonl.size()));
    json.field("events", decoded);
    json.field("seconds", sec);
    json.field("events_per_sec", eps);
    json.field("mb_per_sec", mbps);
    json.endObject();
  }

  // ---- 3. end-to-end pipeline ----------------------------------------------
  {
    ingest::IngestPipeline pipe{ingest::IngestOptions{}};
    confail::detect::ReportSink sink;
    sink.setSource("bench");
    std::istringstream in(jsonl);
    const ingest::IngestStats st = pipe.run(in, sink);
    std::printf("pipeline: %llu events in %.2fs (%.2fM events/sec, "
                "%llu findings, %llu drops)\n",
                static_cast<unsigned long long>(st.eventsAnalyzed),
                st.elapsedSec, st.eventsPerSec / 1e6,
                static_cast<unsigned long long>(st.findings),
                static_cast<unsigned long long>(st.ringDrops));
    if (st.eventsAnalyzed != trace.size() || st.ringDrops != 0 ||
        st.malformed != 0 || st.truncated != 0) {
      std::printf("FAIL: pipeline lost events at steady state\n");
      ok = false;
    }
    json.key("pipeline");
    json.beginObject();
    json.field("events", st.eventsAnalyzed);
    json.field("seconds", st.elapsedSec);
    json.field("events_per_sec", st.eventsPerSec);
    json.field("findings", st.findings);
    json.field("drops", st.ringDrops);
    json.endObject();
  }

  json.endObject();
  if (!json.writeFile("BENCH_ingest.json")) {
    std::printf("FAIL: could not write BENCH_ingest.json\n");
    ok = false;
  } else {
    std::printf("\nwrote BENCH_ingest.json\n");
  }

  std::printf("\n%s\n", ok ? "TRACE INGEST: OK" : "TRACE INGEST: FAILURES");
  return ok ? 0 : 1;
}
