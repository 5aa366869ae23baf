// Compatibility shim: the bench JSON emitter moved into the observability
// library (confail::obs::JsonWriter) so benches, metrics snapshots and the
// Chrome trace exporter all share one escaping/formatting convention.  This
// header keeps the historical confail::benchjson::Writer name alive for the
// bench sources; new code should include confail/obs/json.hpp directly.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "confail/obs/json.hpp"

namespace confail::benchjson {

using Writer = confail::obs::JsonWriter;

/// Emit a "stamp" object naming what produced the document: the source
/// commit (`git describe --always --dirty` in the source tree, "unknown"
/// outside a checkout), the CMake build type, the host's CPU model and
/// hardware thread count, and whether this was a smoke run.
inline void stamp(Writer& json, bool smoke) {
#ifdef CONFAIL_SOURCE_DIR
  const std::string describe = std::string("git -C '") + CONFAIL_SOURCE_DIR +
                               "' describe --always --dirty 2>/dev/null";
#else
  const std::string describe = "git describe --always --dirty 2>/dev/null";
#endif
  std::string commit;
  if (std::FILE* p = ::popen(describe.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, p) != nullptr) commit += buf;
    ::pclose(p);
  }
  while (!commit.empty() && commit.back() == '\n') commit.pop_back();
  std::string cpu;
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; cpu.empty() && std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
    }
  }
  json.key("stamp");
  json.beginObject();
  json.field("commit", commit.empty() ? std::string("unknown") : commit);
#ifdef CONFAIL_BUILD_TYPE
  json.field("build_type", std::string(CONFAIL_BUILD_TYPE));
#endif
  json.field("cpu", cpu.empty() ? std::string("unknown") : cpu);
  json.field("hardware_concurrency",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("mode", std::string(smoke ? "smoke" : "full"));
  json.endObject();
}

}  // namespace confail::benchjson
