// StreamingSuite: the full Table 1 detector battery in incremental form.
//
// Owns one battery of cores (makeBattery in suite.hpp: the same roster,
// order and options as DetectorSuite) and advances all of them one event
// at a time.  Findings are buffered per core and flattened in battery
// order at finish(), so a stream carrying the events of a recorded trace
// yields a finding vector byte-identical to DetectorSuite::analyze on that
// trace — the differential contract the ingest tests pin down.
//
// Live consumers (confail ingest --follow) can register an onFinding
// callback to observe findings the moment a core emits them, without
// waiting for the ordered flatten.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "confail/detect/suite.hpp"

namespace confail::detect {

class HbCore;

class StreamingSuite {
 public:
  StreamingSuite() : StreamingSuite(SuiteOptions()) {}
  explicit StreamingSuite(const SuiteOptions& opts);
  ~StreamingSuite();

  StreamingSuite(const StreamingSuite&) = delete;
  StreamingSuite& operator=(const StreamingSuite&) = delete;

  /// Advance every core by one event (events must arrive in seq order).
  void feed(const events::Event& e);

  /// Flush end-of-stream findings.  Call exactly once, after the last
  /// feed(); `names` must resolve every id the stream used.
  void finish(const NameSource& names);

  /// All findings flattened in battery order (valid after finish()).
  /// Byte-identical to DetectorSuite::analyze over the same events.
  std::vector<Finding> findings() const;

  /// Per-core findings, attributed (valid after finish()).
  struct CoreReport {
    const char* core;
    std::vector<Finding> findings;
  };
  std::vector<CoreReport> reports() const;

  std::vector<const char*> coreNames() const;
  std::uint64_t eventsFed() const { return eventsFed_; }

  /// Variables the bounded happens-before core evicted (0 when exact).
  std::uint64_t hbEvictions() const;

  /// Attach a metrics registry: feed() then records per-core feed latency
  /// (ingest.<core>.feed_ns histogram) and finding counts
  /// (ingest.<core>.findings).  Costs two clock reads per core per event —
  /// leave detached on peak-throughput paths.
  void setMetrics(obs::Registry* metrics) { metrics_ = metrics; }

  /// Called for every finding as its core emits it (before ordering).
  void setOnFinding(
      std::function<void(const char* core, const Finding&)> cb) {
    onFinding_ = std::move(cb);
  }

 private:
  struct Slot {
    std::unique_ptr<StreamCore> core;
    std::vector<Finding> findings;
  };
  std::vector<Slot> slots_;
  HbCore* hb_ = nullptr;  // borrowed from slots_
  obs::Registry* metrics_ = nullptr;
  std::function<void(const char*, const Finding&)> onFinding_;
  std::uint64_t eventsFed_ = 0;
  bool finished_ = false;
};

}  // namespace confail::detect
