// The full Table 1 detector battery, defined once.
//
// makeBattery() builds one StreamCore per detection technique named in the
// "Testing Notes" column of Table 1, in battery order; SuiteOptions is the
// battery's whole configuration.  DetectorSuite runs a fresh battery over
// a completed trace; StreamingSuite (streaming_suite.hpp) advances one
// battery event by event.  Both flatten findings in battery order, so the
// two agree byte for byte on the same events.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "confail/detect/finding.hpp"

namespace confail::obs {
class Registry;
}

namespace confail::detect {

struct SuiteOptions {
  /// Grants-while-pending threshold for the starvation core.
  std::uint64_t starvationGrantThreshold = 50;
  /// Skip the unnecessary-sync core (it flags single-threaded use, which
  /// is expected in some micro-tests).
  bool includeUnnecessarySync = true;
  /// Flag non-FIFO lock grants (protocol-deviation EF-T2 oracle).  Off by
  /// default: arbitrary grant order is JLS-legal, so this is only sound
  /// against components whose monitors use the Fifo policies.
  bool flagBarging = false;
  /// Bound on the happens-before core's per-variable history; 0 keeps
  /// every variable (exact, unbounded memory).  See HbCore::Options.
  std::size_t hbMaxVarHistory = 0;
};

/// Fresh cores of the battery, in battery order.  A core is single-use:
/// build a new battery for every stream or trace.
std::vector<std::unique_ptr<StreamCore>> makeBattery(const SuiteOptions& opts);

class DetectorSuite {
 public:
  DetectorSuite() : DetectorSuite(SuiteOptions()) {}
  explicit DetectorSuite(SuiteOptions opts) : opts_(opts) {}

  /// Run every core over the trace; findings in battery order.
  std::vector<Finding> analyze(const events::Trace& trace) const;

  /// Findings from one core, attributed by name.
  struct DetectorReport {
    const char* detector;
    std::vector<Finding> findings;
  };

  /// Run every core over the trace, keeping findings attributed to the
  /// core that produced them (the injection campaign's detection matrix
  /// needs the per-detector view; analyze() flattens it).
  std::vector<DetectorReport> analyzeEach(const events::Trace& trace) const;

  /// Names of the cores in the battery, in execution order.
  std::vector<const char*> detectorNames() const;

  /// Attach a metrics registry: analyze() and analyzeEach() then record
  /// events seen (detect.events), per-core findings
  /// (detect.<name>.findings) and per-core analysis latency
  /// (detect.<name>.analyze_ns histogram).  Null detaches; the registry
  /// must outlive the suite's analysis calls.
  void setMetrics(obs::Registry* metrics) { metrics_ = metrics; }

 private:
  SuiteOptions opts_;
  obs::Registry* metrics_ = nullptr;
};

}  // namespace confail::detect
