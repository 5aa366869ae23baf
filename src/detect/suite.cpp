#include "confail/detect/suite.hpp"

#include <iterator>
#include <string>

#include "confail/detect/hb_detector.hpp"
#include "confail/detect/lock_graph.hpp"
#include "confail/detect/lockset.hpp"
#include "confail/detect/protocol_deviation.hpp"
#include "confail/detect/release_discipline.hpp"
#include "confail/detect/starvation.hpp"
#include "confail/detect/unnecessary_sync.hpp"
#include "confail/detect/wait_notify.hpp"
#include "confail/obs/metrics.hpp"

namespace confail::detect {

std::vector<std::unique_ptr<StreamCore>> makeBattery(const SuiteOptions& opts) {
  std::vector<std::unique_ptr<StreamCore>> cores;
  cores.push_back(std::make_unique<LocksetCore>());
  HbCore::Options hb;
  hb.maxVarHistory = opts.hbMaxVarHistory;
  cores.push_back(std::make_unique<HbCore>(hb));
  cores.push_back(std::make_unique<LockOrderCore>());
  cores.push_back(std::make_unique<WaitNotifyCore>());
  cores.push_back(
      std::make_unique<StarvationCore>(opts.starvationGrantThreshold));
  if (opts.includeUnnecessarySync) {
    cores.push_back(std::make_unique<UnnecessarySyncCore>());
  }
  cores.push_back(std::make_unique<ReleaseDisciplineCore>());
  ProtocolDeviationCore::Options pd;
  pd.flagBarging = opts.flagBarging;
  cores.push_back(std::make_unique<ProtocolDeviationCore>(pd));
  return cores;
}

std::vector<Finding> DetectorSuite::analyze(const events::Trace& trace) const {
  std::vector<Finding> all;
  for (DetectorReport& r : analyzeEach(trace)) {
    all.insert(all.end(), std::make_move_iterator(r.findings.begin()),
               std::make_move_iterator(r.findings.end()));
  }
  return all;
}

std::vector<DetectorSuite::DetectorReport> DetectorSuite::analyzeEach(
    const events::Trace& trace) const {
  if (metrics_ != nullptr) metrics_->counter("detect.events").add(trace.size());
  const auto cores = makeBattery(opts_);
  std::vector<DetectorReport> reports;
  reports.reserve(cores.size());
  for (const auto& core : cores) {
    std::vector<Finding> fs;
    if (metrics_ != nullptr) {
      const std::string prefix = std::string("detect.") + core->name();
      obs::ScopedTimer timer(&metrics_->histogram(prefix + ".analyze_ns"));
      fs = analyzeWithCore(*core, trace);
      metrics_->counter(prefix + ".findings").add(fs.size());
    } else {
      fs = analyzeWithCore(*core, trace);
    }
    reports.push_back(DetectorReport{core->name(), std::move(fs)});
  }
  return reports;
}

std::vector<const char*> DetectorSuite::detectorNames() const {
  std::vector<const char*> names;
  for (const auto& core : makeBattery(opts_)) names.push_back(core->name());
  return names;
}

}  // namespace confail::detect
