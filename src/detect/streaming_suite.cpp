#include "confail/detect/streaming_suite.hpp"

#include <string>

#include "confail/detect/hb_detector.hpp"
#include "confail/obs/metrics.hpp"

namespace confail::detect {

StreamingSuite::StreamingSuite(const SuiteOptions& opts) {
  for (auto& core : makeBattery(opts)) {
    if (auto* hb = dynamic_cast<HbCore*>(core.get())) hb_ = hb;
    slots_.push_back(Slot{std::move(core), {}});
  }
}

StreamingSuite::~StreamingSuite() = default;

void StreamingSuite::feed(const events::Event& e) {
  ++eventsFed_;
  for (Slot& s : slots_) {
    const std::size_t before = s.findings.size();
    if (metrics_ != nullptr) {
      const std::string prefix = std::string("ingest.") + s.core->name();
      obs::ScopedTimer timer(&metrics_->histogram(prefix + ".feed_ns"));
      s.core->feed(e, s.findings);
    } else {
      s.core->feed(e, s.findings);
    }
    if (s.findings.size() != before) {
      if (metrics_ != nullptr) {
        metrics_->counter(std::string("ingest.") + s.core->name() +
                          ".findings")
            .add(s.findings.size() - before);
      }
      if (onFinding_) {
        for (std::size_t i = before; i < s.findings.size(); ++i) {
          onFinding_(s.core->name(), s.findings[i]);
        }
      }
    }
  }
}

void StreamingSuite::finish(const NameSource& names) {
  if (finished_) return;
  finished_ = true;
  for (Slot& s : slots_) {
    const std::size_t before = s.findings.size();
    s.core->finish(names, s.findings);
    if (s.findings.size() != before) {
      if (metrics_ != nullptr) {
        metrics_->counter(std::string("ingest.") + s.core->name() +
                          ".findings")
            .add(s.findings.size() - before);
      }
      if (onFinding_) {
        for (std::size_t i = before; i < s.findings.size(); ++i) {
          onFinding_(s.core->name(), s.findings[i]);
        }
      }
    }
  }
}

std::vector<Finding> StreamingSuite::findings() const {
  std::vector<Finding> all;
  for (const Slot& s : slots_) {
    all.insert(all.end(), s.findings.begin(), s.findings.end());
  }
  return all;
}

std::vector<StreamingSuite::CoreReport> StreamingSuite::reports() const {
  std::vector<CoreReport> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    out.push_back(CoreReport{s.core->name(), s.findings});
  }
  return out;
}

std::vector<const char*> StreamingSuite::coreNames() const {
  std::vector<const char*> names;
  for (const Slot& s : slots_) names.push_back(s.core->name());
  return names;
}

std::uint64_t StreamingSuite::hbEvictions() const {
  return hb_ != nullptr ? hb_->evictions() : 0;
}

}  // namespace confail::detect
