#include "confail/components/scenario_registry.hpp"

namespace confail::components::scenarios {

namespace {

// Every scenario takes (scheduler, instruments); the plain form is the
// instrumented one with default Instruments.
NamedScenario entry(std::string name,
                    void (*ifn)(confail::sched::VirtualScheduler&,
                                const Instruments&),
                    bool hasBuffer, bool faultSeeded, bool usesMonitor,
                    bool usesWaitNotify, std::string starveVictim,
                    std::string blurb) {
  NamedScenario sc;
  sc.name = std::move(name);
  sc.ifn = ifn;
  sc.fn = [ifn](confail::sched::VirtualScheduler& s) { ifn(s, {}); };
  sc.hasBuffer = hasBuffer;
  sc.faultSeeded = faultSeeded;
  sc.usesMonitor = usesMonitor;
  sc.usesWaitNotify = usesWaitNotify;
  sc.starveVictim = std::move(starveVictim);
  sc.blurb = std::move(blurb);
  return sc;
}

}  // namespace

const std::vector<NamedScenario>& registry() {
  // Names, order and blurbs are stable CLI output; extend at the end.
  static const std::vector<NamedScenario> kScenarios = {
      entry("fig2", figure2, true, false, true, true, "c1",
            "Figure 2 producer/consumer, correct guards (no failure expected)"),
      entry("ff_t5", ffT5Notify, true, true, true, true, "c1",
            "FF-T5: notify() where notifyAll() is required (2 items/thread)"),
      entry("ff_t5_small", ffT5Small, true, true, true, true, "c1",
            "FF-T5 variant, 1 item/thread (small exhaustible tree)"),
      entry("lock_order", lockOrder, false, true, true, false, "t1",
            "two monitors acquired in opposite orders (deadlock)"),
      entry("disjoint", disjointCounters, false, false, false, false, "",
            "two threads on disjoint shared vars (DPOR showcase)"),
      // Fuzzer-found reproducers (see scenarios.hpp for the gen IR and the
      // seeds that produced them).
      entry("gen_selfwait", genSelfWait, false, true, true, true, "t0",
            "fuzz reproducer: self-wait with no notifier (always deadlocks)"),
      entry("gen_lost_signal", genLostSignal, false, true, true, true, "t0",
            "fuzz reproducer: notify can land before the wait (lost signal)"),
      entry("gen_unguarded_write", genUnguardedWrite, false, true, true,
            false, "t0",
            "fuzz reproducer: one writer bypasses the guard (data race)"),
  };
  return kScenarios;
}

const NamedScenario* find(const std::string& name) {
  for (const NamedScenario& s : registry()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace confail::components::scenarios
