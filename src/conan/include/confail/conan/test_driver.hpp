// ConAn-style deterministic test driver.
//
// A test is a set of calls, each bound to a named test thread and a start
// tick.  Each test thread executes its calls in order; before each call it
// performs clock.await(startTick), so the tester controls the exact order
// in which component methods are invoked — Brinch Hansen's reproducible
// monitor testing, as extended by the ConAn tool the paper builds on.
//
// After the run, each call gets a CallReport with its completion tick and
// observed value, checked against the expectations.  This is the paper's
// "check call completion time" detection technique (Table 1 testing notes
// for T3, T4 and T5 failures): a call that completes too early reveals a
// skipped wait (FF-T3) or premature wake (EF-T5); a call that never
// completes reveals a lost notification (FF-T5), a held lock (FF-T2/FF-T4)
// or an erroneous wait (EF-T3).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "confail/clock/abstract_clock.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/sched/virtual_scheduler.hpp"

namespace confail::conan {

using clock::AbstractClock;
using monitor::Runtime;

/// One scripted component call.
struct Call {
  std::string thread;     ///< test-thread name (threads are created per name)
  std::uint64_t startTick = 0;  ///< clock.await(startTick) before invoking
  std::string label;      ///< for reports, e.g. "receive()#1"
  std::function<std::int64_t()> action;  ///< the call; returns observed value

  /// Inclusive tick window in which the call must complete.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> completionWindow;
  /// Expected return value of action.
  std::optional<std::int64_t> expectedValue;
  /// If true, the call is expected to never complete (the run is expected
  /// to end with this call still blocked — e.g. when testing a mutant that
  /// loses a notification).
  bool expectHang = false;
  /// Tester's intent: whether this call is supposed to suspend on wait()
  /// before completing.  Used by the taxonomy classifier to tell FF-T5
  /// (expected wait, never notified) from EF-T3 (unexpected wait).
  std::optional<bool> expectWait;
};

/// Outcome of one scripted call.
struct CallReport {
  std::string thread;
  std::string label;
  std::uint64_t startTick = 0;
  bool completed = false;
  std::uint64_t completedAtTick = 0;
  std::optional<std::int64_t> value;
  std::string error;  ///< exception text if the action threw
  std::optional<bool> expectWait;  ///< copied from the Call (classifier hint)

  bool timeOk = true;
  bool valueOk = true;
  bool hangOk = true;

  bool passed() const {
    return error.empty() && timeOk && valueOk && hangOk;
  }

  std::string describe() const;
};

/// Aggregate result of a driver execution.
struct Results {
  sched::RunResult run;  ///< scheduler outcome
  std::vector<CallReport> reports;

  bool allPassed() const;
  std::size_t failures() const;
  std::string describe() const;
};

class TestDriver {
 public:
  /// The driver uses (but does not own) the runtime and clock.  Components
  /// under test are constructed by the caller against the same runtime.
  TestDriver(Runtime& rt, AbstractClock& clk);

  /// Add a scripted call.  Calls on the same thread run in insertion order.
  TestDriver& add(Call c);

  /// Convenience: add a call returning nothing.
  TestDriver& addVoid(std::string thread, std::uint64_t startTick,
                      std::string label, std::function<void()> action,
                      std::optional<std::pair<std::uint64_t, std::uint64_t>>
                          completionWindow = std::nullopt,
                      bool expectHang = false);

  /// Execute the scripted scenario: spawns one logical thread per
  /// test-thread name, runs the scheduler (the abstract clock auto-advances
  /// when idle) and returns exact reports.  A deadlock outcome is normal
  /// when expectHang calls are present.
  Results execute();

 private:
  struct Slot {
    Call call;
    CallReport report;
  };

  void runThreadCalls(const std::string& threadName);

  Runtime& rt_;
  AbstractClock& clk_;
  std::vector<Slot> slots_;
  std::vector<std::string> threadOrder_;  // distinct names, first-seen order
};

}  // namespace confail::conan
