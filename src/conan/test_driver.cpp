#include "confail/conan/test_driver.hpp"

#include <sstream>

#include "confail/support/assert.hpp"

namespace confail::conan {

std::string CallReport::describe() const {
  std::ostringstream os;
  os << thread << " @" << startTick << " " << label << ": ";
  if (!completed) {
    os << "did not complete";
  } else {
    os << "completed @" << completedAtTick;
    if (value) os << " -> " << *value;
  }
  if (!error.empty()) os << " [threw: " << error << "]";
  os << (passed() ? "  PASS" : "  FAIL");
  if (!timeOk) os << " (completion tick outside window)";
  if (!valueOk) os << " (wrong value)";
  if (!hangOk) os << (completed ? " (expected to hang)" : " (hung)");
  return os.str();
}

bool Results::allPassed() const {
  for (const auto& r : reports) {
    if (!r.passed()) return false;
  }
  return true;
}

std::size_t Results::failures() const {
  std::size_t n = 0;
  for (const auto& r : reports) n += r.passed() ? 0 : 1;
  return n;
}

std::string Results::describe() const {
  std::ostringstream os;
  os << "run outcome: " << sched::outcomeName(run.outcome) << "\n";
  for (const auto& r : reports) os << "  " << r.describe() << "\n";
  os << (allPassed() ? "ALL PASSED" : std::to_string(failures()) + " FAILED");
  return os.str();
}

TestDriver::TestDriver(Runtime& rt, AbstractClock& clk) : rt_(rt), clk_(clk) {}

TestDriver& TestDriver::add(Call c) {
  CONFAIL_CHECK(static_cast<bool>(c.action), UsageError, "call without action");
  bool known = false;
  for (const auto& n : threadOrder_) known = known || (n == c.thread);
  if (!known) threadOrder_.push_back(c.thread);
  Slot s;
  s.report.thread = c.thread;
  s.report.label = c.label;
  s.report.startTick = c.startTick;
  s.report.expectWait = c.expectWait;
  s.call = std::move(c);
  slots_.push_back(std::move(s));
  return *this;
}

TestDriver& TestDriver::addVoid(
    std::string thread, std::uint64_t startTick, std::string label,
    std::function<void()> action,
    std::optional<std::pair<std::uint64_t, std::uint64_t>> completionWindow,
    bool expectHang) {
  Call c;
  c.thread = std::move(thread);
  c.startTick = startTick;
  c.label = std::move(label);
  c.action = [fn = std::move(action)]() -> std::int64_t {
    fn();
    return 0;
  };
  c.completionWindow = completionWindow;
  c.expectHang = expectHang;
  return add(std::move(c));
}

void TestDriver::runThreadCalls(const std::string& threadName) {
  for (Slot& s : slots_) {
    if (s.call.thread != threadName) continue;
    clk_.await(s.call.startTick);
    try {
      std::int64_t v = s.call.action();
      s.report.value = v;
      s.report.completed = true;
      s.report.completedAtTick = clk_.time();
    } catch (const ExecutionAborted&) {
      throw;  // scheduler teardown: propagate
    } catch (const std::exception& e) {
      s.report.error = e.what();
      s.report.completed = true;
      s.report.completedAtTick = clk_.time();
    }
  }
}

Results TestDriver::execute() {
  Results results;
  for (const std::string& name : threadOrder_) {
    rt_.spawn(name, [this, name] { runThreadCalls(name); });
  }
  // The abstract clock auto-advances whenever every logical thread is
  // blocked, so the run either completes or ends in a genuine deadlock
  // (which is legitimate when expectHang calls are present).
  results.run = rt_.scheduler().run();

  // Evaluate expectations.
  for (Slot& s : slots_) {
    CallReport& r = s.report;
    const Call& c = s.call;
    if (r.completed) {
      r.hangOk = !c.expectHang;
      if (c.completionWindow) {
        r.timeOk = r.completedAtTick >= c.completionWindow->first &&
                   r.completedAtTick <= c.completionWindow->second;
      }
      if (c.expectedValue && r.error.empty()) {
        r.valueOk = r.value.has_value() && *r.value == *c.expectedValue;
      }
    } else {
      r.hangOk = c.expectHang;
    }
    results.reports.push_back(r);
  }
  return results;
}

}  // namespace confail::conan
