#include "confail/gen/ir.hpp"
#include "confail/support/text.hpp"

#include <algorithm>

namespace confail::gen {

const char* opKindName(OpKind k) {
  switch (k) {
    case OpKind::Lock:
      return "lock";
    case OpKind::Unlock:
      return "unlock";
    case OpKind::Wait:
      return "wait";
    case OpKind::Notify:
      return "notify";
    case OpKind::NotifyAll:
      return "notifyAll";
    case OpKind::Read:
      return "read";
    case OpKind::Write:
      return "write";
    case OpKind::Yield:
      return "yield";
    case OpKind::LoopBegin:
      return "loop";
    case OpKind::LoopEnd:
      return "end";
  }
  return "?";
}

namespace {

bool isMonitorOp(OpKind k) {
  return k == OpKind::Lock || k == OpKind::Unlock || k == OpKind::Wait ||
         k == OpKind::Notify || k == OpKind::NotifyAll;
}

bool isVarOp(OpKind k) { return k == OpKind::Read || k == OpKind::Write; }

void renderOp(std::string& out, const Op& op) {
  out += opKindName(op.kind);
  if (isMonitorOp(op.kind)) {
    out += " m";
    out += std::to_string(op.obj);
  } else if (isVarOp(op.kind)) {
    out += " v";
    out += std::to_string(op.obj);
  } else if (op.kind == OpKind::LoopBegin) {
    out += ' ';
    out += std::to_string(op.iters);
  }
}

}  // namespace

std::size_t Program::opCount() const {
  std::size_t n = 0;
  for (const ThreadIR& t : threads) n += t.ops.size();
  return n;
}

bool Program::has(OpKind k) const {
  for (const ThreadIR& t : threads) {
    for (const Op& op : t.ops) {
      if (op.kind == k) return true;
    }
  }
  return false;
}

bool Program::monitorShared() const {
  for (std::uint8_t m = 0; m < monitors; ++m) {
    int lockers = 0;
    for (const ThreadIR& t : threads) {
      const bool locks =
          std::any_of(t.ops.begin(), t.ops.end(), [m](const Op& op) {
            return op.kind == OpKind::Lock && op.obj == m;
          });
      if (locks) ++lockers;
    }
    if (lockers >= 2) return true;
  }
  return false;
}

std::string Program::render() const {
  std::string out = "program seed=" + std::to_string(seed) +
                    " monitors=" + std::to_string(monitors) +
                    " vars=" + std::to_string(vars) +
                    " threads=" + std::to_string(threads.size()) + "\n";
  for (std::size_t ti = 0; ti < threads.size(); ++ti) {
    out += "  t" + std::to_string(ti) + ":";
    std::size_t depth = 0;
    for (const Op& op : threads[ti].ops) {
      if (op.kind == OpKind::LoopEnd && depth > 0) --depth;
      out += "\n    ";
      out.append(depth * 2, ' ');
      renderOp(out, op);
      if (op.kind == OpKind::LoopBegin) ++depth;
    }
    out += "\n";
  }
  return out;
}

bool Program::validate(std::string* why) const {
  auto fail = [why](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (threads.empty()) return fail("no threads");
  if (monitors == 0 && has(OpKind::Lock)) return fail("monitor op, 0 monitors");
  for (std::size_t ti = 0; ti < threads.size(); ++ti) {
    const std::string where = numbered("t", ti) + ": ";
    std::vector<std::uint8_t> lockStack;
    // Per loop frame: the lock depth at entry (the body must restore it)
    // and whether the body has emitted at least one op.
    struct LoopFrame {
      std::size_t lockBase;
      bool nonEmpty;
    };
    std::vector<LoopFrame> loops;
    for (const Op& op : threads[ti].ops) {
      if (!loops.empty() && op.kind != OpKind::LoopEnd) {
        loops.back().nonEmpty = true;
      }
      switch (op.kind) {
        case OpKind::Lock:
          if (op.obj >= monitors) return fail(where + "lock: bad monitor");
          if (lockStack.size() >= kMaxLockNest) {
            return fail(where + "lock nesting too deep");
          }
          lockStack.push_back(op.obj);
          break;
        case OpKind::Unlock:
          if (lockStack.empty() || lockStack.back() != op.obj) {
            return fail(where + "unlock does not match innermost lock");
          }
          if (!loops.empty() && lockStack.size() <= loops.back().lockBase) {
            return fail(where + "unlock crosses loop boundary");
          }
          lockStack.pop_back();
          break;
        case OpKind::Wait:
        case OpKind::Notify:
        case OpKind::NotifyAll:
          if (op.obj >= monitors) {
            return fail(where + "wait/notify: bad monitor");
          }
          if (std::find(lockStack.begin(), lockStack.end(), op.obj) ==
              lockStack.end()) {
            return fail(where + "wait/notify without holding the monitor");
          }
          break;
        case OpKind::Read:
        case OpKind::Write:
          if (op.obj >= vars) return fail(where + "read/write: bad var");
          break;
        case OpKind::Yield:
          break;
        case OpKind::LoopBegin:
          if (op.iters == 0) return fail(where + "loop with 0 iterations");
          if (loops.size() >= kMaxLoopNest) {
            return fail(where + "loop nesting too deep");
          }
          loops.push_back(LoopFrame{lockStack.size(), false});
          break;
        case OpKind::LoopEnd:
          if (loops.empty()) return fail(where + "end without loop");
          if (!loops.back().nonEmpty) return fail(where + "empty loop body");
          if (lockStack.size() != loops.back().lockBase) {
            return fail(where + "loop body not lock-balanced");
          }
          loops.pop_back();
          break;
      }
    }
    if (!loops.empty()) return fail(where + "unterminated loop");
    if (!lockStack.empty()) return fail(where + "locks held at thread end");
  }
  return true;
}

}  // namespace confail::gen
