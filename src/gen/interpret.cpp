#include "confail/gen/interpret.hpp"

#include <memory>
#include <vector>

#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"
#include "confail/support/text.hpp"

namespace confail::gen {

namespace {

using components::scenarios::Instruments;

struct State {
  events::Trace ownTrace;
  monitor::Runtime rt;
  std::shared_ptr<void> decoration;  ///< outlives components, not rt
  Program prog;                      ///< owned copy; closures index into it
  std::vector<std::unique_ptr<monitor::Monitor>> mons;
  std::vector<std::unique_ptr<monitor::SharedVar<int>>> vars;

  State(sched::VirtualScheduler& sc, const Program& p, const Instruments& i)
      : rt(i.trace != nullptr ? *i.trace : ownTrace, sc, 1, i.metrics),
        decoration(i.decorate ? i.decorate(rt) : nullptr),
        prog(p) {
    for (std::uint8_t m = 0; m < prog.monitors; ++m) {
      mons.push_back(std::make_unique<monitor::Monitor>(
          rt, numbered("m", m)));
    }
    for (std::uint8_t v = 0; v < prog.vars; ++v) {
      vars.push_back(std::make_unique<monitor::SharedVar<int>>(
          rt, numbered("v", v), 0));
    }
  }
};

/// Execute one thread's ops.  Loop bookkeeping is a fixed-size array of
/// plain integers — a fiber stack snapshot captures it by value, which is
/// what makes interpreted programs snapshot-safe.
void runThread(State& st, std::size_t ti) {
  const std::vector<Op>& ops = st.prog.threads[ti].ops;
  struct LoopFrame {
    std::uint32_t begin;
    std::uint32_t remaining;
  };
  LoopFrame frames[kMaxLoopNest];
  std::size_t depth = 0;
  for (std::size_t pc = 0; pc < ops.size(); ++pc) {
    const Op op = ops[pc];
    switch (op.kind) {
      case OpKind::Lock:
        st.mons[op.obj]->lock();
        break;
      case OpKind::Unlock:
        st.mons[op.obj]->unlock();
        break;
      case OpKind::Wait:
        st.mons[op.obj]->wait();
        break;
      case OpKind::Notify:
        st.mons[op.obj]->notifyOne();
        break;
      case OpKind::NotifyAll:
        st.mons[op.obj]->notifyAll();
        break;
      case OpKind::Read:
        (void)st.vars[op.obj]->get();
        break;
      case OpKind::Write:
        // peek() observes without a schedule point, so a Write is exactly
        // one scheduled access (the set), like the hand-written scenarios.
        st.vars[op.obj]->set(st.vars[op.obj]->peek() + 1);
        break;
      case OpKind::Yield:
        st.rt.schedulePoint();
        break;
      case OpKind::LoopBegin:
        frames[depth].begin = static_cast<std::uint32_t>(pc);
        frames[depth].remaining = op.iters;
        ++depth;
        break;
      case OpKind::LoopEnd:
        if (--frames[depth - 1].remaining > 0) {
          pc = frames[depth - 1].begin;  // re-enter the body
        } else {
          --depth;
        }
        break;
    }
  }
}

}  // namespace

void interpret(const Program& p, sched::VirtualScheduler& s,
               const Instruments& ins) {
  if (ins.trace != nullptr) ins.trace->clear();
  // Runtime, Monitor and SharedVar all implement the snapshot protocol and
  // the interpreter keeps no heap-owning locals across schedule points, so
  // incremental (checkpoint/restore) exploration applies.
  s.declareSnapshotSafe();
  auto st = std::make_shared<State>(s, p, ins);
  for (std::size_t ti = 0; ti < st->prog.threads.size(); ++ti) {
    st->rt.spawn(numbered("t", ti), [st, ti] { runThread(*st, ti); });
  }
}

void interpret(const Program& p, sched::VirtualScheduler& s) {
  interpret(p, s, Instruments{});
}

components::scenarios::NamedScenario asScenario(const Program& p,
                                                std::string name) {
  components::scenarios::NamedScenario sc;
  auto prog = std::make_shared<Program>(p);
  sc.name = std::move(name);
  sc.fn = [prog](sched::VirtualScheduler& s) { interpret(*prog, s); };
  sc.ifn = [prog](sched::VirtualScheduler& s, const Instruments& ins) {
    interpret(*prog, s, ins);
  };
  sc.hasBuffer = false;
  // Generated programs are arbitrary: assume nothing about cleanliness.
  sc.faultSeeded = true;
  sc.usesMonitor = p.has(OpKind::Lock);
  sc.usesWaitNotify = p.has(OpKind::Wait) || p.has(OpKind::Notify) ||
                      p.has(OpKind::NotifyAll);
  sc.starveVictim = sc.usesMonitor ? "t0" : "";
  sc.blurb = "generated program (seed " + std::to_string(p.seed) + ")";
  return sc;
}

}  // namespace confail::gen
