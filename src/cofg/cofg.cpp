#include "confail/cofg/cofg.hpp"

#include <sstream>

#include "confail/support/assert.hpp"
#include "confail/support/text.hpp"

namespace confail::cofg {

const char* nodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::Start: return "start";
    case NodeKind::Wait: return "wait";
    case NodeKind::Notify: return "notify";
    case NodeKind::NotifyAll: return "notifyAll";
    case NodeKind::End: return "end";
  }
  return "?";
}

std::string Node::label() const {
  std::string s = nodeKindName(kind);
  if (kind == NodeKind::Wait || kind == NodeKind::Notify ||
      kind == NodeKind::NotifyAll) {
    s += numbered("#", site);
  }
  return s;
}

std::string CofgArc::transitionString() const {
  return join(transitions, ", ");
}

namespace {

// Transitions fired when execution *leaves* a node (source side of an arc).
std::vector<std::string> sourceFirings(const Node& n, bool synced) {
  switch (n.kind) {
    case NodeKind::Start:
      // Entering the synchronized method: request + acquire the lock.
      return synced ? std::vector<std::string>{"T1", "T2"}
                    : std::vector<std::string>{};
    case NodeKind::Wait:
      // The wait itself (T3), being woken (T5), re-acquiring the lock (T2).
      return {"T3", "T5", "T2"};
    case NodeKind::Notify:
    case NodeKind::NotifyAll:
      // The notify call fires T5 of the woken waiter(s).
      return {"T5"};
    case NodeKind::End:
      break;
  }
  CONFAIL_ASSERT(false, "End cannot be an arc source");
  return {};
}

// Transitions fired when execution *reaches* a node (destination side).
std::vector<std::string> destFirings(const Node& n, bool synced) {
  switch (n.kind) {
    case NodeKind::Wait:
      return {"T3"};
    case NodeKind::Notify:
    case NodeKind::NotifyAll:
      return {"T5"};
    case NodeKind::End:
      // Leaving the synchronized method releases the lock.
      return synced ? std::vector<std::string>{"T4"}
                    : std::vector<std::string>{};
    case NodeKind::Start:
      break;
  }
  CONFAIL_ASSERT(false, "Start cannot be an arc destination");
  return {};
}

std::vector<std::string> concat(std::vector<std::string> a,
                                const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// The arc source cut short: for arc annotation of wait -> wait, the source
// wait's firings are [T3, T5, T2] and the destination adds T3, matching the
// paper's "T3, T5, T2, T3".

struct PendingSource {
  Node node;
  std::string leaveCondition;  // condition accumulated for leaving this node
};

}  // namespace

Cofg Cofg::build(const MethodModel& model) {
  Cofg g;
  g.methodName_ = model.name();
  const bool synced = model.isSynchronized();

  auto addArc = [&](const Node& src, const Node& dst, std::string condition) {
    CofgArc arc;
    arc.src = src;
    arc.dst = dst;
    arc.transitions = concat(sourceFirings(src, synced), destFirings(dst, synced));
    arc.condition = std::move(condition);
    g.arcs_.push_back(std::move(arc));
  };

  // Sources from which control may reach the next concurrency statement,
  // each with the guard condition that routes control past/out of it.
  std::vector<PendingSource> sources{
      PendingSource{Node{NodeKind::Start, 0}, ""}};

  const auto& items = model.items();
  for (std::uint32_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    switch (item.kind) {
      case ItemKind::WaitLoop:
      case ItemKind::WaitIf: {
        Node waitNode{NodeKind::Wait, i};
        const std::string guard = item.guardDescription.empty()
                                      ? std::string("guard")
                                      : "(" + item.guardDescription + ")";
        // Reaching the wait requires the guard to hold.
        for (const PendingSource& s : sources) {
          std::string cond = s.leaveCondition;
          if (!cond.empty()) cond += "; ";
          cond += guard + " true on entry";
          addArc(s.node, waitNode, cond);
        }
        if (item.kind == ItemKind::WaitLoop) {
          // Woken but the guard holds again: wait -> wait.
          addArc(waitNode, waitNode, guard + " true again after wake");
        }
        // Control continues either by never waiting (guard false on entry:
        // previous sources persist) or by waking with the guard false.
        for (PendingSource& s : sources) {
          if (!s.leaveCondition.empty()) s.leaveCondition += "; ";
          s.leaveCondition += guard + " false on entry";
        }
        sources.push_back(PendingSource{
            waitNode, guard + (item.kind == ItemKind::WaitLoop
                                   ? " false after wake"
                                   : " (no re-check: if-guard)")});
        break;
      }
      case ItemKind::Notify:
      case ItemKind::NotifyAll: {
        Node n{item.kind == ItemKind::Notify ? NodeKind::Notify
                                             : NodeKind::NotifyAll,
               i};
        for (const PendingSource& s : sources) {
          std::string cond = s.leaveCondition;
          if (item.optional && !item.guardDescription.empty()) {
            if (!cond.empty()) cond += "; ";
            cond += "(" + item.guardDescription + ")";
          }
          addArc(s.node, n, cond);
        }
        if (item.optional) {
          // Control may bypass the conditional notify: previous sources
          // persist alongside the notify node.
          for (PendingSource& s : sources) {
            if (!s.leaveCondition.empty()) s.leaveCondition += "; ";
            s.leaveCondition += "not (" + item.guardDescription + ")";
          }
          sources.push_back(PendingSource{n, ""});
        } else {
          sources.assign(1, PendingSource{n, ""});
        }
        break;
      }
    }
  }

  Node end{NodeKind::End, 0};
  for (const PendingSource& s : sources) {
    addArc(s.node, end, s.leaveCondition);
  }
  return g;
}

std::size_t Cofg::findArc(const Node& src, const Node& dst) const {
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (arcs_[i].src == src && arcs_[i].dst == dst) return i;
  }
  return npos;
}

std::vector<std::size_t> Cofg::arcsFrom(const Node& src) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (arcs_[i].src == src) out.push_back(i);
  }
  return out;
}

std::string Cofg::toDot() const {
  std::ostringstream os;
  os << "digraph \"" << methodName_ << "\" {\n  rankdir=TB;\n";
  for (const CofgArc& a : arcs_) {
    os << "  \"" << a.src.label() << "\" -> \"" << a.dst.label()
       << "\" [label=\"" << a.transitionString() << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string Cofg::describe() const {
  std::ostringstream os;
  os << "CoFG for " << methodName_ << " (" << arcs_.size() << " arcs):\n";
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    const CofgArc& a = arcs_[i];
    os << "  " << (i + 1) << ". " << a.label() << "   fires: "
       << a.transitionString();
    if (!a.condition.empty()) os << "   when: " << a.condition;
    os << '\n';
  }
  return os.str();
}

}  // namespace confail::cofg
