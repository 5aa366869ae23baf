// Figure 1 reproduction: the Petri-net model of Java concurrency.
//
// The paper presents the net and argues informally about its transitions.
// This bench makes every claim checkable:
//   * prints the net (places A-D per thread, shared E; transitions T1-T5)
//     and the prose semantics of each transition;
//   * enumerates the reachability graph for N = 1..6 threads;
//   * verifies the three structural properties the model encodes:
//       - mutual exclusion   (E + sum C_i == 1 in every reachable marking),
//       - token conservation (A_i+B_i+C_i+D_i == 1 per thread),
//       - 1-boundedness;
//   * shows that the printed (free-notify) model is deadlock-free, while
//     the notify-gated refinement has dead markings that are exactly the
//     FF-T5 "all threads waiting" failure — with a shortest witness path;
//   * cross-validates: a real monitor-substrate execution trace is replayed
//     through the net as a firing sequence;
//   * scales the model: an N x M ladder through the packed, symmetry-reduced
//     engine, timed against the plain enumeration, emitted as
//     BENCH_petri.json (--smoke runs a truncated ladder).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "confail/events/trace.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/petri/invariants.hpp"
#include "confail/petri/reachability.hpp"
#include "confail/petri/symmetry.hpp"
#include "confail/petri/thread_lock_net.hpp"
#include "confail/petri/trace_validator.hpp"
#include "confail/sched/virtual_scheduler.hpp"
#include "confail/taxonomy/taxonomy.hpp"
#include "confail/support/text.hpp"

namespace petri = confail::petri;
namespace sched = confail::sched;
namespace tax = confail::taxonomy;

namespace {

struct LadderRow {
  unsigned threads;
  unsigned monitors;
  const char* model;
  std::size_t reducedStates = 0;
  std::uint64_t fullStates = 0;
  bool fullEnumerated = false;  ///< plain enumeration ran within the cap
  bool complete = false;        ///< reduced enumeration exhausted the space
  double reducedMs = 0.0;
  double fullMs = 0.0;
  double ratio = 0.0;  ///< full states / reduced states
  double statesPerSec = 0.0;  ///< full-space coverage rate via the quotient
};

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

LadderRow ladderRung(unsigned n, unsigned m, petri::NotifyModel model,
                     std::size_t cap) {
  LadderRow row{n, m, model == petri::NotifyModel::Free ? "free" : "gated"};
  auto tl = petri::buildThreadLockNet(n, m, model);

  petri::SymReachOptions ro;
  ro.symmetry = petri::Symmetry::Threads;
  ro.maxStates = cap;
  auto t0 = std::chrono::steady_clock::now();
  auto reduced = petri::reachableSymmetric(tl, ro);
  row.reducedMs = msSince(t0);
  row.reducedStates = reduced.stateCount();
  row.fullStates = reduced.fullStateCount();
  row.complete = reduced.complete;

  // Time the unreduced enumeration where it fits the cap; past that the
  // quotient is the only feasible engine and the row says so.
  if (row.complete && row.fullStates <= cap) {
    t0 = std::chrono::steady_clock::now();
    auto full = petri::reachable(tl.net, tl.initial, cap);
    row.fullMs = msSince(t0);
    row.fullEnumerated = full.complete;
  }
  if (row.reducedStates > 0) {
    row.ratio = static_cast<double>(row.fullStates) /
                static_cast<double>(row.reducedStates);
  }
  if (row.reducedMs > 0.0) {
    row.statesPerSec =
        static_cast<double>(row.fullStates) / (row.reducedMs / 1000.0);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  int failures = 0;
  auto check = [&failures](bool ok, const std::string& what) {
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  std::printf("=== Figure 1: Petri-net model of concurrency ===\n\n");

  {
    auto tl = petri::buildThreadLockNet(1, petri::NotifyModel::Free);
    std::printf("%s\n", tl.net.describe().c_str());
    std::printf("initial marking: %s\n\n",
                tl.net.renderMarking(tl.initial).c_str());
  }

  std::printf("transition semantics (Section 4):\n");
  for (auto t : {tax::Transition::T1, tax::Transition::T2, tax::Transition::T3,
                 tax::Transition::T4, tax::Transition::T5}) {
    std::printf("  %s: %s\n", tax::transitionName(t),
                tax::transitionDescription(t));
  }

  std::printf("\n--- reachability, N threads x 1 lock (free-notify model) ---\n");
  std::printf("%8s %10s %10s %6s %8s %8s %8s\n", "threads", "states",
              "edges", "dead", "mutex", "conserve", "1-bound");
  for (unsigned n = 1; n <= 6; ++n) {
    auto tl = petri::buildThreadLockNet(n, petri::NotifyModel::Free);
    auto r = petri::reachable(tl.net, tl.initial);
    bool mutex = petri::holdsPInvariant(r, tl.lockInvariantWeights());
    bool conserve = true;
    for (unsigned i = 0; i < n; ++i) {
      conserve =
          conserve && petri::holdsPInvariant(r, tl.threadConservationWeights(i));
    }
    bool bounded = petri::maxTokensPerPlace(r) == 1;
    std::printf("%8u %10zu %10zu %6zu %8s %8s %8s\n", n, r.stateCount(),
                r.edgeCount(), r.deadStates.size(), mutex ? "yes" : "NO",
                conserve ? "yes" : "NO", bounded ? "yes" : "NO");
    if (!r.complete || !mutex || !conserve || !bounded || !r.deadStates.empty()) {
      ++failures;
    }
  }
  std::printf("(the free model is deadlock-free: T5 may always fire; the\n"
              " dashed notify arc is abstracted as spontaneous)\n");

  std::printf("\n--- structural P-invariants (computed, not asserted) ---\n");
  {
    auto tl = petri::buildThreadLockNet(3, petri::NotifyModel::Free);
    auto basis = petri::computePInvariants(tl.net);
    std::printf("  invariant basis of the 3-thread net (%zu vectors; expected "
                "4 = 3 thread conservations + mutual exclusion):\n",
                basis.size());
    for (const auto& y : basis) {
      std::printf("   ");
      for (petri::PlaceId p = 0; p < tl.net.placeCount(); ++p) {
        if (y[p] != 0) {
          std::printf(" %+lld*%s", y[p], tl.net.placeName(p).c_str());
        }
      }
      std::printf("  = const\n");
    }
    check(basis.size() == 4, "null-space dimension matches the model");
    bool allHold = true;
    auto r = petri::reachable(tl.net, tl.initial);
    for (const auto& y : basis) {
      std::vector<int> w(y.begin(), y.end());
      allHold = allHold && petri::holdsPInvariant(r, w);
    }
    check(allHold, "every computed invariant holds over the reachable set");
  }

  std::printf("\n--- notify-gated refinement: T5_i requires a notifier in C_j ---\n");
  std::printf("%8s %10s %6s %22s\n", "threads", "states", "dead",
              "all-waiting dead state");
  for (unsigned n = 2; n <= 5; ++n) {
    auto tl = petri::buildThreadLockNet(n, petri::NotifyModel::Gated);
    auto r = petri::reachable(tl.net, tl.initial);
    bool allWaitingDead = false;
    std::size_t witness = 0;
    for (std::size_t s : r.deadStates) {
      if (tl.allWaiting(r.states[s])) {
        allWaitingDead = true;
        witness = s;
        break;
      }
    }
    std::printf("%8u %10zu %6zu %22s\n", n, r.stateCount(),
                r.deadStates.size(), allWaitingDead ? "reachable" : "ABSENT");
    if (!allWaitingDead) ++failures;
    if (n == 2 && allWaitingDead) {
      auto path = petri::shortestPathTo(tl.net, r, witness);
      std::printf("  shortest witness (N=2): ");
      for (std::size_t i = 0; i < path.size(); ++i) {
        std::printf("%s%s", i ? " " : "",
                    tl.net.transitionName(path[i]).c_str());
      }
      std::printf("  -> %s\n", tl.net.renderMarking(r.states[witness]).c_str());
      std::printf("  (this dead marking IS Table 1's FF-T5: every thread in "
                  "the wait state, no notifier left)\n");
    }
  }

  std::printf("\n--- model vs substrate: trace replay ---\n");
  {
    confail::events::Trace trace;
    sched::RoundRobinStrategy strategy;
    sched::VirtualScheduler s(strategy);
    confail::monitor::Runtime rt(trace, s, 1);
    confail::monitor::Monitor m(rt, "m");
    bool go = false;
    for (int i = 0; i < 3; ++i) {
      rt.spawn(confail::numbered("w", i), [&] {
        confail::monitor::Synchronized sync(m);
        while (!go) m.wait();
      });
    }
    rt.spawn("n", [&] {
      for (int k = 0; k < 10; ++k) rt.schedulePoint();
      confail::monitor::Synchronized sync(m);
      go = true;
      m.notifyAll();
    });
    auto run = s.run();
    auto v = petri::validateTraceAgainstModel(trace, m.id());
    check(run.ok(), "4-thread wait/notifyAll scenario completes");
    check(v.ok, "its trace is a legal firing sequence of the Figure 1 net (" +
                    std::to_string(v.eventsChecked) + " transitions checked)");
  }

  std::printf("\n--- scaling: N x M ladder, symmetry-reduced vs plain ---\n");
  {
    const std::size_t cap = std::size_t{1} << 20;
    const unsigned maxN1 = smoke ? 6 : 8;
    const unsigned maxN2 = smoke ? 4 : 6;
    std::vector<LadderRow> rows;
    for (petri::NotifyModel model :
         {petri::NotifyModel::Free, petri::NotifyModel::Gated}) {
      for (unsigned n = 2; n <= maxN1; ++n) {
        rows.push_back(ladderRung(n, 1, model, cap));
      }
      for (unsigned n = 2; n <= maxN2; ++n) {
        rows.push_back(ladderRung(n, 2, model, cap));
      }
    }
    if (!smoke) {
      // Past the plain engine's horizon: 8x2 has ~5.7M concrete states,
      // the quotient stays in the thousands.
      rows.push_back(
          ladderRung(8, 2, petri::NotifyModel::Free, cap));
      rows.push_back(
          ladderRung(8, 2, petri::NotifyModel::Gated, cap));
    }

    std::printf("%6s %4s %6s %10s %12s %8s %10s %12s\n", "model", "N", "M",
                "reduced", "full", "ratio", "red ms", "states/sec");
    for (const LadderRow& row : rows) {
      std::printf("%6s %4u %6u %10zu %12llu %7.1fx %10.2f %12.0f%s\n",
                  row.model, row.threads, row.monitors, row.reducedStates,
                  static_cast<unsigned long long>(row.fullStates), row.ratio,
                  row.reducedMs, row.statesPerSec,
                  row.complete ? "" : "  CAPPED");
      if (!row.complete) ++failures;
    }

    // Gates: the quotient must buy at least 4x at gated 6x1, and gated 8x1
    // must enumerate exhaustively — the acceptance case for this engine.
    const auto gate6 = ladderRung(6, 1, petri::NotifyModel::Gated, cap);
    check(gate6.ratio >= 4.0, "gated 6x1 symmetry reduction is >= 4x (got " +
                                  std::to_string(gate6.ratio) + "x)");
    const auto gate8 = ladderRung(8, 1, petri::NotifyModel::Gated, cap);
    check(gate8.complete && gate8.fullStates == 24057,
          "gated 8x1 enumerates exhaustively under symmetry (24057 concrete"
          " states as " + std::to_string(gate8.reducedStates) + ")");

    confail::benchjson::Writer w;
    w.beginObject();
    w.field("schema", "confail.bench.petri.v1");
    confail::benchjson::stamp(w, smoke);
    w.field("smoke", smoke);
    w.field("max_states", cap);
    w.key("ladder");
    w.beginArray();
    for (const LadderRow& row : rows) {
      w.beginObject();
      w.field("model", row.model);
      w.field("threads", row.threads);
      w.field("monitors", row.monitors);
      w.field("reduced_states", row.reducedStates);
      w.field("full_states", row.fullStates);
      w.field("reduction_ratio", row.ratio);
      w.field("complete", row.complete);
      w.field("full_enumerated", row.fullEnumerated);
      w.field("reduced_ms", row.reducedMs);
      w.field("full_ms", row.fullMs);
      w.field("states_per_sec", row.statesPerSec);
      w.endObject();
    }
    w.endArray();
    w.key("gates");
    w.beginObject();
    w.field("gated_6x1_reduction", gate6.ratio);
    w.field("gated_8x1_complete", gate8.complete);
    w.field("gated_8x1_reduced_states", gate8.reducedStates);
    w.endObject();
    w.endObject();
    if (!w.writeFile("BENCH_petri.json")) {
      std::printf("  [FAIL] cannot write BENCH_petri.json\n");
      ++failures;
    } else {
      std::printf("  wrote BENCH_petri.json (%zu ladder rows)\n", rows.size());
    }
  }

  std::printf("\n%s\n", failures == 0 ? "FIGURE 1 REPRODUCTION: OK"
                                      : "FIGURE 1 REPRODUCTION: FAILURES");
  return failures == 0 ? 0 : 1;
}
