// ProducerConsumer: the paper's Figure 2, translated statement-for-statement
// from Java to the confail monitor substrate.
//
//   class ProducerConsumer {
//       String contents;  int totalLength, curPos = 0;
//       public synchronized char receive() {
//           char y;
//           while (curPos == 0) wait();
//           y = contents.charAt(totalLength - curPos);
//           curPos = curPos - 1;
//           notifyAll();
//           return y;
//       }
//       public synchronized void send(String x) {
//           while (curPos > 0) wait();
//           contents = x;  totalLength = x.length();  curPos = totalLength;
//           notifyAll();
//       }
//   }
//
// The component is an *asymmetric* producer-consumer monitor (Brinch
// Hansen's Concurrent Pascal example): send deposits a whole string, and
// each receive call retrieves one character.
//
// A Faults plan injects exactly one (or more) of the paper's Table 1
// failure classes; the correct and faulty paths live side by side so each
// seeded fault is explicit and reviewable.
#pragma once

#include <string>

#include "confail/cofg/method_model.hpp"
#include "confail/monitor/monitor.hpp"
#include "confail/monitor/runtime.hpp"
#include "confail/monitor/shared_var.hpp"

namespace confail::components {

using monitor::Runtime;

class ProducerConsumer {
 public:
  /// Seeded faults, one switch per Table 1 failure class (see bench/table1
  /// for the class -> switch mapping).
  struct Faults {
    /// FF-T1: methods are not synchronized; guards busy-wait on the shared
    /// state with no mutual exclusion (interference manifests).
    bool skipSync = false;
    /// EF-T5 vulnerability: `if (guard) wait();` instead of `while`.
    bool ifInsteadOfWhile = false;
    /// FF-T3: receive() never waits; an empty buffer yields a garbage char.
    bool skipWaitReceive = false;
    /// EF-T3: send() erroneously waits once even when the buffer is empty.
    bool erroneousWaitSend = false;
    /// FF-T4: receive() spins forever inside the critical section.
    bool holdLockForever = false;
    /// EF-T4: send() releases the lock after storing contents but before
    /// updating totalLength/curPos, finishing the update unsynchronized.
    bool earlyReleaseSend = false;
    /// FF-T5: receive()/send() never notify.
    bool skipNotify = false;
    /// FF-T5 (weaker): notify() instead of notifyAll() — with several
    /// blocked senders and receivers, the single wake can go to the wrong
    /// thread and the rest hang.
    bool notifyOneOnly = false;
    /// Environment hostility rather than a code fault: probability of a
    /// spurious wakeup per unlock.  Harmless with while-guards; converts
    /// the ifInsteadOfWhile vulnerability into real EF-T5 premature
    /// re-entry.
    double spuriousWakeProbability = 0.0;
  };

  ProducerConsumer(Runtime& rt, const Faults& faults);
  explicit ProducerConsumer(Runtime& rt) : ProducerConsumer(rt, Faults()) {}

  /// Retrieve a single character (blocks while the buffer is empty).
  char receive();

  /// Deposit a string (blocks while unreceived characters remain).
  void send(const std::string& x);

  /// Number of characters not yet received (unsynchronized peek for tests).
  int pendingChars() const { return curPos_.peek(); }

  monitor::Monitor& mon() { return mon_; }
  events::MethodId receiveMethodId() const { return mReceive_; }
  events::MethodId sendMethodId() const { return mSend_; }

  /// The MethodModels from which the Figure 3 CoFGs are built.  Both
  /// methods share the same shape: one guarded wait loop, one notifyAll.
  static cofg::MethodModel receiveModel();
  static cofg::MethodModel sendModel();

  /// Model of the method a given fault plan *actually* implements — the
  /// mutant's CoFG.  Comparing it against the correct model exposes the
  /// structural difference (e.g. the if-guard loses the wait->wait arc;
  /// skipWaitReceive loses the wait node entirely).
  static cofg::MethodModel receiveModelFor(const Faults& f);
  static cofg::MethodModel sendModelFor(const Faults& f);

 private:
  void guardEval(events::MethodId m, bool value);

  Runtime& rt_;
  Faults f_;
  monitor::Monitor mon_;
  monitor::SharedVar<std::string> contents_;
  monitor::SharedVar<int> totalLength_;
  monitor::SharedVar<int> curPos_;
  events::MethodId mReceive_;
  events::MethodId mSend_;
};

}  // namespace confail::components
