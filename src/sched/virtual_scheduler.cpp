#include "confail/sched/virtual_scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <utility>

#include "confail/obs/metrics.hpp"

#include <cxxabi.h>

#ifdef __has_feature
#define CONFAIL_HAS_FEATURE(x) __has_feature(x)
#else
#define CONFAIL_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_THREAD__) || CONFAIL_HAS_FEATURE(thread_sanitizer)
#define CONFAIL_SAN_THREAD 1
#include <sanitizer/tsan_interface.h>
#endif
#if defined(__SANITIZE_ADDRESS__) || CONFAIL_HAS_FEATURE(address_sanitizer)
#define CONFAIL_SAN_ADDRESS 1
#include <sanitizer/common_interface_defs.h>
#endif

// Raw stack-image snapshot and restore is only implemented where it is
// known sound — Linux, on the two targets below — and is incompatible with
// the TSan/ASan shadow-stack bookkeeping.
#if defined(__linux__) && !defined(CONFAIL_SAN_THREAD) && \
    !defined(CONFAIL_SAN_ADDRESS)
#define CONFAIL_STACK_SNAPSHOTS 1
#endif

// confail_fiber_switch(saveSp, loadSp): the one instruction sequence that
// moves control between stacks.  It pushes the callee-saved registers and
// the floating-point control state (x86-64: MXCSR and the x87 control
// word; AArch64: FPCR) on the current stack, stores the stack pointer to
// *saveSp, loads loadSp as the stack pointer, pops the same frame from
// there and returns into the code that suspended on it.  Everything else
// is caller-saved under the platform ABI, so the C++ call site already
// assumes it is clobbered.  The signal mask is deliberately not part of a
// fiber's state: nothing here changes it, so no switch makes a syscall.
extern "C" void confail_fiber_switch(void** saveSp, void* loadSp) noexcept;

#if defined(__x86_64__)
#if defined(__CET__)
#define CONFAIL_FIBER_ENDBR "endbr64\n"
#else
#define CONFAIL_FIBER_ENDBR ""
#endif
// Frame, from the saved sp up (8-byte words): x87 control word, MXCSR,
// r15, r14, r13, r12, rbx, rbp, return address.
asm(".pushsection .text\n"
    ".p2align 4\n"
    ".globl confail_fiber_switch\n"
    ".hidden confail_fiber_switch\n"
    ".type confail_fiber_switch, @function\n"
    "confail_fiber_switch:\n"
    CONFAIL_FIBER_ENDBR
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $16, %rsp\n"
    "  stmxcsr 8(%rsp)\n"
    "  fnstcw (%rsp)\n"
    "  movq %rsp, (%rdi)\n"
    "  movq %rsi, %rsp\n"
    "  fldcw (%rsp)\n"
    "  ldmxcsr 8(%rsp)\n"
    "  addq $16, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  ret\n"
    ".size confail_fiber_switch, .-confail_fiber_switch\n"
    ".popsection\n");
#elif defined(__aarch64__)
// Frame, from the saved sp up (8-byte words): x19..x28, x29 (frame
// pointer), x30 (return address), d8..d15, FPCR, padding to 16 bytes.
asm(".pushsection .text\n"
    ".p2align 4\n"
    ".globl confail_fiber_switch\n"
    ".hidden confail_fiber_switch\n"
    ".type confail_fiber_switch, %function\n"
    "confail_fiber_switch:\n"
    "  sub sp, sp, #176\n"
    "  stp x19, x20, [sp, #0]\n"
    "  stp x21, x22, [sp, #16]\n"
    "  stp x23, x24, [sp, #32]\n"
    "  stp x25, x26, [sp, #48]\n"
    "  stp x27, x28, [sp, #64]\n"
    "  stp x29, x30, [sp, #80]\n"
    "  stp d8, d9, [sp, #96]\n"
    "  stp d10, d11, [sp, #112]\n"
    "  stp d12, d13, [sp, #128]\n"
    "  stp d14, d15, [sp, #144]\n"
    "  mrs x9, fpcr\n"
    "  str x9, [sp, #160]\n"
    "  mov x9, sp\n"
    "  str x9, [x0]\n"
    "  mov sp, x1\n"
    "  ldr x9, [sp, #160]\n"
    "  msr fpcr, x9\n"
    "  ldp x19, x20, [sp, #0]\n"
    "  ldp x21, x22, [sp, #16]\n"
    "  ldp x23, x24, [sp, #32]\n"
    "  ldp x25, x26, [sp, #48]\n"
    "  ldp x27, x28, [sp, #64]\n"
    "  ldp x29, x30, [sp, #80]\n"
    "  ldp d8, d9, [sp, #96]\n"
    "  ldp d10, d11, [sp, #112]\n"
    "  ldp d12, d13, [sp, #128]\n"
    "  ldp d14, d15, [sp, #144]\n"
    "  add sp, sp, #176\n"
    "  ret\n"
    ".size confail_fiber_switch, .-confail_fiber_switch\n"
    ".popsection\n");
#else
#error "the virtual scheduler's fiber switch is written for x86-64 and AArch64 only"
#endif

namespace confail::sched {

namespace {
// The scheduler resuming a fiber on this OS thread.  A fresh fiber's entry
// point takes no arguments, so it finds its scheduler here (and its record
// as that scheduler's running_).
thread_local VirtualScheduler* tlsResuming = nullptr;

// Stacks only need to hold the scenario bodies plus exception unwinding;
// the *captured* portion per snapshot is just [saved sp, top).
constexpr std::size_t kFiberStackBytes = 256 * 1024;
static_assert(kFiberStackBytes % 16 == 0 &&
                  __STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 16,
              "fiber stack tops must be 16-byte aligned");

// The first frame of a fresh fiber: what confail_fiber_switch pops, with
// `entry` as the return address, so the first switch to the fiber "returns"
// into entry with the stack aligned as for a call.  The floating-point
// control state is copied from the spawning context, as a new OS thread
// inherits it.  Returns the fiber's initial saved sp.
void* initialFrame(char* top, void (*entry)()) {
#if defined(__x86_64__)
  std::uint16_t fpucw = 0;
  std::uint32_t mxcsr = 0;
  asm volatile("fnstcw %0" : "=m"(fpucw));
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  // fpucw, mxcsr, r15..rbx, rbp = 0 (ends frame-pointer walks), entry;
  // above it a null return address for entry, which never returns.
  std::uint64_t frame[10] = {fpucw, mxcsr};
  frame[8] = reinterpret_cast<std::uintptr_t>(entry);
#else  // __aarch64__
  std::uint64_t fpcr = 0;
  asm volatile("mrs %0, fpcr" : "=r"(fpcr));
  // x19..x28, x29 = 0 (ends frame-pointer walks), x30 = entry, d8..d15,
  // fpcr, padding.
  std::uint64_t frame[22] = {};
  frame[11] = reinterpret_cast<std::uintptr_t>(entry);
  frame[20] = fpcr;
#endif
  char* const sp = top - sizeof(frame);
  std::memcpy(sp, frame, sizeof(frame));
  return sp;
}

// The C++ runtime keeps its exception bookkeeping (the stack of caught
// exceptions, the uncaught count) per OS thread.  A logical thread may
// reach a schedule point inside a catch block, so each fiber carries its
// own copy, swapped in around every resume.  This is the leading part of
// the Itanium C++ ABI's __cxa_eh_globals (libstdc++ and libc++abi).
struct EhGlobals {
  void* caughtExceptions = nullptr;
  unsigned int uncaughtExceptions = 0;
};
EhGlobals& liveEhGlobals() {
  return *reinterpret_cast<EhGlobals*>(abi::__cxa_get_globals());
}

}  // namespace

namespace detail {

/// One logical thread's frozen execution: the used top of its stack, from
/// the saved stack pointer up.  The registers of the suspend point are part
/// of those bytes (confail_fiber_switch pushed them).  Immutable; shared by
/// every snapshot taken while the fiber stayed suspended (version match).
struct StackImage {
  std::uint64_t version = 0;
  void* sp = nullptr;             ///< the fiber's saved stack pointer
  std::unique_ptr<char[]> bytes;  ///< copy of [sp, stackTop)
  EhGlobals eh;
};

/// The fiber backing a logical thread: its own stack, and while it is
/// suspended the stack pointer confail_fiber_switch saved there.
struct Fiber {
  /// A fresh fiber that starts in `entry` when first switched to.  The
  /// stack is not zeroed: nothing reads below the stack pointer.
  explicit Fiber(void (*entry)())
      : stack(std::make_unique_for_overwrite<char[]>(kFiberStackBytes)),
        sp(initialFrame(stack.get() + kFiberStackBytes, entry)),
        version(nextSnapshotVersion()) {}
#ifdef CONFAIL_SAN_THREAD
  ~Fiber() { __tsan_destroy_fiber(tsan); }
#endif

  std::unique_ptr<char[]> stack;  ///< kFiberStackBytes
  void* sp = nullptr;  ///< saved stack pointer while suspended
  /// Stamp of the stack's current contents; bumped on every resume (the
  /// stack is about to change).  An image with an equal stamp is
  /// byte-identical to the live stack, so save and restore can skip it.
  std::uint64_t version = 0;
  std::shared_ptr<const StackImage> lastImage;
  EhGlobals eh;  ///< this fiber's exception state while it is suspended
#ifdef CONFAIL_SAN_THREAD
  void* tsan = __tsan_create_fiber(0);
#endif
};

/// Controller-side context the running fiber switches back into.
struct FiberRt {
  void* controllerSp = nullptr;  ///< the controller's saved stack pointer
#ifdef CONFAIL_SAN_THREAD
  void* tsan = nullptr;  ///< the controller's TSan context
#endif
#ifdef CONFAIL_SAN_ADDRESS
  const void* stackBottom = nullptr;  ///< the controller's stack, as ASan
  std::size_t stackSize = 0;          ///< reports it to a resumed fiber
#endif
};

/// The one place control changes stacks, so the sanitizers see every
/// switch: TSan the target fiber (synchronizing, as the alternation is
/// strict), ASan the target stack, so unwinding on a fiber stack is not
/// misreported.  `toFiber` is null when returning to the controller;
/// `dying` marks a finished fiber's last switch.
void switchContext([[maybe_unused]] FiberRt& rt, void*& fromSp, void* toSp,
                   [[maybe_unused]] Fiber* toFiber,
                   [[maybe_unused]] bool dying) {
#ifdef CONFAIL_SAN_ADDRESS
  void* fakeStack = nullptr;
  if (toFiber != nullptr) {
    __sanitizer_start_switch_fiber(&fakeStack, toFiber->stack.get(),
                                   kFiberStackBytes);
  } else {
    __sanitizer_start_switch_fiber(dying ? nullptr : &fakeStack,
                                   rt.stackBottom, rt.stackSize);
  }
#endif
#ifdef CONFAIL_SAN_THREAD
  if (toFiber != nullptr) rt.tsan = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(toFiber != nullptr ? toFiber->tsan : rt.tsan, 0);
#endif
  confail_fiber_switch(&fromSp, toSp);
#ifdef CONFAIL_SAN_ADDRESS
  // Back on `from`'s stack.  A fiber learns where the controller lives.
  if (toFiber != nullptr) {
    __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
  } else {
    __sanitizer_finish_switch_fiber(fakeStack, &rt.stackBottom, &rt.stackSize);
  }
#endif
}

}  // namespace detail

bool fibersSupported() noexcept {
#ifdef CONFAIL_STACK_SNAPSHOTS
  return true;
#else
  return false;
#endif
}

VirtualScheduler::ThreadRecord::ThreadRecord(ThreadId id_, std::string name_)
    : id(id_), name(std::move(name_)) {}

VirtualScheduler::ThreadRecord::~ThreadRecord() = default;

const char* blockKindName(BlockKind k) {
  switch (k) {
    case BlockKind::None: return "none";
    case BlockKind::LockAcquire: return "lock-acquire";
    case BlockKind::CondWait: return "cond-wait";
    case BlockKind::ClockAwait: return "clock-await";
    case BlockKind::Join: return "join";
    case BlockKind::Custom: return "custom";
  }
  return "?";
}

const char* outcomeName(Outcome o) {
  switch (o) {
    case Outcome::Completed: return "completed";
    case Outcome::Deadlock: return "deadlock";
    case Outcome::StepLimit: return "step-limit";
    case Outcome::Exception: return "exception";
  }
  return "?";
}

std::uint64_t deadlockSignature(const RunResult& r) {
  std::uint64_t h = kFpSeed;
  for (const BlockedThreadInfo& b : r.blocked) {
    h = fpMix(h, (static_cast<std::uint64_t>(b.id) << 32) ^
                     static_cast<std::uint64_t>(b.kind));
    h = fpMix(h, b.resource);
  }
  return h;
}

VirtualScheduler::VirtualScheduler(Strategy& strategy, Options opts)
    : strategy_(strategy),
      opts_(std::move(opts)),
      fiberRt_(std::make_unique<detail::FiberRt>()) {}

VirtualScheduler::~VirtualScheduler() {
  // run() was never called (or a test gave up on it): unwind every fiber
  // that is still mid-body so its stack objects are destroyed.
  if (!finished_) abortRun();
}

ThreadId VirtualScheduler::spawn(std::string name, std::function<void()> fn) {
  CONFAIL_CHECK(!finished_ && !aborting_, UsageError,
                "spawn after the run finished");
  // A mid-run spawn changes the runnable universe for every later decision
  // and allocates a thread id whose value depends on spawn order: never
  // treat the spawning step as independent of anything.
  if (onLogicalThread()) noteGlobalEffect();
  const ThreadId id = static_cast<ThreadId>(threads_.size());
  auto rec = std::make_unique<ThreadRecord>(id, std::move(name));
  rec->fn = std::move(fn);
  rec->fiber = std::make_unique<detail::Fiber>(&fiberTrampoline);
  threads_.push_back(std::move(rec));
  ++liveCount_;
  strategy_.onSpawn(id);
  return id;
}

void VirtualScheduler::fiberTrampoline() {
  VirtualScheduler* sched = tlsResuming;
  CONFAIL_ASSERT(sched != nullptr && sched->running_ != nullptr,
                 "fiber started without a resuming scheduler");
  sched->fiberMain(*sched->running_);
  // fiberMain's final swap back to the controller never returns: resuming
  // a finished fiber is a scheduler bug.
  std::abort();
}

void VirtualScheduler::fiberMain(ThreadRecord& rec) {
#ifdef CONFAIL_SAN_ADDRESS
  // First entry: complete the switch the controller started.
  __sanitizer_finish_switch_fiber(nullptr, &fiberRt_->stackBottom,
                                  &fiberRt_->stackSize);
#endif
  if (!aborting_) {
    try {
      rec.fn();
    } catch (const ExecutionAborted&) {
      // Normal teardown path; nothing to record.
    } catch (...) {
      rec.error = std::current_exception();
    }
  }
  finishSelf(rec);
  detail::switchContext(*fiberRt_, rec.fiber->sp, fiberRt_->controllerSp,
                        nullptr, /*dying=*/true);
}

void VirtualScheduler::finishSelf(ThreadRecord& rec) {
  rec.state = ThreadState::Finished;
  rec.blockKind = BlockKind::None;
  --liveCount_;
  // Wake any logical threads joined on us (only outside teardown; during
  // teardown the controller wakes everyone itself).  unblock() records the
  // join-resource footprint, so a finish that wakes joiners conflicts with
  // their joinThread() step as required.
  if (!aborting_) {
    for (ThreadId j : rec.joiners) {
      if (recordOf(j).state == ThreadState::Blocked) unblock(j);
    }
  }
  rec.joiners.clear();
}

std::vector<ThreadId> VirtualScheduler::runnableSet() const {
  std::vector<ThreadId> out;
  for (const auto& rec : threads_) {
    if (rec->state == ThreadState::Runnable) out.push_back(rec->id);
  }
  return out;
}

VirtualScheduler::ThreadRecord& VirtualScheduler::recordOf(ThreadId t) {
  CONFAIL_ASSERT(t < threads_.size(), "bad thread id");
  return *threads_[t];
}

const VirtualScheduler::ThreadRecord& VirtualScheduler::recordOf(ThreadId t) const {
  CONFAIL_ASSERT(t < threads_.size(), "bad thread id");
  return *threads_[t];
}

RunResult VirtualScheduler::run() {
  CONFAIL_CHECK(!finished_, UsageError, "run() called twice");
  CONFAIL_CHECK(!onLogicalThread(), UsageError,
                "run() called from a logical thread");
  RunResult result;
  std::uint64_t contextSwitches = 0;
  runLoop(result, contextSwitches);
  abortRun();
  finished_ = true;
  // Nothing runs again: release the program's closures now, while what
  // they captured (typically the caller's Runtime) is still alive.
  for (auto& rec : threads_) rec->fn = nullptr;
  if (opts_.metrics != nullptr) {
    opts_.metrics->counter("sched.runs").inc();
    opts_.metrics->counter("sched.steps").add(result.steps);
    opts_.metrics->counter("sched.context_switches").add(contextSwitches);
  }
  return result;
}

void VirtualScheduler::runLoop(RunResult& result,
                               std::uint64_t& contextSwitches) {
  // Pre-size the per-step traces so the hot replay loop never reallocates;
  // cap the hint so a generous step budget (the 200k default) does not
  // preallocate megabytes for runs that finish in dozens of steps.
  const std::size_t reserveSteps =
      static_cast<std::size_t>(std::min<std::uint64_t>(opts_.maxSteps, 4096));
  result.schedule.reserve(reserveSteps);
  result.choiceSets.reserve(reserveSteps);
  if (opts_.captureState) result.stepFootprints.reserve(reserveSteps);
  // The incremental runner pre-seeds `result` with a restored prefix; a
  // fresh run() starts empty.  Context switches are counted across the
  // seam so the tally matches a from-scratch execution of the same path.
  ThreadId lastPick =
      result.schedule.empty() ? events::kNoThread : result.schedule.back();
  // Live DPOR sleep set (see Options::sleepSet); entries are erased as
  // executed steps wake them.  Empty for every caller but the DPOR
  // explorer, in which case all the sleep branches below are dead.
  std::vector<SleepEntry> sleep = opts_.sleepSet;
  std::vector<ThreadId> awake;  // reused filtered-runnable scratch

  for (;;) {
    std::vector<ThreadId> runnable = runnableSet();
    if (runnable.empty()) {
      if (liveCount_ == 0) {
        result.outcome = Outcome::Completed;
        break;
      }
      // Give idle handlers (e.g. the abstract clock) a chance to advance
      // logical time and unblock awaiters before declaring deadlock.
      bool progressed = false;
      for (IdleHandler* h : idleHandlers_) {
        if (h->onIdle()) {
          progressed = true;
          break;
        }
      }
      if (progressed) {
        // Idle-handler progress (abstract-clock advance) changes blocked
        // threads behind the back of the step that led here: poison the
        // preceding step so it never passes an independence check.
        if (opts_.captureState && !result.stepFootprints.empty()) {
          result.stepFootprints.back().global = true;
        }
        continue;
      }
      result.outcome = Outcome::Deadlock;
      for (const auto& rec : threads_) {
        if (rec->state == ThreadState::Blocked) {
          result.blocked.push_back(BlockedThreadInfo{
              rec->id, rec->name, rec->blockKind, rec->blockResource});
        }
      }
      break;
    }

    if (result.steps >= opts_.maxSteps) {
      result.outcome = Outcome::StepLimit;
      break;
    }

    // Sleep filtering: from sleepFilterFrom on, the strategy only sees
    // threads that are not asleep.  An all-asleep decision point means
    // every continuation from here is covered by a sibling branch — stop
    // the run; the explorer treats it as a pruned (non-leaf) execution.
    const std::vector<ThreadId>* pickable = &runnable;
    if (!sleep.empty() && result.steps >= opts_.sleepFilterFrom &&
        result.steps < opts_.sleepFilterTo) {
      awake.clear();
      for (ThreadId t : runnable) {
        bool asleep = false;
        for (const SleepEntry& e : sleep) {
          if (e.tid == t) {
            asleep = true;
            break;
          }
        }
        if (!asleep) awake.push_back(t);
      }
      if (awake.empty()) {
        result.outcome = Outcome::Completed;
        result.sleepPruned = true;
        break;
      }
      pickable = &awake;
    }

    // A step is definitely about to execute from this state: let the
    // incremental runner checkpoint it as a branch-resume point.
    if (checkpointHook_) checkpointHook_(result.steps, runnable.size());

    ThreadId pick;
    try {
      pick = strategy_.pick(*pickable, result.steps);
    } catch (const Error& e) {
      result.outcome = Outcome::Exception;
      result.errorMessage = e.what();
      break;
    }
    CONFAIL_ASSERT(
        std::binary_search(runnable.begin(), runnable.end(), pick),
        "strategy picked a non-runnable thread");

    result.schedule.push_back(pick);
    result.choiceSets.push_back(std::move(runnable));
    ++result.steps;
    if (lastPick != events::kNoThread && pick != lastPick) ++contextSwitches;
    lastPick = pick;
    if (opts_.captureState) stepFootprint_.clear();

    ThreadRecord& rec = recordOf(pick);
    rec.state = ThreadState::Running;
    resumeThread(rec);
    if (opts_.captureState) result.stepFootprints.push_back(stepFootprint_);

    // Wake sleeping threads whose covered reordering just became
    // observable: an executed step dependent with the entry's footprint
    // (or the entry's own thread being scheduled) invalidates it.
    if (!sleep.empty() && opts_.captureState &&
        result.steps - 1 >= opts_.sleepProcessFrom) {
      const Footprint& executed = result.stepFootprints.back();
      for (std::size_t k = sleep.size(); k-- > 0;) {
        if (sleep[k].tid == pick || sleep[k].fp.dependentWith(executed)) {
          sleep.erase(sleep.begin() + static_cast<std::ptrdiff_t>(k));
        }
      }
    }

    if (rec.state == ThreadState::Finished && rec.error) {
      result.outcome = Outcome::Exception;
      try {
        std::rethrow_exception(rec.error);
      } catch (const std::exception& e) {
        result.errorMessage = e.what();
      } catch (...) {
        result.errorMessage = "unknown exception";
      }
      break;
    }
  }
}

void VirtualScheduler::abortRun() {
  aborting_ = true;
  for (auto& rec : threads_) {
    if (rec->state != ThreadState::Finished) {
      // Wake it; it will observe aborting_, throw ExecutionAborted through
      // the user stack (RAII releases any held resources) and finish.
      resumeThread(*rec);
      CONFAIL_ASSERT(rec->state == ThreadState::Finished,
                     "aborted thread did not finish");
    }
  }
}

void VirtualScheduler::resumeThread(ThreadRecord& rec) {
  detail::Fiber& f = *rec.fiber;
  // The fiber's stack is about to change: no frozen image matches it from
  // here on.
  f.version = nextSnapshotVersion();
  EhGlobals& eh = liveEhGlobals();
  const EhGlobals controllerEh = eh;
  eh = f.eh;
  running_ = &rec;
  tlsResuming = this;
  detail::switchContext(*fiberRt_, fiberRt_->controllerSp, f.sp, &f,
                        /*dying=*/false);
  running_ = nullptr;
  f.eh = eh;
  eh = controllerEh;
}

void VirtualScheduler::checkAbort() const {
  if (aborting_) {
    throw ExecutionAborted("virtual scheduler run aborted");
  }
}

void VirtualScheduler::yield() {
  CONFAIL_ASSERT(onLogicalThread(), "yield off a logical thread");
  // During teardown a thread may pass a schedule point while unwinding
  // (e.g. a Synchronized destructor releasing a lock).  Yielding is
  // optional, so make it a no-op instead of throwing mid-unwind.
  if (aborting_) return;
  // Never park while an exception is propagating on this thread: if the
  // run were aborted while parked, the abort exception would collide with
  // the in-flight one and std::terminate.  Skipping the schedule point is
  // always safe.
  if (std::uncaught_exceptions() > 0) return;
  ThreadRecord& rec = *running_;
  rec.state = ThreadState::Runnable;
  switchToController(rec);
}

namespace {
// Footprint tag of a blocking resource: the rendezvous point between a
// block() and the unblock()/reblock() that releases it.
std::uint64_t blockTag(BlockKind kind, std::uint64_t resource) {
  return fpTag('b', (static_cast<std::uint64_t>(kind) << 56) ^ resource);
}
}  // namespace

void VirtualScheduler::block(BlockKind kind, std::uint64_t resource) {
  CONFAIL_ASSERT(onLogicalThread(), "block off a logical thread");
  checkAbort();
  noteAccess(blockTag(kind, resource), /*isWrite=*/true);
  ThreadRecord& rec = *running_;
  rec.state = ThreadState::Blocked;
  rec.blockKind = kind;
  rec.blockResource = resource;
  switchToController(rec);
}

void VirtualScheduler::switchToController(ThreadRecord& rec) {
  detail::switchContext(*fiberRt_, rec.fiber->sp, fiberRt_->controllerSp,
                        nullptr, /*dying=*/false);
  checkAbort();
  CONFAIL_ASSERT(rec.state == ThreadState::Running,
                 "scheduled thread not marked running");
}

void VirtualScheduler::unblock(ThreadId t) {
  ThreadRecord& rec = recordOf(t);
  CONFAIL_ASSERT(rec.state == ThreadState::Blocked,
                 "unblock of a thread that is not blocked");
  noteAccess(blockTag(rec.blockKind, rec.blockResource), /*isWrite=*/true);
  rec.state = ThreadState::Runnable;
  rec.blockKind = BlockKind::None;
  rec.blockResource = 0;
}

void VirtualScheduler::joinThread(ThreadId t) {
  CONFAIL_ASSERT(onLogicalThread(), "joinThread off a logical thread");
  ThreadId self = currentThread();
  CONFAIL_CHECK(t != self, UsageError, "a thread cannot join itself");
  ThreadRecord& target = recordOf(t);
  if (target.state == ThreadState::Finished) return;
  target.joiners.push_back(self);
  block(BlockKind::Join, t);
}

void VirtualScheduler::reblock(ThreadId t, BlockKind kind,
                               std::uint64_t resource) {
  ThreadRecord& rec = recordOf(t);
  CONFAIL_ASSERT(rec.state == ThreadState::Blocked,
                 "reblock of a thread that is not blocked");
  noteAccess(blockTag(rec.blockKind, rec.blockResource), /*isWrite=*/true);
  noteAccess(blockTag(kind, resource), /*isWrite=*/true);
  rec.blockKind = kind;
  rec.blockResource = resource;
}

ThreadId VirtualScheduler::currentThread() const {
  return running_ != nullptr ? running_->id : events::kNoThread;
}

bool VirtualScheduler::onLogicalThread() const { return running_ != nullptr; }

const std::string& VirtualScheduler::threadName(ThreadId t) const {
  return recordOf(t).name;
}

BlockKind VirtualScheduler::blockKindOf(ThreadId t) const {
  return recordOf(t).blockKind;
}

std::size_t VirtualScheduler::threadCount() const { return threads_.size(); }

void VirtualScheduler::addIdleHandler(IdleHandler* h) {
  CONFAIL_ASSERT(h != nullptr, "null idle handler");
  idleHandlers_.push_back(h);
}

void VirtualScheduler::addSnapshotSource(SnapshotSource* s) {
  CONFAIL_ASSERT(s != nullptr, "null snapshot source");
  snapshotSources_.push_back(s);
  ++snapshotSourceGen_;
}

void VirtualScheduler::removeSnapshotSource(SnapshotSource* s) {
  for (auto it = snapshotSources_.begin(); it != snapshotSources_.end();
       ++it) {
    if (*it == s) {
      snapshotSources_.erase(it);
      ++snapshotSourceGen_;
      return;
    }
  }
}

std::shared_ptr<const VirtualScheduler::Snapshot>
VirtualScheduler::saveSnapshot() {
#ifdef CONFAIL_STACK_SNAPSHOTS
  CONFAIL_ASSERT(!onLogicalThread(), "saveSnapshot off the controller");
  auto snap = std::make_shared<Snapshot>();
  snap->threads.reserve(threads_.size());
  for (auto& recPtr : threads_) {
    ThreadRecord& rec = *recPtr;
    Snapshot::ThreadSnap ts;
    ts.state = rec.state;
    ts.blockKind = rec.blockKind;
    ts.blockResource = rec.blockResource;
    ts.joiners = rec.joiners;
    detail::Fiber& f = *rec.fiber;
    if (!f.lastImage || f.lastImage->version != f.version) {
      auto img = std::make_shared<detail::StackImage>();
      img->version = f.version;
      img->sp = f.sp;
      img->eh = f.eh;
      char* const top = f.stack.get() + kFiberStackBytes;
      const char* from = static_cast<const char*>(f.sp);
      CONFAIL_ASSERT(from >= f.stack.get() && from < top,
                     "fiber stack pointer out of range");
      const auto used = static_cast<std::size_t>(top - from);
      img->bytes = std::make_unique_for_overwrite<char[]>(used);
      std::memcpy(img->bytes.get(), from, used);
      snap->freshBytes += used + sizeof(detail::StackImage);
      f.lastImage = std::move(img);
    }
    ts.stack = f.lastImage;
    snap->threads.push_back(std::move(ts));
  }
  snap->liveCount = liveCount_;
  snap->sources.reserve(snapshotSources_.size());
  for (SnapshotSource* s : snapshotSources_) {
    Snapshot::SourceSnap ss;
    ss.src = s;
    ss.payload = s->snapshotSave(ss.version, snap->freshBytes);
    snap->sources.push_back(std::move(ss));
  }
  snap->sourceGen = snapshotSourceGen_;
  return snap;
#else
  return nullptr;
#endif
}

bool VirtualScheduler::restoreSnapshot(const Snapshot& snap) {
#ifdef CONFAIL_STACK_SNAPSHOTS
  if (snap.sourceGen != snapshotSourceGen_ ||
      snap.threads.size() != threads_.size()) {
    // The program spawned threads or (un)registered sources mid-run: the
    // snapshot no longer describes this session's object graph.
    return false;
  }
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    ThreadRecord& rec = *threads_[i];
    const Snapshot::ThreadSnap& ts = snap.threads[i];
    rec.state = ts.state;
    rec.blockKind = ts.blockKind;
    rec.blockResource = ts.blockResource;
    rec.joiners = ts.joiners;
    rec.error = nullptr;
    detail::Fiber& f = *rec.fiber;
    const detail::StackImage& img = *ts.stack;
    if (f.version != img.version) {
      f.sp = img.sp;
      f.eh = img.eh;
      char* const top = f.stack.get() + kFiberStackBytes;
      std::memcpy(img.sp, img.bytes.get(),
                  static_cast<std::size_t>(top - static_cast<char*>(img.sp)));
      f.version = img.version;
      f.lastImage = ts.stack;
    }
  }
  liveCount_ = snap.liveCount;
  for (const Snapshot::SourceSnap& ss : snap.sources) {
    ss.src->snapshotRestore(ss.payload, ss.version);
  }
  stepFootprint_.clear();
  aborting_ = false;
  return true;
#else
  (void)snap;
  return false;
#endif
}

void VirtualScheduler::noteAccess(std::uint64_t tag, bool isWrite) {
  if (!opts_.captureState || !onLogicalThread()) return;
  if (isWrite) {
    stepFootprint_.addWrite(tag);
  } else {
    stepFootprint_.addRead(tag);
  }
}

void VirtualScheduler::noteGlobalEffect() {
  if (!opts_.captureState) return;
  stepFootprint_.global = true;
}

}  // namespace confail::sched
