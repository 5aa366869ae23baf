// Snapshot protocol for incremental (stateful) exploration.
//
// The stateless explorer re-executes every branch's schedule prefix from
// the root — O(depth) re-execution per run.  Incremental exploration
// (incremental.hpp) instead checkpoints the complete session state at each
// decision point and *restores* a parent's state when a child branch is
// dispatched, the classic stateful-search move of JPF and VeriSoft.
//
// A SnapshotSource is any object whose mutable state must survive a
// checkpoint/restore round trip: monitors, shared variables, the Runtime
// (policy RNG, id counters, method stacks, trace length) and the fault
// Injector all implement it.  The protocol is copy-on-write via *version
// stamps*, and the one property it relies on is that a stamp is never
// handed out twice, to any object on any thread:
//
//   * every mutation calls snapshotBump(), which assigns the object a
//     fresh stamp;
//   * snapshotSave() re-serializes only if the object's stamp changed
//     since the cached payload was produced — sibling checkpoints that
//     saw no intervening mutation share one immutable payload;
//   * snapshotRestore() skips the copy entirely when the object already
//     carries the payload's stamp: stamps are never reused, so an equal
//     stamp proves the bytes are already identical.
//
// Stamps are only ever compared for equality, so they need not be
// ordered.  Each OS thread claims a block of 2^16 stamps from one global
// counter and hands them out from a thread-local cursor: unique across
// threads, and explorer workers do not contend on a shared cache line.
//
// Stamps come from that one shared counter, not from per-object counters:
// with per-object counters, save at version v, mutate, restore to v,
// mutate again would re-reach "v+1" with *different* contents and a later
// restore-to-v+1 would incorrectly skip the copy.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace confail::sched {

/// A snapshot-version stamp never returned before, on this thread or any
/// other.  Equal stamps therefore prove equal state; stamps carry no order.
inline std::uint64_t nextSnapshotVersion() noexcept {
  constexpr std::uint64_t kBlock = std::uint64_t{1} << 16;
  static std::atomic<std::uint64_t> nextBlock{1};  // 0 is never a stamp
  thread_local std::uint64_t next = 0;
  thread_local std::uint64_t end = 0;
  if (next == end) {
    next = nextBlock.fetch_add(kBlock, std::memory_order_relaxed);
    end = next + kBlock;
  }
  return next++;
}

/// An object participating in checkpoint/restore.  Implementations provide
/// saveState()/restoreState() (a deep copy of their mutable state as an
/// opaque immutable payload) and call snapshotBump() from every mutating
/// operation; the base class supplies the copy-on-write caching on top.
///
/// Monitors, shared variables, the Runtime and the Injector register
/// themselves via VirtualScheduler::addSnapshotSource and unregister in
/// their destructors.
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;

  /// Payload for the object's current state, reusing the cached one when
  /// nothing mutated since it was produced.  `versionOut` receives the
  /// stamp the payload corresponds to.  `freshBytes` is incremented by the
  /// payload size only when a new payload had to be serialized (budget
  /// accounting: shared payloads are free).
  std::shared_ptr<const void> snapshotSave(std::uint64_t& versionOut,
                                           std::size_t& freshBytes) {
    if (!cached_ || cachedVersion_ != version_) {
      cached_ = saveState();
      cachedVersion_ = version_;
      freshBytes += snapshotBytes();
    }
    versionOut = version_;
    return cached_;
  }

  /// Rewind to `payload` (previously produced by snapshotSave with stamp
  /// `version`).  No-op when the object already carries that stamp.
  void snapshotRestore(const std::shared_ptr<const void>& payload,
                       std::uint64_t version) {
    if (version_ == version) return;
    restoreState(payload);
    version_ = version;
    cached_ = payload;
    cachedVersion_ = version;
  }

  /// Approximate heap size of one saved payload, for the snapshot-memory
  /// budget.  An estimate is fine; it only steers eviction.
  virtual std::size_t snapshotBytes() const = 0;

 protected:
  /// Mark this object mutated: the next snapshotSave() serializes afresh
  /// and no existing payload's stamp will ever match again.
  void snapshotBump() noexcept { version_ = nextSnapshotVersion(); }

 private:
  virtual std::shared_ptr<const void> saveState() const = 0;
  virtual void restoreState(const std::shared_ptr<const void>& payload) = 0;

  std::uint64_t version_ = nextSnapshotVersion();
  std::shared_ptr<const void> cached_;
  std::uint64_t cachedVersion_ = 0;
};

}  // namespace confail::sched
