// SharedVar<T>: an instrumented shared variable.
//
// Every access emits a Read/Write event carrying the variable id, which is
// what the lockset (Eraser) and happens-before detectors consume to find
// FF-T1 interference (data races).  A schedule point precedes each access,
// so the explorer can interleave threads *between* the read and the write
// of an unsynchronized read-modify-write — making lost updates actually
// manifest, not just be flagged.
//
// The underlying storage is guarded by a private mutex, never contended
// because one logical thread runs at a time.  It is not a monitor and is
// invisible to the detectors.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

#include "confail/monitor/runtime.hpp"
#include "confail/sched/snapshot.hpp"

namespace confail::monitor {

template <typename T>
class SharedVar : public sched::SnapshotSource {
  // Snapshot support requires a copyable value; a SharedVar over a
  // move-only T poisons the scheduler's snapshot safety instead, forcing
  // the explorer onto the prefix-replay path for that program.
  static constexpr bool kSnapshottable =
      std::is_copy_constructible_v<T> && std::is_copy_assignable_v<T>;

 public:
  SharedVar(Runtime& rt, const std::string& name, T init)
      : rt_(rt), id_(rt.registerVar(name)), value_(std::move(init)) {
    if constexpr (kSnapshottable) {
      rt_.scheduler().addSnapshotSource(this);
    } else {
      rt_.scheduler().poisonSnapshotSafety();
    }
  }

  ~SharedVar() override {
    if constexpr (kSnapshottable) rt_.scheduler().removeSnapshotSource(this);
  }

  SharedVar(const SharedVar&) = delete;
  SharedVar& operator=(const SharedVar&) = delete;

  /// Instrumented read (emits a Read event; schedule point before access).
  T get() {
    rt_.schedulePoint();
    rt_.emit(EventKind::Read, events::kNoMonitor, id_);
    std::lock_guard<std::mutex> g(mu_);
    return value_;
  }

  /// Instrumented write (emits a Write event; schedule point before access).
  void set(T v) {
    rt_.schedulePoint();
    rt_.emit(EventKind::Write, events::kNoMonitor, id_);
    std::lock_guard<std::mutex> g(mu_);
    snapshotBump();
    value_ = std::move(v);
  }

  /// Uninstrumented peek for assertions in tests and invariant checks;
  /// emits nothing and takes no schedule point.
  T peek() const {
    std::lock_guard<std::mutex> g(mu_);
    return value_;
  }

  VarId id() const { return id_; }

  /// Snapshot payload size: the value.
  std::size_t snapshotBytes() const override { return sizeof(T); }

 private:
  std::shared_ptr<const void> saveState() const override {
    if constexpr (kSnapshottable) {
      std::lock_guard<std::mutex> g(mu_);
      return std::make_shared<T>(value_);
    } else {
      return nullptr;  // unreachable: non-copyable vars never register
    }
  }

  void restoreState(const std::shared_ptr<const void>& payload) override {
    if constexpr (kSnapshottable) {
      std::lock_guard<std::mutex> g(mu_);
      value_ = *static_cast<const T*>(payload.get());
    }
  }

  Runtime& rt_;
  VarId id_;
  mutable std::mutex mu_;
  T value_;
};

}  // namespace confail::monitor
