// confail::obs metrics substrate: counters, gauges and log2-bucket latency
// histograms behind a name-keyed registry.
//
// Design constraints, in order:
//   1. Recording must be cheap and thread-safe — the explorer's workers
//      (one OS thread each) all hit these counters on hot paths.
//      Every increment is a single relaxed fetch_add on a per-thread shard
//      (a cache-line-padded slot selected by a thread-local stripe index),
//      so concurrent writers never contend on a line.  There is no
//      per-record locking anywhere.
//   2. Reading is rare (a snapshot at the end of a run, or a periodic
//      progress heartbeat) and pays the aggregation cost: a snapshot sums
//      the shards.  Totals are exact — increments are never lost, only
//      split across shards.
//   3. Handles are stable: Counter/Gauge/Histogram references returned by
//      the registry live as long as the registry, so instrumentation sites
//      resolve a name once (construction time) and keep the pointer.
//
// Everything here is TSan-clean by construction: shared state is atomic,
// registry lookups are mutex-protected, and no recorded value is read
// non-atomically.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace confail::obs {

class JsonWriter;

namespace detail {

/// Stripe index of the calling thread: assigned round-robin on first use so
/// that concurrent threads land on different shards.
std::size_t threadStripe();

inline constexpr std::size_t kStripes = 16;

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Monotonic event count, sharded per thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::threadStripe() % detail::kStripes].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void inc() noexcept { add(1); }

  /// Sum over all shards (exact; linear in the shard count).
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  detail::PaddedU64 shards_[detail::kStripes];
};

/// Last-write-wins scalar (double so rates and fractions fit).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Latency / size histogram with fixed log2 buckets.
///
/// Bucket i counts observations v with bucketIndex(v) == i, i.e. bucket 0
/// holds v == 0 and bucket i (i >= 1) holds v in [2^(i-1), 2^i).  The
/// bucket count is fixed at 65 (every uint64 value maps somewhere), so
/// merging and serialization never need dynamic reconfiguration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  /// Index of the log2 bucket that counts `v`.
  static std::size_t bucketIndex(std::uint64_t v) noexcept;

  /// Inclusive upper bound of bucket `i` (the largest value it counts).
  static std::uint64_t bucketUpperBound(std::size_t i) noexcept;

  void observe(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept;
  /// Smallest / largest observed value; 0 when empty.
  std::uint64_t min() const noexcept;
  std::uint64_t max() const noexcept;
  std::uint64_t bucketCount(std::size_t i) const noexcept;

  /// Value at or below which `q` (0..1) of the observations fall, estimated
  /// as the upper bound of the bucket containing the q-quantile. 0 if empty.
  std::uint64_t quantileUpperBound(double q) const noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  detail::PaddedU64 count_[detail::kStripes];
  detail::PaddedU64 sum_[detail::kStripes];
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII timer: observes the elapsed wall time in nanoseconds on a histogram
/// when it goes out of scope.  A null histogram disables it (zero cost
/// beyond one branch), so call sites stay unconditional.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h)
      : h_(h),
        t0_(h == nullptr ? std::chrono::steady_clock::time_point{}
                         : std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (h_ == nullptr) return;
    const auto dt = std::chrono::steady_clock::now() - t0_;
    h_->observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};

/// Point-in-time aggregation of a registry, decoupled from the live
/// metrics (safe to keep, compare, or serialize while recording continues).
struct Snapshot {
  struct HistogramStats {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    double mean = 0.0;
    std::uint64_t p50 = 0;  ///< bucket-upper-bound estimates
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;

    /// One-line human rendering of the percentile trio ("p50≤8 p90≤16
    /// p99≤32"), the summary form ExploreSummary and the ingest summary
    /// print instead of dumping raw buckets.
    std::string percentileLine() const;
    /// Non-empty buckets only: (inclusive upper bound, count).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  };

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramStats> histograms;

  /// Value of a counter / gauge by name (0 when absent; see has()).
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  bool has(const std::string& name) const;

  /// Emit as a JSON object ({"counters": {...}, "gauges": {...},
  /// "histograms": {...}}) into an open writer, so callers can embed a
  /// snapshot in a larger document (the bench JSON convention).
  void writeJson(JsonWriter& w) const;

  /// Standalone document form of writeJson.
  std::string toJson() const;

  /// Write toJson() to `path`; returns false on I/O failure.
  bool writeFile(const std::string& path) const;
};

/// Name-keyed metric registry.  Lookup is mutex-guarded (do it once per
/// instrumentation site, not per record); returned references stay valid
/// for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace confail::obs
