#ifndef TOPKPKG_OBS_METRICS_H_
#define TOPKPKG_OBS_METRICS_H_

// Process-wide, low-overhead metrics: atomic counters, gauges, and
// fixed-bucket log-scale latency histograms, keyed by (name, labels) in a
// MetricsRegistry and rendered in the Prometheus text exposition format.
//
// Concurrency model. Handle acquisition (GetCounter / GetGauge /
// GetHistogram) takes the registry mutex once and returns a stable pointer;
// the handle's mutation path is lock-free — plain relaxed atomics for
// counters and histogram buckets, CAS loops for the double-valued gauge /
// histogram sum / min / max — so hot loops pay one atomic RMW per update
// and ThreadSanitizer sees no races by construction. Rendering walks the
// same atomics with relaxed loads: a scrape is a consistent-enough snapshot
// (each individual value is atomic; cross-metric skew is inherent to
// scraping a live process).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "topkpkg/common/status.h"

namespace topkpkg::obs {

// Monotone event count. Increment is one relaxed fetch_add.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-writer-wins instantaneous value. Add() is a CAS loop (C++17 has no
// fetch_add for atomic<double>); contended adds retry, which is fine for
// the set-on-change cadence gauges see here.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket log-scale latency histogram with exact nearest-rank
// quantile extraction.
//
// Buckets are quarter-octaves: 4 per power of two, derived from the
// double's frexp decomposition, spanning 2^-31 .. 2^36 seconds (~0.5 ns to
// ~19 h) plus an underflow and an overflow bucket. Each bucket's
// upper/lower edge ratio is at most 5/4, so any quantile read off a bucket
// upper edge overestimates the true order statistic by at most 25% — and
// the tracked exact min/max clamp makes the one-sample, all-equal, and
// overflow-bucket cases exact (metrics_test pins all three against a
// sorted-vector oracle).
class Histogram {
 public:
  static constexpr int kBucketsPerPow2 = 4;
  static constexpr int kMinExp = -30;  // frexp exponent of the first octave.
  static constexpr int kMaxExp = 36;   // frexp exponent of the last octave.
  static constexpr std::size_t kFirstReal = 1;  // 0 is the underflow bucket.
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp + 1) * kBucketsPerPow2 + 2;

  // Bucket holding `v`. Non-positive (and NaN) values land in the
  // underflow bucket, values past the last octave in the overflow bucket.
  static std::size_t BucketIndex(double v) {
    if (!(v > 0.0)) return 0;
    int exp = 0;
    const double frac = std::frexp(v, &exp);  // frac in [0.5, 1).
    if (exp < kMinExp) return 0;
    if (exp > kMaxExp) return kNumBuckets - 1;
    const int sub = static_cast<int>((frac - 0.5) * 2.0 * kBucketsPerPow2);
    return kFirstReal +
           static_cast<std::size_t>(exp - kMinExp) * kBucketsPerPow2 +
           static_cast<std::size_t>(sub < kBucketsPerPow2 ? sub
                                                          : kBucketsPerPow2 -
                                                                1);
  }

  // Inclusive upper edge of bucket `idx` (+inf for the overflow bucket).
  static double BucketUpper(std::size_t idx);

  void Observe(double v);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return LoadDouble(sum_); }
  double min() const {
    return count() == 0 ? 0.0 : LoadDouble(min_);
  }
  double max() const {
    return count() == 0 ? 0.0 : LoadDouble(max_);
  }

  // Exact nearest-rank quantile over the buckets: the bucket holding order
  // statistic ceil(q * count) (rank clamped to [1, count]) read at its
  // upper edge, clamped into the observed [min, max]. 0.0 when empty.
  double Quantile(double q) const;

  std::uint64_t bucket_count(std::size_t idx) const {
    return buckets_[idx].load(std::memory_order_relaxed);
  }

 private:
  static double LoadDouble(const std::atomic<double>& a) {
    return a.load(std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// The (name, labels) keyed metric registry. `labels` is the Prometheus
// label body without braces, e.g. `mgr="3"` or `sampler="RS",phase="draw"`
// (empty for unlabeled metrics); the same (name, labels, kind) always
// returns the same handle, valid for the registry's lifetime. Global() is
// the process-wide instance every library instrumentation point uses; tests
// construct their own registries for isolation.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name, const std::string& help,
                      const std::string& labels = "");
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const std::string& labels = "");
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::string& labels = "");

  // Prometheus text exposition format: one # HELP / # TYPE pair per metric
  // family, samples sorted by (name, labels), histograms as cumulative
  // `_bucket{le="..."}` series (non-empty buckets plus the mandatory +Inf)
  // with `_sum` and `_count`.
  std::string RenderPrometheusText() const;

  // RenderPrometheusText() to `path` (atomic enough for a snapshot hook:
  // written to a temp file, then renamed into place).
  Status DumpToFile(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    // labels -> instrument, ordered for deterministic rendering.
    std::map<std::string, Instrument> series;
  };

  Instrument& GetSlot(const std::string& name, const std::string& help,
                      const std::string& labels, Kind kind);

  mutable std::mutex mu_;  // Guards the maps; never held on a hot path.
  std::map<std::string, Family> families_;
};

// RAII latency probe: observes the enclosing scope's wall time (seconds)
// into `hist`, which must be non-null.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* hist) : hist_(hist) {
    start_ = std::chrono::steady_clock::now();
  }
  ~ScopedLatency() {
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start_;
    hist_->Observe(dt.count());
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace topkpkg::obs

#endif  // TOPKPKG_OBS_METRICS_H_
