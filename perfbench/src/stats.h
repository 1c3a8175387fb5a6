#ifndef TOPKPKG_PERFBENCH_STATS_H_
#define TOPKPKG_PERFBENCH_STATS_H_

// Exact order statistics over the raw latency samples the benchmark keeps,
// plus the FNV-1a digest its output check folds replies into.
//
// The library's obs::Histogram::Quantile reads bucket upper edges (up to
// 25% high, in steps of about 19%), so a 10% gain cannot show and one
// bucket flip reads as a 19% jump. Everything here sorts the samples
// instead; perfbench_test checks it against a sorted-vector oracle.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// The nearest-rank q-quantile of an ascending-sorted sample: the
// ceil(q * n)-th smallest value, rank clamped to [1, n]. 0 when empty.
inline double NearestRank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Samples strictly after the q-quantile's rank.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

// Tail percentiles the report may use, highest first.
inline constexpr double kTailQuantiles[] = {0.99, 0.95, 0.90};
// A tail percentile must leave at least this many samples beyond it.
inline constexpr std::size_t kMinBeyond = 10;

// The highest of p99/p95/p90 that leaves kMinBeyond samples beyond it at
// sample size n, but never above `cap` (workloads fix their tail percentile
// so a run-to-run change in n cannot switch it). p90 when none qualifies.
inline double PickTailQuantile(std::size_t n, double cap = 0.99) {
  for (double q : kTailQuantiles) {
    if (q <= cap + 1e-12 && SamplesBeyond(n, q) >= kMinBeyond) return q;
  }
  return kTailQuantiles[2];
}

struct LatencySummary {
  std::size_t n = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_q = 0.0;  // Which percentile tail_ms is.
  double mean_ms = 0.0;
};

inline LatencySummary Summarize(std::vector<double> ms, double tail_cap) {
  LatencySummary out;
  out.n = ms.size();
  if (ms.empty()) return out;
  std::sort(ms.begin(), ms.end());
  out.p50_ms = NearestRank(ms, 0.50);
  out.tail_q = PickTailQuantile(ms.size(), tail_cap);
  out.tail_ms = NearestRank(ms, out.tail_q);
  double sum = 0.0;
  for (double v : ms) sum += v;
  out.mean_ms = sum / static_cast<double>(ms.size());
  return out;
}

// 64-bit FNV-1a, the output digest's hash.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return h_; }
  std::string Hex() const {
    static const char* kDigits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[15 - i] = kDigits[(h_ >> (4 * i)) & 0xf];
    return out;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench

#endif  // TOPKPKG_PERFBENCH_STATS_H_
