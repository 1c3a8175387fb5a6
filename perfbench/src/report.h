#ifndef TOPKPKG_PERFBENCH_REPORT_H_
#define TOPKPKG_PERFBENCH_REPORT_H_

// Turns measured windows into named metrics with units, and renders the
// human-readable table plus the one-line JSON result.

#include <cstddef>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  // Sample count, percentile used, ... (table only).
  bool in_result = true;  // false: printed in the table, not in the JSON.
};

// End-to-end metrics of an untraced window; setup_s is the median of
// `setups` (the window's own set-up among them).
std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec,
                                    const WindowResult& w,
                                    const std::vector<double>& setups);

// Per-layer metrics of a traced window; `untraced` is the same workload's
// untraced window, the reference for the tracing overhead.
std::vector<Metric> PerLayerMetrics(const WindowResult& untraced,
                                    const WindowResult& traced);

// "name  value unit  (detail)" lines.
std::string FormatTable(const std::string& title,
                        const std::vector<Metric>& metrics);

// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} with
// every in_result metric, values printed with full precision.
std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics);

double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // TOPKPKG_PERFBENCH_REPORT_H_
