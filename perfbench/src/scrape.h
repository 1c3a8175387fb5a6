#ifndef TOPKPKG_PERFBENCH_SCRAPE_H_
#define TOPKPKG_PERFBENCH_SCRAPE_H_

// Reads the library's own telemetry from outside: deltas of the process
// registry's series around a timed window, and per-span self time from the
// JSONL request traces a SessionManager writes.

#include <cstdint>
#include <map>
#include <string>

#include "topkpkg/common/status.h"

namespace perfbench {

// One scrape of obs::MetricsRegistry::Global(): "name{labels}" → value for
// every counter, gauge, histogram _sum and histogram _count (bucket series
// are dropped).
using Snapshot = std::map<std::string, double>;

Snapshot TakeSnapshot();
// Parses Prometheus text exposition into a Snapshot (exposed for tests).
Snapshot ParseExposition(const std::string& text);

// after − before summed over every series of metric `name` (any labels).
double Delta(const Snapshot& before, const Snapshot& after,
             const std::string& name);

// Per span name, over every span of every trace.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;  // Sum of span durations.
  double self_ms = 0.0;   // Duration minus the direct children's durations.
};
using SpanProfile = std::map<std::string, SpanTotals>;

// Reads a trace JSONL file (one trace per line, spans with name, start_ns,
// dur_ns, depth) and aggregates it per span name.
topkpkg::Result<SpanProfile> ProfileTraceFile(const std::string& path);

}  // namespace perfbench

#endif  // TOPKPKG_PERFBENCH_SCRAPE_H_
