// perfbench: the closed-loop serving benchmark.
//
//   perfbench --workload cold_start|noisy_long|fleet_churn --seed N
//             --seconds S --trace 0|1 [--clients C] [--workers W]
//             [--work-dir DIR]
//
// --trace 0 sets the workload up several times (reporting the median), runs
// one untraced window and prints the end-to-end metrics. --trace 1 runs an
// untraced and then a traced window (every request sampled into a JSONL
// trace) and prints the per-layer metrics. Either way the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "report.h"
#include "workload.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload cold_start|noisy_long|"
               "fleet_churn --seed N --seconds S --trace 0|1 [--clients C] "
               "[--workers W] [--work-dir DIR]\n";
  return 2;
}

int Fail(const std::string& what, const topkpkg::Status& st) {
  std::cerr << "perfbench: " << what << ": " << st << "\n";
  std::cout << perfbench::ResultJson(false, 1, 1, {}) << std::endl;
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  opts.work_dir = ".bench_build/perfbench-work";
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--clients") {
      opts.clients = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--workers") {
      opts.workers = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (!perfbench::SpecFor(opts).ok()) return Usage("bad --workload");
  if (opts.seconds <= 0.0 || opts.clients == 0 || opts.workers == 0 ||
      (trace != 0 && trace != 1)) {
    return Usage("--seconds, --clients and --workers must be positive and "
                 "--trace 0 or 1");
  }
  const perfbench::WorkloadSpec spec = *perfbench::SpecFor(opts);
  std::cout << "perfbench " << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " clients=" << opts.clients
            << " workers=" << opts.workers << " trace=" << trace << "\n";

  std::vector<double> setup_s;
  if (trace == 0) {
    for (std::size_t r = 1; r < spec.setups; ++r) {
      topkpkg::Result<double> s = perfbench::TimeSetup(opts);
      if (!s.ok()) return Fail("set-up", s.status());
      setup_s.push_back(*s);
    }
  }
  topkpkg::Result<perfbench::WindowResult> plain =
      perfbench::RunWindow(opts, /*traced=*/false);
  if (!plain.ok()) return Fail("untraced window", plain.status());
  setup_s.push_back(plain->setup_s);
  const std::vector<Metric> e2e =
      perfbench::EndToEndMetrics(spec, *plain, setup_s);
  std::cout << perfbench::FormatTable(opts.workload + " end-to-end", e2e);

  std::size_t attempted = plain->attempted;
  std::size_t failed = plain->failed;
  std::vector<Metric> result = e2e;
  if (trace == 1) {
    topkpkg::Result<perfbench::WindowResult> traced =
        perfbench::RunWindow(opts, /*traced=*/true);
    if (!traced.ok()) return Fail("traced window", traced.status());
    result = perfbench::PerLayerMetrics(*plain, *traced);
    std::cout << perfbench::FormatTable(opts.workload + " per-layer (traced)",
                                        result);
    attempted += traced->attempted;
    failed += traced->failed;
  }
  std::cout << perfbench::ResultJson(failed == 0, attempted, failed, result)
            << std::endl;
  return failed == 0 ? 0 : 1;
}
