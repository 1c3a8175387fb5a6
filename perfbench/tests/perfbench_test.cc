// Self-test of the benchmark: the exact-quantile helper against a
// sorted-vector oracle, the telemetry scrapers, the seeded script, and every
// workload at tiny scale with every end-to-end and per-layer metric present.
//
//   python3 perfbench/run.py --self-test

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "report.h"
#include "scrape.h"
#include "stats.h"
#include "workload.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK failed: "  \
                << #cond << "\n";                                     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

// Nearest rank with integer arithmetic only: ceil(pct * n / 100).
double OracleQuantile(std::vector<double> v, int pct) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  rank = std::max<std::size_t>(1, std::min(rank, n));
  return v[rank - 1];
}

void TestQuantiles() {
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  for (std::size_t n : {1u, 2u, 3u, 9u, 10u, 99u, 100u, 101u, 999u, 1000u,
                        1001u, 4321u}) {
    std::vector<double> v(n);
    for (double& x : v) x = dist(rng);
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (int pct : {1, 10, 25, 50, 75, 90, 95, 99, 100}) {
      CHECK(perfbench::NearestRank(sorted, pct / 100.0) ==
            OracleQuantile(v, pct));
    }
    const perfbench::LatencySummary s = perfbench::Summarize(v, 0.99);
    CHECK(s.n == n);
    CHECK(s.p50_ms == OracleQuantile(v, 50));
    CHECK(s.tail_ms ==
          OracleQuantile(v, static_cast<int>(s.tail_q * 100.0 + 0.5)));
  }
  // The tail is the highest percentile leaving >= 10 samples beyond it.
  CHECK(perfbench::PickTailQuantile(1000) == 0.99);
  CHECK(perfbench::PickTailQuantile(999) == 0.95);
  CHECK(perfbench::PickTailQuantile(200) == 0.95);
  CHECK(perfbench::PickTailQuantile(199) == 0.90);
  CHECK(perfbench::PickTailQuantile(5000, 0.95) == 0.95);
  CHECK(perfbench::SamplesBeyond(1000, 0.99) == 10);
  CHECK(perfbench::SamplesBeyond(100, 0.90) == 10);
}

void TestScrapers(const std::string& dir) {
  const perfbench::Snapshot before = perfbench::ParseExposition(
      "# HELP x_total X\n# TYPE x_total counter\n"
      "x_total{mgr=\"0\"} 3\nx_total{mgr=\"1\"} 4\n"
      "h_seconds_bucket{le=\"0.5\"} 2\nh_seconds_sum 1.5\n"
      "h_seconds_count 2\nx_totalish 100\n");
  const perfbench::Snapshot after = perfbench::ParseExposition(
      "x_total{mgr=\"0\"} 5\nx_total{mgr=\"1\"} 4\nx_total{mgr=\"2\"} 1\n"
      "h_seconds_sum 2.5\nh_seconds_count 3\nx_totalish 900\n");
  CHECK(before.count("h_seconds_bucket{le=\"0.5\"}") == 0);
  CHECK(perfbench::Delta(before, after, "x_total") == 3.0);
  CHECK(perfbench::Delta(before, after, "h_seconds_sum") == 1.0);
  CHECK(perfbench::Delta(before, after, "h_seconds_count") == 1.0);

  // serve(0..100) > round(10..90) > {sample(10..40), rank(50..90) >
  // search_batch(60..80)}; spans are written children first.
  const std::string path = dir + "/trace_test.jsonl";
  {
    std::ofstream out(path);
    out << "{\"trace_id\":0,\"spans\":["
           "{\"name\":\"sample\",\"start_ns\":10000000,\"dur_ns\":30000000,"
           "\"depth\":2},"
           "{\"name\":\"search_batch\",\"start_ns\":60000000,\"dur_ns\":"
           "20000000,\"depth\":3},"
           "{\"name\":\"rank\",\"start_ns\":50000000,\"dur_ns\":40000000,"
           "\"depth\":2},"
           "{\"name\":\"round\",\"start_ns\":10000000,\"dur_ns\":80000000,"
           "\"depth\":1},"
           "{\"name\":\"serve_feedback\",\"start_ns\":0,\"dur_ns\":100000000,"
           "\"depth\":0}]}\n";
    out << "{\"trace_id\":1,\"spans\":[{\"name\":\"serve_get_topk\","
           "\"start_ns\":0,\"dur_ns\":1000000,\"depth\":0}]}\n";
  }
  topkpkg::Result<perfbench::SpanProfile> p = perfbench::ProfileTraceFile(path);
  CHECK(p.ok());
  if (p.ok()) {
    CHECK(p->at("serve_feedback").self_ms == 20.0);
    CHECK(p->at("round").self_ms == 10.0);
    CHECK(p->at("rank").self_ms == 20.0);
    CHECK(p->at("rank").total_ms == 40.0);
    CHECK(p->at("search_batch").self_ms == 20.0);
    CHECK(p->at("sample").count == 1);
    CHECK(p->at("serve_get_topk").total_ms == 1.0);
  }
  std::remove(path.c_str());
}

const std::vector<std::string> kEndToEnd = {
    "setup_s",        "feedback_p50_ms", "feedback_tail_ms",
    "topk_p50_ms",    "rounds_per_s",    "requests_per_s",
    "peak_rss_mb",    "quality_top1_utility"};

const std::vector<std::string> kPerLayer = {
    "serving.queue_wait_ms_mean",
    "serving.execute_ms_mean",
    "serving.hydrate_ms_mean",
    "serving.overhead_ms_mean",
    "serving.hit_ratio",
    "serving.evictions_per_req",
    "serving.clean_drop_ratio",
    "serving.degraded_hydrations",
    "serving.store_retries",
    "recsys.round_ms_mean",
    "recsys.maintain_ms_per_round",
    "recsys.other_ms_per_round",
    "recsys.resampled_per_round",
    "recsys.violator_ratio",
    "sampling.sample_ms_per_round",
    "sampling.proposals_per_round",
    "sampling.acceptance_ratio",
    "sampling.constraint_checks_per_round",
    "ranking.rank_ms_per_round",
    "ranking.cache_hit_ratio",
    "ranking.dedup_ratio",
    "ranking.searches_per_round",
    "topk.search_ms_per_round",
    "topk.expansions_per_search",
    "topk.pruned_per_search",
    "topk.lane_occupancy",
    "topk.truncated_ratio",
    "storage.open_s",
    "storage.put_ms_mean",
    "storage.puts_per_req",
    "storage.fsync_ms_mean",
    "storage.fsyncs_per_req",
    "storage.compactions",
    "storage.disk_bytes_per_session",
    "obs.trace_overhead_pct"};

// Every expected metric appears exactly once, with a unit, in the JSON too.
void CheckMetrics(const std::vector<perfbench::Metric>& metrics,
                  const std::vector<std::string>& expected) {
  std::map<std::string, int> seen;
  for (const perfbench::Metric& m : metrics) {
    if (m.in_result) ++seen[m.name];
    CHECK(!m.unit.empty());
  }
  for (const std::string& name : expected) {
    if (seen[name] != 1) std::cerr << "metric " << name << " missing\n";
    CHECK(seen[name] == 1);
  }
  CHECK(seen.size() == expected.size());
  const std::string json = perfbench::ResultJson(true, 1, 0, metrics);
  for (const std::string& name : expected) {
    CHECK(json.find("\"" + name + "\": {\"value\": ") != std::string::npos);
  }
}

void TestScript() {
  for (const char* w : {"cold_start", "noisy_long", "fleet_churn"}) {
    perfbench::RunOptions a;
    a.workload = w;
    a.seed = 1;
    perfbench::RunOptions b = a;
    b.seed = 2;
    const auto a1 = perfbench::ScriptDigest(a);
    const auto a2 = perfbench::ScriptDigest(a);
    const auto b1 = perfbench::ScriptDigest(b);
    CHECK(a1.ok() && a2.ok() && b1.ok());
    if (a1.ok() && a2.ok() && b1.ok()) {
      CHECK(*a1 == *a2);
      CHECK(*a1 != *b1);
    }
  }
}

void TestTinyWorkloads(const std::string& dir) {
  for (const char* w : {"cold_start", "noisy_long", "fleet_churn"}) {
    std::cout << "tiny " << w << std::endl;
    perfbench::RunOptions opts;
    opts.workload = w;
    opts.seed = 7;
    opts.seconds = 2.0;
    opts.tiny = true;
    opts.work_dir = dir;
    const auto spec = perfbench::SpecFor(opts);
    CHECK(spec.ok());
    const auto plain = perfbench::RunWindow(opts, /*traced=*/false);
    const auto again = perfbench::RunWindow(opts, /*traced=*/false);
    const auto traced = perfbench::RunWindow(opts, /*traced=*/true);
    if (!plain.ok() || !again.ok() || !traced.ok()) {
      std::cerr << w << ": "
                << (!plain.ok() ? plain.status()
                                : !again.ok() ? again.status()
                                              : traced.status())
                << "\n";
      ++failures;
      continue;
    }
    // Same seed, same outputs, however the two windows were timed.
    CHECK(plain->digest == again->digest);
    CHECK(plain->digest == traced->digest);
    CHECK(plain->failed == 0 && plain->attempted > 0);
    CHECK(traced->failed == 0);
    const auto e2e = perfbench::EndToEndMetrics(*spec, *plain, {0.5});
    CheckMetrics(e2e, kEndToEnd);
    std::size_t table_only = 0;
    for (const perfbench::Metric& m : e2e) {
      if (m.name == "failed_ratio") CHECK(m.value == 0.0);
      if (m.name == "failed_ratio" || m.name == "topk_tail_ms" ||
          m.name == "teardown_s") {
        CHECK(!m.in_result);
        ++table_only;
      }
    }
    CHECK(table_only == 3);
    CheckMetrics(perfbench::PerLayerMetrics(*plain, *traced), kPerLayer);
    CHECK(!traced->spans.empty());
    CHECK(traced->spans.count("round") == 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = ".bench_build/perfbench-work";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--work-dir") dir = argv[i + 1];
  }
  std::filesystem::create_directories(dir);
  TestQuantiles();
  TestScrapers(dir);
  TestScript();
  TestTinyWorkloads(dir);
  std::cout << (failures == 0 ? "perfbench_test: OK"
                              : "perfbench_test: FAILED")
            << std::endl;
  return failures == 0 ? 0 : 1;
}
