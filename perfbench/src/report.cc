#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "stats.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string Count(std::size_t n) { return "n=" + std::to_string(n); }

std::string Percentile(double q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// Mean of a registry histogram over the window, in milliseconds.
double HistogramMeanMs(const WindowResult& w, const std::string& name) {
  return 1e3 * Ratio(Delta(w.before, w.after, name + "_sum"),
                     Delta(w.before, w.after, name + "_count"));
}

SpanTotals Span(const WindowResult& w, const std::string& name) {
  auto it = w.spans.find(name);
  return it == w.spans.end() ? SpanTotals{} : it->second;
}

double RequestsPerSecond(const WindowResult& w) {
  return Ratio(static_cast<double>(w.requests_ms.size()), w.wall_s);
}

}  // namespace

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::vector<Metric> EndToEndMetrics(const WorkloadSpec& spec,
                                    const WindowResult& w,
                                    const std::vector<double>& setups) {
  const LatencySummary fb = Summarize(w.feedback_ms, spec.feedback_tail_cap);
  const LatencySummary tk = Summarize(w.topk_ms, spec.topk_tail_cap);
  const double rounds = static_cast<double>(w.feedback_ms.size());
  std::vector<Metric> m;
  m.push_back({"setup_s", Median(setups), "s",
               "median of " + std::to_string(setups.size()) + " set-ups"});
  m.push_back({"feedback_p50_ms", fb.p50_ms, "ms", Count(fb.n)});
  m.push_back({"feedback_tail_ms", fb.tail_ms, "ms",
               Percentile(fb.tail_q) + ", " + Count(fb.n)});
  m.push_back({"topk_p50_ms", tk.p50_ms, "ms", Count(tk.n)});
  // Printed, not bounded: on resident sessions a GetTopK tail reads
  // scheduler wake-up jitter, which moved it by a third between runs of the
  // same code.
  m.push_back({"topk_tail_ms", tk.tail_ms, "ms",
               Percentile(tk.tail_q) + ", " + Count(tk.n),
               /*in_result=*/false});
  m.push_back({"rounds_per_s", Ratio(rounds, w.wall_s), "1/s",
               Count(w.feedback_ms.size())});
  m.push_back({"requests_per_s", RequestsPerSecond(w), "1/s",
               Count(w.requests_ms.size())});
  m.push_back({"failed_ratio",
               Ratio(static_cast<double>(w.failed),
                     static_cast<double>(w.attempted)),
               "ratio", Count(w.attempted), /*in_result=*/false});
  m.push_back({"teardown_s", w.teardown_s, "s",
               "SessionManager drain and final checkpoints",
               /*in_result=*/false});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MiB", "VmHWM"});
  m.push_back({"quality_top1_utility", w.quality, "ratio",
               "output digest " + w.digest});
  return m;
}

std::vector<Metric> PerLayerMetrics(const WindowResult& untraced,
                                    const WindowResult& t) {
  const double rounds = static_cast<double>(t.feedback_ms.size());
  const double requests = static_cast<double>(t.requests_ms.size());
  const RoundTotals& rt = t.totals;
  std::vector<Metric> m;

  // serving
  const double queue_ms =
      HistogramMeanMs(t, "topkpkg_serving_queue_wait_seconds");
  const double execute_ms = HistogramMeanMs(t, "topkpkg_serving_execute_seconds");
  const SpanTotals topk_span = Span(t, "serve_get_topk");
  m.push_back({"serving.queue_wait_ms_mean", queue_ms, "ms"});
  m.push_back({"serving.execute_ms_mean", execute_ms, "ms"});
  // No library series covers EnsureHydrated (it runs after the queue wait
  // is observed and before the execute histogram opens): what the client
  // saw minus both is hydration plus hand-off.
  m.push_back({"serving.hydrate_ms_mean",
               Mean(t.requests_ms) - queue_ms - execute_ms, "ms"});
  m.push_back({"serving.overhead_ms_mean",
               Mean(t.topk_ms) - queue_ms -
                   Ratio(topk_span.total_ms,
                         static_cast<double>(topk_span.count)),
               "ms"});
  const auto& st = t.stats;
  m.push_back({"serving.hit_ratio",
               1.0 - Ratio(static_cast<double>(st.hydrations), requests),
               "ratio"});
  m.push_back({"serving.evictions_per_req",
               Ratio(static_cast<double>(st.evictions), requests), "count"});
  m.push_back({"serving.clean_drop_ratio",
               Ratio(static_cast<double>(st.clean_drops),
                     static_cast<double>(st.evictions)),
               "ratio"});
  m.push_back({"serving.degraded_hydrations",
               static_cast<double>(st.degraded_hydrations), "count"});
  m.push_back({"serving.store_retries", static_cast<double>(st.store_retries),
               "count"});

  // recsys
  const SpanTotals round = Span(t, "round");
  m.push_back({"recsys.round_ms_mean",
               Ratio(round.total_ms, static_cast<double>(round.count)), "ms"});
  m.push_back({"recsys.maintain_ms_per_round",
               Ratio(Span(t, "maintain").total_ms + Span(t, "reweight").total_ms,
                     rounds),
               "ms"});
  m.push_back({"recsys.other_ms_per_round", Ratio(round.self_ms, rounds),
               "ms"});
  m.push_back({"recsys.resampled_per_round",
               Ratio(static_cast<double>(rt.resampled), rounds), "count"});
  m.push_back(
      {"recsys.violator_ratio",
       Ratio(Delta(t.before, t.after, "topkpkg_recsys_pool_violators_total"),
             Delta(t.before, t.after, "topkpkg_recsys_pool_scanned_total")),
       "ratio"});

  // sampling
  m.push_back({"sampling.sample_ms_per_round",
               Ratio(Span(t, "sample").total_ms, rounds), "ms"});
  m.push_back({"sampling.proposals_per_round",
               Ratio(static_cast<double>(rt.proposed), rounds), "count"});
  m.push_back({"sampling.acceptance_ratio",
               Ratio(static_cast<double>(rt.accepted),
                     static_cast<double>(rt.proposed)),
               "ratio"});
  m.push_back({"sampling.constraint_checks_per_round",
               Ratio(static_cast<double>(rt.constraint_checks), rounds),
               "count"});

  // ranking
  const double searched =
      static_cast<double>(rt.deduped) + static_cast<double>(rt.unique_searches);
  m.push_back({"ranking.rank_ms_per_round",
               Ratio(Span(t, "rank").total_ms, rounds), "ms"});
  m.push_back({"ranking.cache_hit_ratio",
               Ratio(static_cast<double>(rt.cache_hits),
                     static_cast<double>(rt.cache_hits) + searched),
               "ratio"});
  m.push_back({"ranking.dedup_ratio",
               Ratio(static_cast<double>(rt.deduped), searched), "ratio"});
  m.push_back({"ranking.searches_per_round",
               Ratio(static_cast<double>(rt.unique_searches), rounds),
               "count"});

  // topk
  const double lanes =
      Delta(t.before, t.after, "topkpkg_search_batch_lanes_total");
  const double searches =
      lanes + Delta(t.before, t.after, "topkpkg_search_searches_total");
  m.push_back({"topk.search_ms_per_round",
               Ratio(Span(t, "search_batch").self_ms, rounds), "ms"});
  m.push_back(
      {"topk.expansions_per_search",
       Ratio(Delta(t.before, t.after, "topkpkg_search_expansions_total"),
             searches),
       "count"});
  m.push_back({"topk.pruned_per_search",
               Ratio(Delta(t.before, t.after, "topkpkg_search_pruned_total"),
                     searches),
               "count"});
  m.push_back(
      {"topk.lane_occupancy",
       Ratio(lanes, Delta(t.before, t.after, "topkpkg_search_batch_walks_total")),
       "count"});
  m.push_back({"topk.truncated_ratio",
               Ratio(Delta(t.before, t.after, "topkpkg_search_truncated_total"),
                     searches),
               "ratio"});

  // storage
  m.push_back({"storage.open_s", t.open_s, "s"});
  m.push_back(
      {"storage.put_ms_mean", HistogramMeanMs(t, "topkpkg_store_put_seconds"),
       "ms"});
  m.push_back(
      {"storage.puts_per_req",
       Ratio(Delta(t.before, t.after, "topkpkg_store_put_seconds_count"),
             requests),
       "count"});
  m.push_back({"storage.fsync_ms_mean",
               HistogramMeanMs(t, "topkpkg_store_fsync_seconds"), "ms"});
  m.push_back({"storage.fsyncs_per_req",
               Ratio(Delta(t.before, t.after, "topkpkg_store_fsyncs_total"),
                     requests),
               "count"});
  m.push_back({"storage.compactions",
               Delta(t.before, t.after, "topkpkg_store_compactions_total"),
               "count"});
  m.push_back({"storage.disk_bytes_per_session",
               Ratio(static_cast<double>(t.disk_bytes),
                     static_cast<double>(t.stored_sessions)),
               "bytes"});

  // obs
  const double base = RequestsPerSecond(untraced);
  m.push_back({"obs.trace_overhead_pct",
               100.0 * Ratio(base - RequestsPerSecond(t), base), "%"});
  return m;
}

std::string FormatTable(const std::string& title,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "== " << title << " ==\n";
  for (const Metric& m : metrics) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "  %-36s %14.6g %-6s %s\n", m.name.c_str(),
                  m.value, m.unit.c_str(), m.detail.c_str());
    out << buf;
  }
  return out.str();
}

std::string ResultJson(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    if (!m.in_result) continue;
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
