#ifndef TOPKPKG_OBS_TRACE_H_
#define TOPKPKG_OBS_TRACE_H_

// Lightweight per-request tracing: a TraceContext of nested scoped spans
// flows with a request through SessionManager -> PackageRecommender ->
// SearchBatch, and a Tracer samples 1-in-N contexts deterministically
// (trace id modulo the sampling period) and exports them as JSONL.
//
// Propagation is a thread_local pointer to the current context, installed
// for the lifetime of one request's execution by ScopedTraceBinding on the
// serving worker that runs it. Library code opens spans with ScopedSpan; if
// no context is bound (direct library use), the span quietly measures
// nothing extra and records nothing. A request runs start to finish on the
// worker that owns it, so span recording needs no locking.
//
// ScopedSpan is also the shared timing primitive for RoundLog's phase
// seconds: Close() computes the duration once and both returns it (for the
// log field) and records it (for the trace), so per-round timing and
// tracing cannot drift apart.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "topkpkg/obs/metrics.h"

namespace topkpkg::obs {

// One closed span: relative nanosecond offsets from the context's start so
// exported traces are stable under replay and cheap to serialize.
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;  // Offset from the trace's first span.
  std::uint64_t dur_ns = 0;
  int depth = 0;  // Nesting depth; 0 is the root span.
};

// Per-request span collection. Created by a Tracer (which decides the
// sampled bit), bound to the executing thread via ScopedTraceBinding,
// flushed back to the tracer when the binding ends.
class TraceContext {
 public:
  TraceContext(std::uint64_t trace_id, bool sampled)
      : trace_id_(trace_id), sampled_(sampled) {}

  std::uint64_t trace_id() const { return trace_id_; }
  bool sampled() const { return sampled_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Span bookkeeping (single-threaded: only the bound request thread).
  int EnterSpan() { return depth_++; }
  void ExitSpan(SpanRecord record) {
    --depth_;
    if (sampled_) spans_.push_back(std::move(record));
  }
  int depth() const { return depth_; }

  // Timebase for span offsets: the first span anchors it.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }
  bool has_epoch() const { return has_epoch_; }
  void SetEpoch(std::chrono::steady_clock::time_point t) {
    epoch_ = t;
    has_epoch_ = true;
  }

 private:
  std::uint64_t trace_id_;
  bool sampled_;
  int depth_ = 0;
  bool has_epoch_ = false;
  std::chrono::steady_clock::time_point epoch_{};
  std::vector<SpanRecord> spans_;
};

// Mints trace contexts with deterministic 1-in-N sampling (ids count up
// from 0; id % sample_every == 0 is sampled, so the first request is always
// in the sample and the cadence is reproducible) and sinks sampled
// contexts to a JSONL file, one trace object per line.
class Tracer {
 public:
  // sample_every == 0 disables sampling entirely (contexts still flow, so
  // span nesting stays correct, but nothing is recorded or exported).
  // An empty path keeps sampled traces in memory only (drained by tests
  // via set_sink or simply discarded on Finish).
  explicit Tracer(std::uint64_t sample_every, std::string jsonl_path = "");
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::unique_ptr<TraceContext> StartTrace();

  // Serializes (if sampled and a sink is open) and destroys the context.
  void FinishTrace(std::unique_ptr<TraceContext> ctx);

  std::uint64_t sample_every() const { return sample_every_; }

  // One trace as a single JSON line (exposed for tests).
  static std::string ToJsonLine(const TraceContext& ctx);

 private:
  const std::uint64_t sample_every_;
  std::atomic<std::uint64_t> next_id_{0};
  std::mutex sink_mu_;
  std::string jsonl_path_;
  // Opened lazily on first sampled finish so an unused tracer never
  // touches the filesystem.
  std::unique_ptr<std::ofstream> sink_;
};

// Installs `ctx` as the executing thread's current trace context for the
// binding's scope. The serving worker that drains a request wraps the
// request's execution in one of these.
class ScopedTraceBinding {
 public:
  explicit ScopedTraceBinding(TraceContext* ctx);
  ~ScopedTraceBinding();

  ScopedTraceBinding(const ScopedTraceBinding&) = delete;
  ScopedTraceBinding& operator=(const ScopedTraceBinding&) = delete;

 private:
  TraceContext* prev_;
};

// The executing thread's current context, or nullptr when none is bound.
TraceContext* CurrentTraceContext();

// RAII span. Always measures wall time (Close() returns seconds — RoundLog
// phase fields are populated from it in every build flavor); records a
// SpanRecord only when a sampled context is bound to this thread. `name`
// must outlive the span (string literals in practice).
class ScopedSpan {
 public:
  // If `accumulate_seconds` is non-null, Close() also += the duration into
  // it — the natural shape for RoundLog fields that sum several spans
  // (maintain + reweight).
  explicit ScopedSpan(const char* name, double* accumulate_seconds = nullptr);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span now and returns its duration in seconds. Idempotent:
  // repeated calls (and the destructor) return the first call's duration
  // without re-measuring or re-recording.
  double Close();

 private:
  const char* name_;
  double* accumulate_seconds_;
  TraceContext* ctx_;  // Bound context at construction (may be null).
  int depth_ = 0;
  bool closed_ = false;
  double seconds_ = 0.0;  // Cached Close() result.
  std::chrono::steady_clock::time_point start_;
  std::uint64_t start_ns_ = 0;  // Offset from ctx_ epoch (0 if no ctx).
};

}  // namespace topkpkg::obs

#endif  // TOPKPKG_OBS_TRACE_H_
