#include "topkpkg/obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "topkpkg/data/generators.h"
#include "topkpkg/recsys/recommender.h"
#include "topkpkg/recsys/simulated_user.h"

namespace topkpkg::obs {
namespace {

const SpanRecord* FindSpan(const TraceContext& ctx, const std::string& name) {
  for (const SpanRecord& s : ctx.spans()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TEST(TraceTest, SamplingIsDeterministicOneInN) {
  Tracer tracer(/*sample_every=*/3);
  for (std::uint64_t i = 0; i < 9; ++i) {
    std::unique_ptr<TraceContext> ctx = tracer.StartTrace();
    EXPECT_EQ(ctx->trace_id(), i);
    EXPECT_EQ(ctx->sampled(), i % 3 == 0) << "trace " << i;
    tracer.FinishTrace(std::move(ctx));
  }
}

TEST(TraceTest, SampleEveryZeroDisablesRecording) {
  Tracer tracer(/*sample_every=*/0);
  std::unique_ptr<TraceContext> ctx = tracer.StartTrace();
  EXPECT_FALSE(ctx->sampled());
  ScopedTraceBinding binding(ctx.get());
  { ScopedSpan span("noop"); }
  EXPECT_TRUE(ctx->spans().empty());
  EXPECT_EQ(ctx->depth(), 0);  // Nesting bookkeeping still balances.
}

TEST(TraceTest, SpansNestWithDepthAndCloseInnerFirst) {
  Tracer tracer(/*sample_every=*/1);
  std::unique_ptr<TraceContext> ctx = tracer.StartTrace();
  ASSERT_TRUE(ctx->sampled());
  {
    ScopedTraceBinding binding(ctx.get());
    ScopedSpan outer("outer");
    {
      ScopedSpan inner("inner");
    }
    ScopedSpan sibling("sibling");
  }
  // Spans are recorded at close: inner first, then sibling, then outer.
  ASSERT_EQ(ctx->spans().size(), 3u);
  EXPECT_EQ(ctx->spans()[0].name, "inner");
  EXPECT_EQ(ctx->spans()[0].depth, 1);
  EXPECT_EQ(ctx->spans()[1].name, "sibling");
  EXPECT_EQ(ctx->spans()[1].depth, 1);
  EXPECT_EQ(ctx->spans()[2].name, "outer");
  EXPECT_EQ(ctx->spans()[2].depth, 0);
  // The outer span starts at (or before) the inner ones and outlasts them.
  EXPECT_LE(ctx->spans()[2].start_ns, ctx->spans()[0].start_ns);
  EXPECT_GE(ctx->spans()[2].start_ns + ctx->spans()[2].dur_ns,
            ctx->spans()[1].start_ns + ctx->spans()[1].dur_ns);
}

TEST(TraceTest, CloseReturnsSecondsExactlyMatchingRecord) {
  Tracer tracer(/*sample_every=*/1);
  std::unique_ptr<TraceContext> ctx = tracer.StartTrace();
  ScopedTraceBinding binding(ctx.get());
  ScopedSpan span("timed");
  const double seconds = span.Close();
  ASSERT_EQ(ctx->spans().size(), 1u);
  // Close() computes the nanosecond duration once and derives both the
  // return value and the record from it — bit-exact agreement, no drift.
  EXPECT_EQ(seconds,
            static_cast<double>(ctx->spans()[0].dur_ns) * 1e-9);
  // Idempotent: closing again neither re-records nor re-measures.
  EXPECT_EQ(span.Close(), seconds);
  EXPECT_EQ(ctx->spans().size(), 1u);
}

TEST(TraceTest, AccumulateSecondsSumsSpans) {
  Tracer tracer(/*sample_every=*/1);
  std::unique_ptr<TraceContext> ctx = tracer.StartTrace();
  ScopedTraceBinding binding(ctx.get());
  double total = 0.0;
  double first;
  {
    ScopedSpan a("part", &total);
    first = a.Close();
  }
  EXPECT_EQ(total, first);
  double second;
  {
    ScopedSpan b("part", &total);
    second = b.Close();
  }
  EXPECT_EQ(total, first + second);
}

TEST(TraceTest, SpansWithoutBoundContextMeasureButRecordNothing) {
  ASSERT_EQ(CurrentTraceContext(), nullptr);
  ScopedSpan span("unbound");
  EXPECT_GE(span.Close(), 0.0);
}

TEST(TraceTest, FinishTraceWritesJsonl) {
  const std::string path = ::testing::TempDir() + "trace_test_out.jsonl";
  std::remove(path.c_str());
  {
    Tracer tracer(/*sample_every=*/2, path);
    for (int i = 0; i < 4; ++i) {  // ids 0..3; 0 and 2 sampled.
      std::unique_ptr<TraceContext> ctx = tracer.StartTrace();
      ScopedTraceBinding binding(ctx.get());
      { ScopedSpan span("work"); }
      tracer.FinishTrace(std::move(ctx));
    }
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"trace_id\":0,\"spans\":[", 0), 0u);
  EXPECT_EQ(lines[1].rfind("{\"trace_id\":2,\"spans\":[", 0), 0u);
  EXPECT_NE(lines[0].find("\"name\":\"work\""), std::string::npos);
  EXPECT_EQ(lines[0].back(), '}');
  std::remove(path.c_str());
}

TEST(TraceTest, ToJsonLineEscapesSpanNames) {
  TraceContext ctx(/*trace_id=*/7, /*sampled=*/true);
  ctx.EnterSpan();
  ctx.ExitSpan(SpanRecord{"quo\"te\\back\nline", 1, 2, 0});
  const std::string json = Tracer::ToJsonLine(ctx);
  EXPECT_NE(json.find("quo\\\"te\\\\back\\nline"), std::string::npos);
  EXPECT_EQ(json.rfind("{\"trace_id\":7,", 0), 0u);
}

// The satellite contract: RoundLog phase timings are produced by the same
// ScopedSpan measurements that feed the trace, so a sampled trace's span
// durations equal the log's phase seconds bit-for-bit.
class RoundLogSpanFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<model::ItemTable>(
        std::move(data::GenerateUniform(40, 3, 7)).value());
    profile_ = std::make_unique<model::Profile>(
        std::move(model::Profile::Parse("sum,avg,min")).value());
    evaluator_ = std::make_unique<model::PackageEvaluator>(table_.get(),
                                                           profile_.get(), 3);
    Rng rng(8);
    prior_ = std::make_unique<prob::GaussianMixture>(
        prob::GaussianMixture::Random(3, 2, 0.5, rng));
  }

  recsys::RecommenderOptions Options() const {
    recsys::RecommenderOptions opts;
    opts.num_recommended = 3;
    opts.num_random = 3;
    opts.num_samples = 40;
    opts.ranking.k = 3;
    opts.ranking.sigma = 3;
    return opts;
  }

  std::unique_ptr<model::ItemTable> table_;
  std::unique_ptr<model::Profile> profile_;
  std::unique_ptr<model::PackageEvaluator> evaluator_;
  std::unique_ptr<prob::GaussianMixture> prior_;
};

TEST_F(RoundLogSpanFixture, IncrementalMaintainSecondsEqualSpanDuration) {
  auto rec = std::move(recsys::PackageRecommender::Create(
                           evaluator_.get(), prior_.get(), Options(),
                           /*seed=*/13))
                 .value();
  recsys::SimulatedUser user({0.8, 0.4, -0.2});
  Tracer tracer(/*sample_every=*/1);

  // Round 1 fills the pool — no maintain span yet.
  {
    std::unique_ptr<TraceContext> ctx = tracer.StartTrace();
    ScopedTraceBinding binding(ctx.get());
    auto r1 = rec->RunRound(user);
    ASSERT_TRUE(r1.ok()) << r1.status();
    EXPECT_EQ(FindSpan(*ctx, "maintain"), nullptr);
    EXPECT_EQ(r1->maintain_seconds, 0.0);
    const SpanRecord* sample = FindSpan(*ctx, "sample");
    const SpanRecord* rank = FindSpan(*ctx, "rank");
    const SpanRecord* round = FindSpan(*ctx, "round");
    ASSERT_NE(sample, nullptr);
    ASSERT_NE(rank, nullptr);
    ASSERT_NE(round, nullptr);
    EXPECT_EQ(r1->sample_seconds,
              static_cast<double>(sample->dur_ns) * 1e-9);
    EXPECT_EQ(r1->rank_seconds, static_cast<double>(rank->dur_ns) * 1e-9);
    EXPECT_EQ(round->depth, 0);
    EXPECT_EQ(sample->depth, 1);
    EXPECT_EQ(rank->depth, 1);
    EXPECT_GE(round->dur_ns, sample->dur_ns + rank->dur_ns);
  }

  // Round 2 maintains it; only the importance sampler reweights, so with
  // the default MCMC sampler maintain_seconds is the maintain span alone.
  std::unique_ptr<TraceContext> ctx = tracer.StartTrace();
  recsys::RoundLog log;
  {
    ScopedTraceBinding binding(ctx.get());
    auto r2 = rec->RunRound(user);
    ASSERT_TRUE(r2.ok()) << r2.status();
    log = *r2;
  }
  const SpanRecord* maintain = FindSpan(*ctx, "maintain");
  const SpanRecord* rank = FindSpan(*ctx, "rank");
  ASSERT_NE(maintain, nullptr);
  ASSERT_NE(rank, nullptr);
  EXPECT_EQ(log.maintain_seconds,
            static_cast<double>(maintain->dur_ns) * 1e-9);
  EXPECT_EQ(log.rank_seconds, static_cast<double>(rank->dur_ns) * 1e-9);
  EXPECT_EQ(FindSpan(*ctx, "reweight"), nullptr);
}

}  // namespace
}  // namespace topkpkg::obs
