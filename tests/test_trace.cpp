// Tracer and latency-histogram tests: span emission under concurrency,
// ring overflow accounting, trace-event JSON structure, the zero-cost
// disabled path, and histogram bucket/percentile arithmetic.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/histogram.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace rfsm {
namespace {

/// RAII: enables tracing with a fresh buffer, restores the previous
/// enabled state and default capacity afterwards so tests do not leak
/// tracer state into each other.
class TraceScope {
 public:
  explicit TraceScope(std::size_t capacity = 4096) : was_(trace::enabled()) {
    trace::setCapacity(capacity);  // also clears
    trace::setEnabled(true);
  }
  ~TraceScope() {
    trace::setEnabled(was_);
    trace::setCapacity(32768);
  }

 private:
  bool was_;
};

TEST(Trace, DisabledRecordsNothing) {
  trace::setEnabled(false);
  trace::setCapacity(1024);
  {
    trace::ScopedSpan span("never", "test");
    trace::instant("never", "test");
    trace::complete("never", "test", 0, 1);
  }
  EXPECT_EQ(trace::eventCount(), 0u);
  EXPECT_EQ(trace::droppedCount(), 0u);
  trace::setCapacity(32768);
}

TEST(Trace, SpanConstructedWhileDisabledStaysInert) {
  trace::setEnabled(false);
  trace::setCapacity(1024);
  {
    trace::ScopedSpan span("never", "test");
    trace::setEnabled(true);  // enabling mid-span must not emit it
  }
  EXPECT_EQ(trace::eventCount(), 0u);
  trace::setEnabled(false);
  trace::setCapacity(32768);
}

TEST(Trace, RecordsCompleteInstantAndAsyncEvents) {
  TraceScope scope;
  {
    trace::ScopedSpan span("unit.span", "test",
                           {trace::Arg::num("k", std::int64_t{7})});
    span.addArg(trace::Arg::str("note", "mid-span"));
  }
  trace::instant("unit.instant", "test", {trace::Arg::boolean("ok", true)});
  const std::uint64_t id = trace::newCorrelationId();
  trace::asyncBegin("unit.async", "test", id);
  trace::asyncInstant("unit.tick", "test", id);
  trace::asyncEnd("unit.async", "test", id);
  EXPECT_EQ(trace::eventCount(), 5u);

  const std::string json = trace::toJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"n\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"e\""), std::string::npos);
  EXPECT_NE(json.find("\"k\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"note\": \"mid-span\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
}

TEST(Trace, RingOverflowDropsOldestAndCounts) {
  metrics::resetAll();
  TraceScope scope(/*capacity=*/8);
  for (int k = 0; k < 20; ++k)
    trace::instant("e" + std::to_string(k), "test");
  EXPECT_EQ(trace::eventCount(), 8u);
  EXPECT_EQ(trace::droppedCount(), 12u);
  const std::string json = trace::toJson();
  // Drop-oldest: the first events are gone, the newest survive.
  EXPECT_EQ(json.find("\"e0\""), std::string::npos);
  EXPECT_EQ(json.find("\"e11\""), std::string::npos);
  EXPECT_NE(json.find("\"e12\""), std::string::npos);
  EXPECT_NE(json.find("\"e19\""), std::string::npos);
  // Newest-last ordering survives the wrap.
  EXPECT_LT(json.find("\"e12\""), json.find("\"e19\""));
  // The drop is observable in telemetry too.
  EXPECT_EQ(metrics::counter(metrics::kTraceDropped).value(), 12u);
  metrics::resetAll();
}

TEST(Trace, ConcurrentSpansFromPoolWorkersAllArrive) {
  TraceScope scope(/*capacity=*/16384);
  constexpr std::size_t kTasks = 512;
  ThreadPool pool(4);
  // The first four tasks wait for each other, so each of the four jobs
  // (caller + workers 1..3) runs one and every worker registers its name.
  std::latch allJobsRunning(4);
  pool.parallelFor(kTasks, [&](std::size_t k) {
    if (k < 4) allJobsRunning.arrive_and_wait();
    trace::ScopedSpan span("task", "test",
                           {trace::Arg::num("k", static_cast<std::int64_t>(k))});
  });
  EXPECT_EQ(trace::droppedCount(), 0u);
  // Every task's span arrived (the pool emits pool.drain spans on top).
  EXPECT_GE(trace::eventCount(), kTasks);
  const std::string json = trace::toJson();
  // Workers carry names into the trace metadata (job 0 is the calling
  // thread, so a 4-job pool spawns workers 1..3).
  EXPECT_NE(json.find("rfsm-worker-1"), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(Trace, WriteFileProducesLoadableJson) {
  TraceScope scope;
  trace::instant("file.event", "test");
  const std::string path = ::testing::TempDir() + "rfsm_trace_test.json";
  ASSERT_TRUE(trace::writeFile(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"file.event\""), std::string::npos);
}

TEST(Trace, StringArgsAreJsonEscaped) {
  TraceScope scope;
  trace::instant("escape", "test",
                 {trace::Arg::str("payload", "a\"b\\c\nd\te")});
  const std::string json = trace::toJson();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
}

TEST(TraceContext, BeginTraceMintsDistinctSampledContexts) {
  TraceScope scope;
  const trace::TraceContext a = trace::beginTrace();
  const trace::TraceContext b = trace::beginTrace();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(a.sampled);
  EXPECT_NE(a.traceIdHex(), b.traceIdHex());
  EXPECT_NE(a.spanId, b.spanId);
  EXPECT_EQ(a.traceIdHex().size(), 32u);
}

TEST(TraceContext, BeginTraceIsUnsampledWhileDisabled) {
  trace::setEnabled(false);
  const trace::TraceContext context = trace::beginTrace();
  EXPECT_TRUE(context.valid());
  EXPECT_FALSE(context.sampled);
}

TEST(TraceContext, ScopeAdoptsAndRestores) {
  TraceScope scope;
  EXPECT_FALSE(trace::currentContext().valid());
  const trace::TraceContext outer = trace::beginTrace();
  {
    trace::ContextScope adopt(outer);
    EXPECT_EQ(trace::currentContext().spanId, outer.spanId);
    EXPECT_EQ(trace::currentContext().traceIdHex(), outer.traceIdHex());
    const trace::TraceContext inner = trace::beginTrace();
    {
      trace::ContextScope nested(inner);
      EXPECT_EQ(trace::currentContext().spanId, inner.spanId);
    }
    EXPECT_EQ(trace::currentContext().spanId, outer.spanId);
  }
  EXPECT_FALSE(trace::currentContext().valid());
}

TEST(TraceContext, SpanChainsUnderSampledContext) {
  TraceScope scope;
  const trace::TraceContext root = trace::beginTrace();
  trace::ContextScope adopt(root);
  std::uint64_t parentId = 0;
  std::uint64_t childId = 0;
  {
    trace::ScopedSpan parent("ctx.parent", "test");
    parentId = parent.spanId();
    EXPECT_NE(parentId, 0u);
    // The span installed itself: outgoing frames would carry its id.
    EXPECT_EQ(trace::currentContext().spanId, parentId);
    {
      trace::ScopedSpan child("ctx.child", "test");
      childId = child.spanId();
      EXPECT_NE(childId, parentId);
    }
  }
  EXPECT_EQ(trace::currentContext().spanId, root.spanId);
  const std::string json = trace::toJson();
  // The child records the parent span's id, the parent records the root's.
  EXPECT_NE(json.find("\"span_id\": " + std::to_string(childId)),
            std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\": " + std::to_string(parentId)),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_id\": \"" + root.traceIdHex() + "\""),
            std::string::npos);
}

TEST(TraceContext, UnsampledContextAddsNoDistributedArgs) {
  TraceScope scope;
  trace::TraceContext context = trace::beginTrace();
  context.sampled = false;  // remote peer traced with sampling off
  trace::ContextScope adopt(context);
  {
    trace::ScopedSpan span("ctx.unsampled", "test");
    EXPECT_EQ(span.spanId(), 0u);
  }
  const std::string json = trace::toJson();
  EXPECT_EQ(json.find("parent_span_id"), std::string::npos);
  EXPECT_EQ(json.find("trace_id"), std::string::npos);
}

TEST(TraceContext, ParentSurvivesThreadHopWhenCaptured) {
  TraceScope scope;
  const trace::TraceContext root = trace::beginTrace();
  trace::ContextScope adopt(root);
  std::uint64_t parentId = 0;
  std::uint64_t remoteParentSeen = 0;
  {
    trace::ScopedSpan parent("ctx.dispatch", "test");
    parentId = parent.spanId();
    // The hedge/executor pattern: capture the context into the lambda,
    // adopt it on the worker thread — thread-locals do not cross.
    std::thread worker([context = trace::currentContext(),
                        &remoteParentSeen] {
      trace::ContextScope scope(context);
      remoteParentSeen = trace::currentContext().spanId;
      trace::ScopedSpan span("ctx.remote", "test");
    });
    worker.join();
  }
  EXPECT_EQ(remoteParentSeen, parentId);
  const std::string json = trace::toJson();
  EXPECT_NE(json.find("\"parent_span_id\": " + std::to_string(parentId)),
            std::string::npos);
}

TEST(TraceContext, FreshThreadHasNoContext) {
  TraceScope scope;
  const trace::TraceContext root = trace::beginTrace();
  trace::ContextScope adopt(root);
  bool valid = true;
  std::thread checker([&valid] { valid = trace::currentContext().valid(); });
  checker.join();
  EXPECT_FALSE(valid);
}

TEST(Histogram, BucketsAreMonotoneAndContainTheirValues) {
  using metrics::Histogram;
  // Every bucket's lower bound maps back to that bucket, and bounds grow
  // strictly.
  for (int b = 0; b < Histogram::kBucketCount; ++b) {
    const std::uint64_t lower = Histogram::bucketLowerBound(b);
    EXPECT_EQ(Histogram::bucketOf(lower), b) << "bucket " << b;
    if (b > 0)
      EXPECT_GT(lower, Histogram::bucketLowerBound(b - 1)) << "bucket " << b;
  }
  // Spot values across the range, including extremes.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5},
        std::uint64_t{1000}, std::uint64_t{1} << 40,
        ~std::uint64_t{0}}) {
    const int b = Histogram::bucketOf(v);
    ASSERT_GE(b, 0);
    ASSERT_LT(b, Histogram::kBucketCount);
    EXPECT_LE(Histogram::bucketLowerBound(b), v);
    if (b + 1 < Histogram::kBucketCount)
      EXPECT_GT(Histogram::bucketLowerBound(b + 1), v);
  }
}

TEST(Histogram, QuantilesBoundTheDataWithin25Percent) {
  metrics::Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  const std::uint64_t p50 = h.quantile(0.5);
  const std::uint64_t p99 = h.quantile(0.99);
  // Log-scale buckets guarantee <= 25% relative error.
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 625u);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 1000u);  // clamped to the exact observed max
  EXPECT_EQ(h.quantile(1.0), 1000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(Histogram, ConcurrentRecordsLoseNothing) {
  metrics::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h, t] {
      for (int k = 0; k < kPerThread; ++k)
        h.record(static_cast<std::uint64_t>(t * kPerThread + k + 1));
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Histogram, ScopedLatencyRecordsOneSample) {
  metrics::Histogram h;
  {
    metrics::ScopedLatency latency(h);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.max(), 1000000u);  // at least the 1ms we slept, in ns
}

}  // namespace
}  // namespace rfsm
