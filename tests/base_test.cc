// Unit tests for src/base: Status/Result, strings, deterministic RNG,
// and the ThreadPool behind the parallel fixpoint stage.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"

namespace inflog {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arity");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arity");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kResourceExhausted),
            "ResourceExhausted");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

Status FailingOp() { return Status::NotFound("missing"); }
Status Passthrough() {
  INFLOG_RETURN_IF_ERROR(FailingOp());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Passthrough().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalfOf(int n) {
  if (n % 2 != 0) return Status::InvalidArgument("odd");
  return n / 2;
}
Result<int> QuarterOf(int n) {
  INFLOG_ASSIGN_OR_RETURN(const int half, HalfOf(n));
  return HalfOf(half);
}

TEST(ResultTest, AssignOrReturnChains) {
  ASSERT_TRUE(QuarterOf(8).ok());
  EXPECT_EQ(*QuarterOf(8), 2);
  EXPECT_FALSE(QuarterOf(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(QuarterOf(7).ok());
}

TEST(StringsTest, StrCat) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, StrJoin) {
  std::vector<int> v{1, 2, 3};
  EXPECT_EQ(StrJoin(v, ","), "1,2,3");
  EXPECT_EQ(StrJoin(std::vector<int>{}, ","), "");
}

TEST(StringsTest, StrSplitDropsEmpty) {
  auto parts = StrSplit("a,,b,c,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 5);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(11);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(&v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForBarriersBeforeReturning) {
  // After ParallelFor returns, every task's writes must be visible to the
  // caller — the fixpoint stage merges immediately afterwards.
  ThreadPool pool(4);
  std::vector<size_t> out(257, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::vector<size_t> order;
  pool.ParallelFor(5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, EmptyAndSingleIterationLoops) {
  ThreadPool pool(2);
  size_t calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  pool.ParallelFor(1, [&](size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, SubmitRunsDetachedTasks) {
  std::atomic<int> sum{0};
  {
    ThreadPool pool(2);
    for (int i = 1; i <= 10; ++i) {
      pool.Submit([&sum, i] { sum.fetch_add(i); });
    }
    // The destructor drains the queue before joining.
  }
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPoolTest, ManyLoopsReuseTheSameWorkers) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  for (int round = 0; round < 100; ++round) {
    pool.ParallelFor(17, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1700u);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyExceptionOnCaller) {
  // A body throwing on a worker thread must not std::terminate: the first
  // exception is captured, the barrier completes, and the exception
  // resurfaces on the calling thread.
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i == 7) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForKeepsFirstOfManyExceptions) {
  ThreadPool pool(4);
  // Every body throws; exactly one exception must come back, and the pool
  // must stay usable afterwards (the barrier was kept intact).
  EXPECT_THROW(pool.ParallelFor(
                   100, [](size_t) { throw std::runtime_error("each"); }),
               std::runtime_error);
  std::atomic<size_t> ran{0};
  pool.ParallelFor(100, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100u);
}

TEST(ThreadPoolTest, ParallelForInlineExceptionPropagates) {
  ThreadPool pool(0);
  EXPECT_THROW(
      pool.ParallelFor(3, [](size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
}

}  // namespace
}  // namespace inflog
