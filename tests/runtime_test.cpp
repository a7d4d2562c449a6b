#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/registry.hpp"

namespace hsd::runtime {
namespace {

// Every test pins the global pool size it needs; the fixture restores a
// serial pool afterwards so no state leaks between tests.
class RuntimeTest : public ::testing::Test {
 protected:
  void TearDown() override { set_global_threads(1); }
};

TEST_F(RuntimeTest, DeriveSeedIsDeterministic) {
  EXPECT_EQ(derive_seed(42, 0), derive_seed(42, 0));
  EXPECT_EQ(derive_seed(7, 123), derive_seed(7, 123));
}

TEST_F(RuntimeTest, DeriveSeedSeparatesStreamsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL}) {
    for (std::uint64_t stream = 0; stream < 64; ++stream) {
      seen.insert(derive_seed(base, stream));
    }
  }
  EXPECT_EQ(seen.size(), 3u * 64u);  // no collisions across bases/streams
}

TEST_F(RuntimeTest, ConfiguredThreadsReadsEnvironment) {
  ASSERT_EQ(setenv(hsd::reg::kEnvThreads, "3", 1), 0);
  EXPECT_EQ(configured_threads(), 3u);
  // Strict parsing: a malformed or non-positive pin throws instead of
  // silently running at hardware width.
  ASSERT_EQ(setenv(hsd::reg::kEnvThreads, "not-a-number", 1), 0);
  EXPECT_THROW(configured_threads(), std::runtime_error);
  ASSERT_EQ(setenv(hsd::reg::kEnvThreads, "3x", 1), 0);
  EXPECT_THROW(configured_threads(), std::runtime_error);
  ASSERT_EQ(setenv(hsd::reg::kEnvThreads, "0", 1), 0);
  EXPECT_THROW(configured_threads(), std::runtime_error);
  ASSERT_EQ(unsetenv(hsd::reg::kEnvThreads), 0);
  EXPECT_GE(configured_threads(), 1u);
}

TEST_F(RuntimeTest, SerialPoolRunsInlineOnce) {
  set_global_threads(1);
  int calls = 0;
  std::size_t lo = 99, hi = 0;
  parallel_for(2, 17, [&](std::size_t b, std::size_t e) {
    ++calls;
    lo = b;
    hi = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(lo, 2u);
  EXPECT_EQ(hi, 17u);
}

TEST_F(RuntimeTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {2u, 4u, 8u}) {
    set_global_threads(threads);
    constexpr std::size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    parallel_for(0, kN, 7, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST_F(RuntimeTest, GrainBoundsBlockSize) {
  set_global_threads(4);
  std::atomic<std::size_t> max_block{0};
  parallel_for(0, 1000, 13, [&](std::size_t b, std::size_t e) {
    std::size_t cur = max_block.load(std::memory_order_relaxed);
    while (e - b > cur && !max_block.compare_exchange_weak(cur, e - b, std::memory_order_relaxed)) {
    }
  });
  EXPECT_LE(max_block.load(std::memory_order_relaxed), 13u);
}

TEST_F(RuntimeTest, EmptyRangeNeverCallsBody) {
  set_global_threads(4);
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(RuntimeTest, ExceptionPropagatesAndPoolStaysUsable) {
  set_global_threads(4);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::size_t b, std::size_t) {
                     if (b == 42) throw std::runtime_error("block 42 failed");
                   }),
      std::runtime_error);

  // The pool must be fully reusable after the failed loop.
  std::atomic<int> sum{0};
  parallel_for(0, 100, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(std::memory_order_relaxed), 4950);
}

TEST_F(RuntimeTest, NestedParallelForDoesNotDeadlock) {
  set_global_threads(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 256;
  std::vector<std::atomic<std::size_t>> inner_counts(kOuter);
  for (auto& c : inner_counts) c.store(0, std::memory_order_relaxed);
  parallel_for(0, kOuter, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t o = b; o < e; ++o) {
      parallel_for(0, kInner, [&](std::size_t ib, std::size_t ie) {
        inner_counts[o].fetch_add(ie - ib, std::memory_order_relaxed);
      });
    }
  });
  for (std::size_t o = 0; o < kOuter; ++o) EXPECT_EQ(inner_counts[o].load(std::memory_order_relaxed), kInner);
}

TEST_F(RuntimeTest, TaskGroupJoinsAllForkedTasks) {
  set_global_threads(4);
  std::vector<std::atomic<int>> done(64);
  for (auto& d : done) d.store(0, std::memory_order_relaxed);
  TaskGroup group;
  for (std::size_t t = 0; t < 64; ++t) {
    group.run([&done, t] { done[t].fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  for (std::size_t t = 0; t < 64; ++t) EXPECT_EQ(done[t].load(std::memory_order_relaxed), 1);
}

TEST_F(RuntimeTest, TaskGroupRethrowsFirstExceptionAndResets) {
  set_global_threads(4);
  TaskGroup group;
  group.run([] { throw std::invalid_argument("task failed"); });
  EXPECT_THROW(group.wait(), std::invalid_argument);

  // Same group is reusable after the exception was delivered.
  std::atomic<bool> ran{false};
  group.run([&] { ran.store(true, std::memory_order_relaxed); });
  group.wait();
  EXPECT_TRUE(ran.load(std::memory_order_relaxed));
}

TEST_F(RuntimeTest, OversubscribedTaskGroupsDoNotDeadlock) {
  set_global_threads(2);
  // Fork more waiting groups than there are workers; helping joins must
  // keep the pool making progress.
  std::atomic<int> leaf{0};
  TaskGroup outer;
  for (int t = 0; t < 8; ++t) {
    outer.run([&leaf] {
      TaskGroup inner;
      for (int s = 0; s < 8; ++s) inner.run([&leaf] { leaf.fetch_add(1, std::memory_order_relaxed); });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaf.load(std::memory_order_relaxed), 64);
}

// Frames for TaskGroupIsUntouchedAfterJoin. Both are noinline and called
// from the same loop, so the canary array lands on the stack slots that the
// just-joined parallel_for's TaskGroup occupied. A pool thread that still
// locks or notifies the group after wait() returned writes into the canary.
[[gnu::noinline]] void run_eight_block_parallel_for(std::atomic<std::size_t>& covered) {
  parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    covered.fetch_add(e - b, std::memory_order_relaxed);
  });
}

[[gnu::noinline]] std::size_t corrupted_canary_words() {
  constexpr std::size_t kWords = 512;
  constexpr std::uint64_t kPattern = 0xA5C3F00D5EEDBEEFULL;
  volatile std::uint64_t canary[kWords];
  for (std::size_t i = 0; i < kWords; ++i) canary[i] = kPattern ^ i;
  volatile int spin = 0;
  for (int i = 0; i < 256; ++i) spin = spin + 1;  // give stale writers time
  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < kWords; ++i) {
    if (canary[i] != (kPattern ^ i)) ++corrupted;
  }
  return corrupted;
}

TEST_F(RuntimeTest, TaskGroupIsUntouchedAfterJoin) {
  set_global_threads(4);
  constexpr int kIterations = 200000;
  std::atomic<std::size_t> covered{0};
  std::size_t corrupted = 0;
  for (int it = 0; it < kIterations; ++it) {
    run_eight_block_parallel_for(covered);
    corrupted += corrupted_canary_words();
  }
  EXPECT_EQ(covered.load(std::memory_order_relaxed), 8u * kIterations);
  EXPECT_EQ(corrupted, 0u) << "a pool thread wrote to a joined TaskGroup's stack frame";
}

}  // namespace
}  // namespace hsd::runtime
