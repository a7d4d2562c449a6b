#pragma once
// Work-stealing thread pool shared by every hot path in the library.
//
// Design goals, in priority order:
//   1. Determinism: parallel results must be bit-identical to the serial
//      path regardless of thread count. The runtime never reorders the
//      floating-point operations that produce a given output element; it
//      only partitions disjoint output ranges across workers. Randomized
//      parallel code derives its stream from the *work-item index* via
//      derive_seed(), never from the worker id.
//   2. Exception safety: an exception thrown inside a task is captured and
//      rethrown at the fork/join boundary (TaskGroup::wait or
//      parallel_for), and the pool stays fully reusable afterwards.
//   3. No deadlock under nesting: a parallel_for issued from inside a
//      worker thread executes inline (serially), and TaskGroup::wait
//      helps drain the pool instead of blocking, so oversubscription
//      cannot wedge the pool.
//
// The process-wide pool is configured once from HSD_THREADS (default:
// hardware_concurrency; 1 = exact serial fallback, every parallel_for
// body runs inline on the caller). Tests can resize it with
// set_global_threads().

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hsd::runtime {

/// SplitMix64 mix of a base seed and a stream index. Work items that need
/// randomness seed an Rng with derive_seed(base, item_index) so the draw
/// sequence depends only on the item, not on which worker ran it — the
/// property that keeps parallel runs bit-stable across thread counts.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// Fixed-size pool of workers, one mutex-guarded deque per worker. Owners
/// pop LIFO from the back of their own deque; idle workers (and helping
/// callers) steal FIFO from the front of a victim's deque.
class ThreadPool {
 public:
  /// `threads` is the total desired concurrency. `threads <= 1` spawns no
  /// workers: submit() runs tasks inline and parallel_for degenerates to
  /// the exact serial loop.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker-thread count (0 means serial).
  std::size_t size() const { return queues_.size(); }

  /// Enqueues a task (round-robin across worker deques). With no workers
  /// the task runs inline on the caller before submit() returns.
  void submit(std::function<void()> task);

  /// Dequeues and runs one pending task on the calling thread. Returns
  /// false when every deque is empty. Used by joiners to help instead of
  /// blocking.
  bool try_run_one();

  /// True when the calling thread is one of this process's pool workers.
  static bool on_worker_thread();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_main(std::size_t id);
  bool pop_or_steal(std::size_t id, std::function<void()>& out);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> queued_{0};  ///< tasks enqueued but not yet dequeued
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stop_{false};
};

/// Threads requested by the environment: HSD_THREADS when set to a
/// positive integer, otherwise hardware_concurrency() (minimum 1).
std::size_t configured_threads();

/// The process-wide pool, created on first use with configured_threads().
ThreadPool& global_pool();

/// Replaces the process-wide pool with an `n`-thread one. Test/bench hook;
/// must not race with concurrent parallel work.
void set_global_threads(std::size_t n);

/// Fork/join scope. run() forks a task into the pool; wait() joins all
/// forked tasks, helping to drain the pool while it waits, and rethrows
/// the first exception any task threw. Reusable after wait(), including
/// after an exception.
///
/// Join contract: once wait() returns, no pool thread touches the group
/// again, so a stack-local group may be destroyed at once. For this,
/// finish_one() decrements pending_ under mutex_ and wait() takes mutex_
/// before returning, so the last finisher's notify and unlock complete
/// before the join does.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  TaskGroup() : TaskGroup(global_pool()) {}

  /// Joins outstanding tasks; swallows errors (call wait() to observe them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Forks `fn`. Runs inline when the pool is serial.
  void run(std::function<void()> fn);

  /// Joins every task forked so far, then rethrows the first captured
  /// exception (clearing it, so the group can be reused).
  void wait();

  /// True once any forked task has thrown. Long fan-outs poll this to
  /// skip work that is no longer needed.
  bool failed() const { return failed_.load(std::memory_order_acquire); }

 private:
  void record_exception();
  void finish_one();

  ThreadPool& pool_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> failed_{false};
  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::exception_ptr error_;
};

/// Runs body(lo, hi) over disjoint blocks covering [begin, end), at most
/// `grain` indices per block (grain 0 picks one automatically). Executes
/// inline — identical to the plain serial loop — when the range fits one
/// block, the pool is serial, or the caller is already a pool worker
/// (nested parallelism). Rethrows the first exception a block threw;
/// blocks that have not started when a block fails are skipped.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& body);

inline void parallel_for(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for(begin, end, 0, body);
}

}  // namespace hsd::runtime
