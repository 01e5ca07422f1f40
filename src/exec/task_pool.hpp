#pragma once
// TaskPool: the deterministic parallel execution layer (DESIGN.md §10).
//
// A fixed set of worker lanes with per-lane work-stealing deques. The design
// constraint that shapes everything here is *determinism*: a computation run
// on the pool must produce bit-for-bit the result it produces serially, at
// any worker count. The pool guarantees its half of that contract:
//
//   * parallel_for(n, body) runs body(i) exactly once per i; the caller
//     blocks (and helps execute) until every index has finished;
//   * parallel_map writes result i to slot i, so the output vector's order
//     is the index order, never the completion order — a caller folding it
//     in ascending index order fixes the floating-point accumulation order;
//   * if bodies throw, the exception propagated to the caller is the one
//     raised by the *lowest* failing index (every chunk still runs), so
//     error behavior does not depend on scheduling either.
//
// The caller's half: bodies for distinct indices must not write shared
// state (write only to your own index's slot), and any RNG a task needs is
// derived by stream id (Rng::fork(stream_id) / ShardRng), never drawn from
// a shared generator.
//
// Scheduling notes:
//   * workers() is the number of execution lanes *including* the calling
//     thread; TaskPool(1) executes everything inline and spawns nothing.
//   * A nested parallel_for — a pool task calling back into its own pool —
//     runs inline on the calling lane. Parallelism is spent at the
//     outermost level, which is where the grain is coarsest; nesting is
//     legal everywhere and never deadlocks.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace w11::exec {

class TaskPool {
 public:
  // workers <= 0 selects default_workers(). workers == 1 is the serial
  // pool: no threads, every call executes inline.
  explicit TaskPool(int workers = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  // Execution lanes, including the calling thread.
  [[nodiscard]] int workers() const { return n_lanes_; }

  // The process-wide shared pool, sized by default_workers(). Built on
  // first use; lives until exit.
  static TaskPool& global();

  // Worker-count default: the W11_THREADS environment variable if set (>=1),
  // else the W11_THREADS CMake cache value baked in as W11_DEFAULT_THREADS,
  // else hardware concurrency (clamped to [1, 16]).
  static int default_workers();

  // True while the current thread is executing a task of *any* TaskPool —
  // i.e. a parallel_for here would run inline.
  [[nodiscard]] static bool in_task();

  // body(i) for every i in [0, n). Blocks until all indices completed;
  // rethrows the lowest failing index's exception.
  template <class F>
  void parallel_for(std::size_t n, F&& body) {
    if (inline_eligible(n)) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    execute(n, [&body](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  // out[i] = body(i); output in index order regardless of completion
  // order. T must be default-constructible.
  template <class T, class F>
  [[nodiscard]] std::vector<T> parallel_map(std::size_t n, F&& body) {
    std::vector<T> out(n);
    parallel_for(n, [&out, &body](std::size_t i) { out[i] = body(i); });
    return out;
  }

 private:
  struct Batch;
  struct Chunk {
    Batch* batch = nullptr;
    std::size_t begin = 0, end = 0;
  };
  struct Lane {
    std::mutex mu;
    std::deque<Chunk> deque;  // owner pops back, thieves steal front
  };

  [[nodiscard]] bool inline_eligible(std::size_t n) const {
    return n_lanes_ == 1 || n < 2 || in_task();
  }

  // Split [0, n) into chunks, distribute across lanes, help until done.
  void execute(std::size_t n,
               const std::function<void(std::size_t, std::size_t)>& body);

  void worker_loop(int lane);
  bool try_run_one(int lane);
  void run_chunk(const Chunk& chunk);

  int n_lanes_ = 1;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::size_t queued_chunks_ = 0;  // guarded by wake_mu_
  bool stop_ = false;              // guarded by wake_mu_

  // Batch-completion signal. Pool-level (not per-Batch) because a Batch
  // lives on its caller's stack and dies as soon as the caller observes
  // completion — a stack-local mutex/cv would race its own destruction.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace w11::exec
