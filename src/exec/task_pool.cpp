#include "exec/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/check.hpp"

namespace w11::exec {

namespace {
// Set while a thread is executing a chunk of any pool; nested parallel
// calls observe it and run inline.
thread_local bool tl_in_task = false;
}  // namespace

// One parallel_for invocation. Lives on the caller's stack; chunks hold a
// pointer to it and the caller cannot return before remaining_ hits zero,
// so the lifetime is safe.
struct TaskPool::Batch {
  std::function<void(std::size_t, std::size_t)> body;
  std::atomic<std::size_t> remaining{0};

  // Deterministic error propagation: keep the exception of the lowest chunk
  // begin-index; every chunk runs regardless of earlier failures.
  std::mutex err_mu;
  std::size_t err_index = SIZE_MAX;
  std::exception_ptr err;
};

TaskPool::TaskPool(int workers) {
  n_lanes_ = workers >= 1 ? workers : default_workers();
  lanes_.reserve(static_cast<std::size_t>(n_lanes_));
  for (int i = 0; i < n_lanes_; ++i)
    lanes_.push_back(std::make_unique<Lane>());
  threads_.reserve(static_cast<std::size_t>(n_lanes_ - 1));
  for (int lane = 1; lane < n_lanes_; ++lane)
    threads_.emplace_back([this, lane] { worker_loop(lane); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

TaskPool& TaskPool::global() {
  static TaskPool pool(0);
  return pool;
}

int TaskPool::default_workers() {
  if (const char* env = std::getenv("W11_THREADS")) {
    const int v = std::atoi(env);
    if (v >= 1) return std::min(v, 64);
  }
#ifdef W11_DEFAULT_THREADS
  if (W11_DEFAULT_THREADS >= 1) return std::min(W11_DEFAULT_THREADS, 64);
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hc), 1, 16);
}

bool TaskPool::in_task() { return tl_in_task; }

void TaskPool::run_chunk(const Chunk& chunk) {
  Batch& b = *chunk.batch;
  const bool was_in_task = tl_in_task;
  tl_in_task = true;
  try {
    b.body(chunk.begin, chunk.end);
  } catch (...) {
    std::lock_guard<std::mutex> lk(b.err_mu);
    if (chunk.begin < b.err_index) {
      b.err_index = chunk.begin;
      b.err = std::current_exception();
    }
  }
  tl_in_task = was_in_task;
  // release: publishes this chunk's writes to the caller, who observes
  // remaining == 0 with an acquire load before touching results.
  //
  // The completion mutex/cv are pool members, not Batch members: the Batch
  // lives on the caller's stack and is destroyed the moment the caller sees
  // remaining == 0, which can happen while this thread is still inside the
  // signal below. The pool outlives every batch, so signalling through it
  // is free of that destruction race. The empty critical section orders
  // this signal against the caller's predicate-check-then-wait.
  if (b.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    { std::lock_guard<std::mutex> lk(done_mu_); }
    done_cv_.notify_all();
  }
}

bool TaskPool::try_run_one(int lane) {
  // Own deque first (back = most recently pushed, cache-warm), then steal
  // from the front of the others, scanning from the next lane over.
  Chunk chunk;
  {
    Lane& own = *lanes_[static_cast<std::size_t>(lane)];
    std::lock_guard<std::mutex> lk(own.mu);
    if (!own.deque.empty()) {
      chunk = own.deque.back();
      own.deque.pop_back();
    }
  }
  if (chunk.batch == nullptr) {
    for (int d = 1; d < n_lanes_ && chunk.batch == nullptr; ++d) {
      Lane& victim = *lanes_[static_cast<std::size_t>((lane + d) % n_lanes_)];
      std::lock_guard<std::mutex> lk(victim.mu);
      if (!victim.deque.empty()) {
        chunk = victim.deque.front();
        victim.deque.pop_front();
      }
    }
  }
  if (chunk.batch == nullptr) return false;
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    --queued_chunks_;
  }
  run_chunk(chunk);
  return true;
}

void TaskPool::worker_loop(int lane) {
  for (;;) {
    if (try_run_one(lane)) continue;
    std::unique_lock<std::mutex> lk(wake_mu_);
    wake_cv_.wait(lk, [this] { return queued_chunks_ > 0 || stop_; });
    if (stop_ && queued_chunks_ == 0) return;
  }
}

void TaskPool::execute(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  W11_CHECK(!tl_in_task);  // nested calls take the inline path

  Batch batch;
  batch.body = body;

  // Chunk small enough that stealing can balance uneven bodies, large
  // enough that deque traffic stays off the critical path.
  const auto lanes = static_cast<std::size_t>(n_lanes_);
  const std::size_t grain = std::max<std::size_t>(1, n / (lanes * 4));
  const std::size_t n_chunks = (n + grain - 1) / grain;
  batch.remaining.store(n_chunks, std::memory_order_relaxed);

  // Round-robin the chunks across lanes, caller's lane (0) first.
  std::size_t lane_rr = 0;
  for (std::size_t begin = 0; begin < n; begin += grain) {
    const Chunk chunk{&batch, begin, std::min(begin + grain, n)};
    Lane& l = *lanes_[lane_rr];
    lane_rr = (lane_rr + 1) % lanes;
    std::lock_guard<std::mutex> lk(l.mu);
    l.deque.push_back(chunk);
  }
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    queued_chunks_ += n_chunks;
  }
  wake_cv_.notify_all();

  // Help until the queues hold nothing this thread can run, then sleep
  // until the in-flight chunks finish.
  while (batch.remaining.load(std::memory_order_acquire) > 0) {
    if (try_run_one(0)) continue;
    std::unique_lock<std::mutex> lk(done_mu_);
    done_cv_.wait(lk, [&batch] {
      return batch.remaining.load(std::memory_order_acquire) == 0;
    });
  }

  if (batch.err) std::rethrow_exception(batch.err);
}

}  // namespace w11::exec
