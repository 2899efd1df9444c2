// parallel_for / parallel_map over a ThreadPool.
//
// Both helpers fall back to a plain serial loop when the pool is null or has
// a parallelism degree of 1, so `threads <= 1` configurations execute the
// exact single-threaded code path. In the parallel case the caller
// participates in the work, and while waiting for helpers it drains other
// queued pool tasks, which keeps nested parallel sections deadlock-free.
//
// Determinism contract: parallel_map writes result i of input i — results
// come back in input order no matter how indices were scheduled. Callers
// that merge per-item buffers by concatenating them in input order therefore
// produce output identical to a serial run, regardless of thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <type_traits>
#include <vector>

#include "runtime/thread_pool.h"

namespace rrr::runtime {
namespace detail {

struct ForState {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t helpers_pending = 0;
  std::exception_ptr error;
};

}  // namespace detail

// Runs fn(i) for every i in [0, n), blocking until all are done. Work is
// claimed in chunks of `grain` indices (0 = pick automatically). The first
// exception thrown by `fn` is rethrown on the calling thread after every
// in-flight index finished; remaining unclaimed work is skipped.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, Fn&& fn,
                  std::size_t grain = 0) {
  int threads = pool != nullptr ? pool->thread_count() : 1;
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (grain == 0) {
    // Aim for several chunks per thread so uneven items still balance.
    grain = n / (static_cast<std::size_t>(threads) * 8);
    if (grain == 0) grain = 1;
  }

  auto state = std::make_shared<detail::ForState>();
  auto work = [state, n, grain, &fn] {
    while (!state->failed.load(std::memory_order_relaxed)) {
      std::size_t begin = state->next.fetch_add(grain);
      if (begin >= n) break;
      std::size_t end = begin + grain < n ? begin + grain : n;
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mu);
          if (!state->error) state->error = std::current_exception();
          state->failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  };

  std::size_t chunks = (n + grain - 1) / grain;
  std::size_t helpers = static_cast<std::size_t>(threads) - 1;
  if (helpers > chunks - 1) helpers = chunks - 1;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->helpers_pending = helpers;
  }
  for (std::size_t h = 0; h < helpers; ++h) {
    pool->submit([state, work] {
      work();
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->helpers_pending == 0) state->done_cv.notify_all();
    });
  }

  work();  // the caller is a full participant

  // Wait for helpers, stealing other queued tasks meanwhile: a helper of
  // ours may sit behind tasks of a nested section that only finish if
  // someone runs them.
  std::unique_lock<std::mutex> lock(state->mu);
  while (state->helpers_pending > 0) {
    lock.unlock();
    bool ran = pool->run_one();
    lock.lock();
    if (!ran && state->helpers_pending > 0) {
      state->done_cv.wait_for(lock, std::chrono::milliseconds(1));
    }
  }
  // Take the exception out of the shared state while holding its lock: a
  // helper may still drop the last ForState reference after this, and the
  // exception must not be freed with it while the caller reads it.
  std::exception_ptr error = std::move(state->error);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

// Maps fn over `items`, returning results in input order (result i comes
// from item i). The result type must be default-constructible and movable.
template <typename T, typename Fn>
auto parallel_map(ThreadPool* pool, const std::vector<T>& items, Fn&& fn,
                  std::size_t grain = 0)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, const T&>>> {
  using Result = std::decay_t<std::invoke_result_t<Fn&, const T&>>;
  std::vector<Result> results(items.size());
  parallel_for(
      pool, items.size(), [&](std::size_t i) { results[i] = fn(items[i]); },
      grain);
  return results;
}

}  // namespace rrr::runtime
