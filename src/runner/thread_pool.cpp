#include "runner/thread_pool.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rlslb::runner {

int ThreadPool::resolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(int numThreads) {
  const int total = resolveThreadCount(numThreads);
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int t = 0; t + 1 < total; ++t) {
    // Workers own obs trace tracks 1..N for life (track 0 is the calling
    // thread); with tracing compiled out setCurrentTrack is a no-op stub.
    workers_.emplace_back([this, t] {
      obs::setCurrentTrack(t + 1);
      workerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  workCv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::workerLoop() {
  std::uint64_t seenGeneration = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      workCv_.wait(lock, [&] { return stop_ || generation_ != seenGeneration; });
      if (stop_) return;
      seenGeneration = generation_;
    }
    runChunks();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--activeWorkers_ == 0) doneCv_.notify_all();
    }
  }
}

void ThreadPool::runChunks() {
  // One span per thread participation when a writer is attached. Workers
  // that wake to an already-drained job record a near-zero span -- that
  // is the honest wake-up cost, not noise to hide.
  obs::TraceWriter* const tw = traceWriter_;
  if (tw == nullptr) {
    claimChunks();
    return;
  }
  const double begin = obs::nowUs();
  claimChunks();
  tw->complete("parallelFor", "job", begin, obs::nowUs());
}

void ThreadPool::claimChunks() {
  for (;;) {
    if (abort_.load(std::memory_order_relaxed)) return;
    if (token_ != nullptr && token_->cancelled()) return;
    const std::int64_t start = next_.fetch_add(chunk_, std::memory_order_relaxed);
    if (start >= count_) return;
    const std::int64_t end = std::min(start + chunk_, count_);
    try {
      for (std::int64_t i = start; i < end; ++i) {
        if (abort_.load(std::memory_order_relaxed)) return;
        if (token_ != nullptr && token_->cancelled()) return;
        (*body_)(i);
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (!error_) error_ = std::current_exception();
      }
      abort_.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::parallelFor(std::int64_t count, const std::function<void(std::int64_t)>& body,
                             CancellationToken* token) {
  RLSLB_ASSERT(count >= 0);
  if (count == 0) return;

  if (workers_.empty()) {
    // Serial path: run inline so exceptions propagate directly and callers
    // with thread-unsafe bodies see no concurrency at all. Traced the
    // same way as a worker participation (null writer = no-op).
    const obs::Span span(traceWriter_, "parallelFor", "job");
    for (std::int64_t i = 0; i < count; ++i) {
      if (token != nullptr && token->cancelled()) return;
      body(i);
    }
    return;
  }

  // Documented non-nestable contract: a nested or concurrent parallelFor
  // on the same pool would corrupt the single job slot and deadlock
  // silently. RLSLB_ASSERT is active in every build type, so the guard must
  // not hide behind NDEBUG: a Release build deadlocking where a Debug build
  // aborts is the worst possible split. One uncontended atomic exchange per
  // *job* (not per index) is noise next to the dispatch handshake.
  RLSLB_ASSERT_MSG(!jobInFlight_.exchange(true, std::memory_order_acq_rel),
                   "ThreadPool::parallelFor is not reentrant: a body called back into "
                   "parallelFor on the same pool (or a second thread dispatched "
                   "concurrently). Use a separate pool, or restructure to a single "
                   "flat parallelFor (see runner/thread_pool.hpp).");

  // Aim for ~8 chunks per thread so the dynamic distribution absorbs
  // replication-cost skew without contending on next_ per index.
  const auto threads = static_cast<std::int64_t>(size());
  count_ = count;
  chunk_ = std::max<std::int64_t>(1, count / (threads * 8));
  body_ = &body;
  token_ = token;
  next_.store(0, std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  error_ = nullptr;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    activeWorkers_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  workCv_.notify_all();

  runChunks();  // the calling thread participates

  {
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [&] { return activeWorkers_ == 0; });
  }

  body_ = nullptr;
  token_ = nullptr;
  jobInFlight_.store(false, std::memory_order_release);
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;  // leave the pool reusable after a throw
    std::rethrow_exception(error);
  }
}

}  // namespace rlslb::runner
