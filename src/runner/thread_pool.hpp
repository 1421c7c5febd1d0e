// Fixed-size thread pool with chunked work distribution, used by the
// replication harness (replication.hpp) and the ensemble layer
// (sim/ensemble.hpp) to fan replications out across cores. The scenario
// layer creates ONE pool per process (ScenarioContext::pool()) and reuses
// it across every scenario of a driver run, so worker threads are spawned
// once per `rlslb all`, not once per experiment.
//
// Design constraints, in order:
//   - Determinism stays upstream: the pool hands out *index ranges*, never
//     results, so callers that write index i's output into slot i get
//     bit-identical results for any pool size (the streamSeed contract).
//   - No locks on the hot path: workers claim chunks with one relaxed
//     fetch_add; synchronization happens only at job start/end.
//   - Failures surface exactly once: the first exception thrown by any
//     chunk is captured, remaining chunks are cancelled, and the exception
//     is rethrown on the calling thread after all workers have quiesced.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace rlslb::runner {

/// Cooperative cancellation flag. Pass one to parallelFor to stop handing
/// out work early (already-started indices still finish); the pool also
/// cancels internally when a body throws.
class CancellationToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Reusable fixed-size pool. `size()` counts the calling thread, so
/// ThreadPool(1) spawns no workers and parallelFor runs inline -- callers
/// with thread-unsafe state (or under TSan bisection) get the serial path
/// by construction.
class ThreadPool {
 public:
  /// numThreads <= 0 means hardware concurrency.
  explicit ThreadPool(int numThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency of parallelFor, including the calling thread.
  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run body(i) for every i in [0, count), distributing contiguous chunks
  /// across the workers and the calling thread. Blocks until all claimed
  /// work has finished. If any body throws, the first exception is
  /// rethrown here (exactly one, regardless of how many bodies threw) and
  /// unclaimed work is dropped.
  ///
  /// NOT reentrant and NOT concurrently callable: the pool has a single
  /// job slot, so a body that calls back into parallelFor on the same pool
  /// (nested parallelism), or a second thread dispatching while a job is
  /// in flight, would corrupt the slot and deadlock. Every build type
  /// detects both and aborts with a diagnostic instead — RLSLB_ASSERT does
  /// not compile away in Release, so a misuse that would deadlock a
  /// production binary fails loudly there too (see the ROADMAP note: a
  /// workload that wants nested parallelism needs a work-stealing or
  /// task-graph layer, not nested pools). The inline serial path of a
  /// 1-thread pool has no job slot and therefore no such hazard; it is
  /// exempt from the check.
  void parallelFor(std::int64_t count, const std::function<void(std::int64_t)>& body,
                   CancellationToken* token = nullptr);

  /// 0 (or negative) -> hardware concurrency, never less than 1.
  static int resolveThreadCount(int requested);

  /// Attach a trace writer: every subsequent parallelFor records one span
  /// per participating thread on that thread's track (workers own tracks
  /// 1..N; the calling thread records on its own current track). nullptr
  /// detaches. Costs one pointer test per *job* when detached; with
  /// tracing compiled out (RLSLB_TRACING=0) the recording calls are
  /// no-op stubs. Set from the dispatching thread only, between jobs.
  void setTraceWriter(obs::TraceWriter* writer) { traceWriter_ = writer; }
  [[nodiscard]] obs::TraceWriter* traceWriter() const { return traceWriter_; }

 private:
  void workerLoop();
  void runChunks();    // claimChunks + optional per-participation span
  void claimChunks();  // the chunk-claiming loop proper

  std::vector<std::thread> workers_;

  // Job slot, valid while a parallelFor is in flight. Plain fields are
  // published to workers via the generation bump under mutex_.
  std::int64_t count_ = 0;
  std::int64_t chunk_ = 1;
  const std::function<void(std::int64_t)>* body_ = nullptr;
  CancellationToken* token_ = nullptr;
  std::atomic<std::int64_t> next_{0};
  std::atomic<bool> abort_{false};
  std::atomic<bool> jobInFlight_{false};  // reentrancy/concurrent-call detector
  std::exception_ptr error_;
  std::mutex errorMutex_;

  // Published to workers with the job slot (generation bump under mutex_).
  obs::TraceWriter* traceWriter_ = nullptr;

  std::mutex mutex_;
  std::condition_variable workCv_;
  std::condition_variable doneCv_;
  std::uint64_t generation_ = 0;
  int activeWorkers_ = 0;
  bool stop_ = false;
};

}  // namespace rlslb::runner
