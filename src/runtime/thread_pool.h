// ThreadPool: the fork-join parallel-execution primitive of the runtime
// layer, a ParallelFor over an index range. Kernels (engine/ops), the
// engine's batch executor and the virtual-time fleet all run on it. The
// wall-clock fleet (serve/async_serving.h) steps each instance on its own
// thread instead, because the pool would serialize instances beyond its
// size; each such thread drives its own engine, whose intra-op parallelism
// still comes from this pool.
//
// Design points:
//   * The calling thread participates, so a pool of N threads spawns N-1
//     workers and ParallelFor never context-switches for small ranges.
//   * Nested ParallelFor calls from inside a chunk run inline on the
//     calling thread — intra-op parallelism composes with item-level
//     parallelism without deadlock or oversubscription.
//   * Exceptions thrown by the body are captured and the first one is
//     rethrown on the calling thread after the join; remaining chunks are
//     skipped (counted, not executed). The pool stays usable.
//   * RuntimeConfig::deterministic selects a static contiguous split
//     (reproducible thread→chunk mapping) versus dynamic chunk claiming
//     (better load balance for skewed iteration costs). Outputs are
//     bit-identical either way for independent iterations.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/runtime_config.h"

namespace aptserve {
namespace runtime {

class ThreadPool {
 public:
  explicit ThreadPool(const RuntimeConfig& config = RuntimeConfig{});
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants (workers + the calling thread); >= 1.
  int32_t num_threads() const { return num_threads_; }
  bool deterministic() const { return deterministic_; }

  /// Range body: invoked with a half-open sub-range [lo, hi) of the index
  /// space. Bodies loop over their sub-range themselves, so there is no
  /// per-index std::function dispatch on the hot path.
  using RangeBody = std::function<void(int64_t lo, int64_t hi)>;

  /// Runs `body` over [begin, end), split into chunks of at least `grain`
  /// indices, and blocks until every index has been covered. The calling
  /// thread participates. begin >= end is a no-op. Concurrent top-level
  /// calls from different threads are serialized (one job at a time);
  /// nested calls from inside a chunk run inline.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const RangeBody& body);

  /// Per-index convenience wrapper over ParallelFor.
  void ParallelForEach(int64_t begin, int64_t end, int64_t grain,
                       const std::function<void(int64_t)>& fn);

 private:
  struct Job {
    int64_t begin = 0;
    int64_t chunk = 1;          ///< indices per chunk
    int64_t num_chunks = 0;
    const RangeBody* body = nullptr;
    std::atomic<int64_t> next{0};        ///< dynamic claiming cursor
    std::atomic<int64_t> chunks_done{0};
    std::atomic<bool> aborted{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    bool is_static = true;
    int64_t end = 0;  ///< exclusive range end (last chunk may be short)
  };

  void WorkerLoop(int32_t worker_index);
  /// Executes the chunks assigned to `participant` (0 = caller).
  void RunChunks(Job* job, int32_t participant);
  void RunOneChunk(Job* job, int64_t chunk_index);

  int32_t num_threads_;
  bool deterministic_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Job* current_ = nullptr;
  uint64_t job_seq_ = 0;
  int32_t job_refs_ = 0;  ///< workers currently holding current_
  bool stop_ = false;

  /// Serializes top-level ParallelFor submissions.
  std::mutex submit_mutex_;
};

/// Helper for code taking an optional pool: runs `body` over [begin, end)
/// on `pool` when it is non-null and has workers, inline otherwise.
inline void ParallelFor(ThreadPool* pool, int64_t begin, int64_t end,
                        int64_t grain, const ThreadPool::RangeBody& body) {
  if (end <= begin) return;
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(begin, end, grain, body);
  } else {
    body(begin, end);
  }
}

}  // namespace runtime
}  // namespace aptserve
