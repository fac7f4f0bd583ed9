#ifndef SESEMI_COMMON_PARALLEL_FOR_H_
#define SESEMI_COMMON_PARALLEL_FOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>

#include "common/executor.h"

namespace sesemi {

/// \file
/// Process-wide fork-join pool shared by every parallel consumer in the
/// system. Two entry points ride the same workers:
///
///  - ParallelFor: data parallelism (GEMM row panels, depthwise conv rows).
///  - TaskGroup:   request parallelism (ServerlessPlatform::InvokeAsync).
///
/// Sharing one pool is what lets crypto batches and GEMM panels from
/// *different* in-flight requests interleave instead of queueing behind each
/// other: a worker that finishes its chunk of one request's GEMM immediately
/// picks up another request's pending task or panel.
///
/// Any idle worker may help drain any job. The RT tier takes its cores by
/// pinning SCHED_FIFO lanes (common/rt_executor), not by capping this pool,
/// and its lanes run ParallelFor inline.

/// Number of workers ParallelFor can spread across (>= 1). Lazily starts the
/// process-wide pool on first use.
///
/// \threadsafety Safe to call from any thread.
int ParallelismDegree();

/// True when a ParallelFor issued on this thread right now would run inline
/// (the thread is already inside a ParallelFor chunk). Exposed for the
/// template below; also usable by callers sizing per-worker scratch.
bool InsideParallelForChunk();

/// Pool dispatch behind ParallelFor — call the template instead. The
/// std::function is only ever constructed around a reference to the caller's
/// callable (see ParallelFor), so dispatch itself performs no heap
/// allocation; the callable outlives the blocking call by construction.
void ParallelForDispatch(int64_t begin, int64_t end, int64_t grain,
                         const std::function<void(int64_t, int64_t)>& fn);

/// Partition [begin, end) into contiguous chunks of at least `grain`
/// iterations and run `fn(chunk_begin, chunk_end)` across the process-wide
/// thread pool, blocking until every chunk is done. The calling thread
/// participates, so ParallelFor never deadlocks on a single-core machine and
/// degrades to a plain loop when the range is smaller than `grain` or the
/// pool has one worker. Chunk starts are begin + i*grain, so chunk_begin
/// uniquely indexes a chunk (per-chunk scratch lanes rely on this).
///
/// Allocation-free on every path: the serial fast paths call `fn` directly,
/// and pool dispatch wraps `fn` by reference (no type-erasure copy), so the
/// steady-state inference path can promise zero per-request heap allocations.
///
/// \threadsafety Safe to call from any thread, including from inside a
/// TaskGroup task running on a pool worker (the caller then publishes a
/// chunked job that idle workers help drain) and from inside another
/// ParallelFor chunk (the nested call runs inline on the caller — chunk
/// bodies must never block on work that only the pool can make progress on).
/// The caller always drains its own job to completion itself, so a Run can
/// never wait on a worker that is in turn waiting on the caller.
///
/// `fn` must be safe to invoke concurrently on disjoint chunks.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  // Serial fast path: tiny ranges, single-core machines, nested calls (a
  // pool worker re-entering ParallelFor would deadlock waiting on itself),
  // and RT-tier threads — a pinned real-time lane must never fan work into
  // (or block on) the bulk pool it exists to bypass, so its ParallelFor is
  // single-threaded by contract (common/executor.h).
  if (InsideParallelForChunk() || end - begin <= grain ||
      ParallelismDegree() == 1 || CurrentExecTier() == ExecTier::kRealtime) {
    fn(begin, end);
    return;
  }
  ParallelForDispatch(begin, end, grain,
                      std::function<void(int64_t, int64_t)>(std::ref(fn)));
}

/// A group of fire-and-forget tasks executed on the process-wide pool.
/// This is the request-level counterpart to ParallelFor: each submitted task
/// is coarse (e.g. one serverless invocation), runs exactly once on some pool
/// worker, and may itself call ParallelFor — its data-parallel chunks then
/// interleave with other tasks on the remaining workers.
///
/// Scheduling: pool workers prefer ParallelFor chunks (fine-grained, latency
/// sensitive) over queued tasks, so a running request's GEMM panels are never
/// starved by newly admitted requests.
///
/// \threadsafety All methods are safe to call from any thread. Submit from
/// inside a pool-worker task is allowed (nested submission): the task is
/// queued like any other and executed by whichever worker — or Wait()ing
/// caller — gets to it first; a worker never blocks waiting for its own
/// nested task, so nesting cannot deadlock.
class TaskGroup {
 public:
  TaskGroup() = default;
  /// Blocks until every submitted task has finished (equivalent to Wait()).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Queue `task` for execution on the pool. On a single-threaded pool
  /// (ParallelismDegree() == 1) the task runs inline before Submit returns,
  /// so progress never depends on workers that do not exist.
  void Submit(std::function<void()> task);

  /// Block until every task submitted so far has completed. The calling
  /// thread helps by draining this group's queued-but-unstarted tasks itself,
  /// so Wait makes progress even when all workers are busy elsewhere.
  void Wait();

  /// Tasks submitted and not yet finished (racy snapshot; for metrics/tests).
  int pending() const;

 private:
  friend class ForkJoinPoolAccess;

  void OnTaskFinished();

  mutable std::mutex mutex_;
  std::condition_variable done_;
  int pending_ = 0;  ///< guarded by mutex_
};

}  // namespace sesemi

#endif  // SESEMI_COMMON_PARALLEL_FOR_H_
