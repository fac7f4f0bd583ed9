#include "common/parallel_for.h"

#include <atomic>
#include <deque>
#include <thread>
#include <utility>
#include <vector>

namespace sesemi {

/// Private bridge so the pool (file-local) can complete TaskGroup bookkeeping.
class ForkJoinPoolAccess {
 public:
  static void FinishTask(TaskGroup* group) { group->OnTaskFinished(); }
};

namespace {

// A minimal fork-join pool with two work sources sharing one worker set:
//
//  - one chunked ParallelFor job at a time, chunks handed out by an atomic
//    cursor (GEMM outer blocks are coarse, so the single-job model keeps the
//    dispatch path to one atomic fetch_add per chunk);
//  - a FIFO queue of TaskGroup tasks (whole serverless requests).
//
// Workers prefer job chunks over tasks: chunks are fine-grained pieces of an
// already-running computation whose owner is blocked in Run(), while tasks
// are whole requests that tolerate queueing. A task may itself call
// ParallelFor; the job it publishes is then drained by the remaining workers,
// which is how panels from different in-flight requests interleave.
//
// Job lifetime protocol: the Job lives on the caller's stack. Workers may
// only take a reservation (active++) under the pool mutex while job_ is
// non-null; the caller retires the job by clearing job_ under the same mutex
// and then waiting for active to reach zero, so no worker can touch a dead
// Job. The caller always drains its own job to completion, so Run never
// depends on workers existing.
class ForkJoinPool {
 public:
  static ForkJoinPool& Instance() {
    static ForkJoinPool* pool = new ForkJoinPool();  // leaked: lives for the process
    return *pool;
  }

  int degree() const { return static_cast<int>(workers_.size()) + 1; }

  void Run(int64_t begin, int64_t end, int64_t grain,
           const std::function<void(int64_t, int64_t)>& fn) {
    Job job;
    job.fn = &fn;
    job.next.store(begin, std::memory_order_relaxed);
    job.end = end;
    job.grain = grain;
    job.active.store(1, std::memory_order_relaxed);  // the caller's reservation
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      generation_++;
    }
    wake_.notify_all();

    DrainChunks(&job);  // the caller works too

    std::unique_lock<std::mutex> lock(mutex_);
    // No new reservations for this job from here on. A concurrent Run may
    // have already published its own job; only clear our own registration.
    if (job_ == &job) job_ = nullptr;
    if (job.active.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      done_.wait(lock,
                 [&] { return job.active.load(std::memory_order_acquire) == 0; });
    }
  }

  void Push(TaskGroup* group, std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tasks_.push_back(Task{group, std::move(fn)});
    }
    wake_.notify_one();
  }

  // Pop and run one queued task belonging to `group` on the calling thread.
  // Returns false when none of `group`'s tasks are queued (they may still be
  // running on workers).
  bool RunOneTaskOf(TaskGroup* group) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
      if (it->group != group) continue;
      Task task = std::move(*it);
      tasks_.erase(it);
      lock.unlock();
      task.fn();
      ForkJoinPoolAccess::FinishTask(task.group);
      return true;
    }
    return false;
  }

 private:
  struct Job {
    const std::function<void(int64_t, int64_t)>* fn;
    std::atomic<int64_t> next{0};
    int64_t end = 0;
    int64_t grain = 1;
    std::atomic<int> active{0};
  };

  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
  };

  ForkJoinPool() {
    const unsigned hw = std::thread::hardware_concurrency();
    const int extra = hw > 1 ? static_cast<int>(hw) - 1 : 0;
    workers_.reserve(extra);
    for (int i = 0; i < extra; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void DrainChunks(Job* job) {
    for (;;) {
      const int64_t start = job->next.fetch_add(job->grain, std::memory_order_relaxed);
      if (start >= job->end) break;
      const int64_t stop = std::min(start + job->grain, job->end);
      (*job->fn)(start, stop);
    }
  }

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  Job* job_ = nullptr;            ///< guarded by mutex_
  uint64_t generation_ = 0;       ///< guarded by mutex_
  std::deque<Task> tasks_;        ///< guarded by mutex_
  std::vector<std::thread> workers_;
};

thread_local bool t_inside_parallel_for = false;

void ForkJoinPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return generation_ != seen || !tasks_.empty(); });
    seen = generation_;
    Job* job = job_;
    // Skip registration when the job's cursor is already exhausted (its owner
    // just hasn't retired it yet) — otherwise a worker woken for a queued
    // task would spin on the no-op job instead of reaching the task branch.
    if (job != nullptr &&
        job->next.load(std::memory_order_relaxed) >= job->end) {
      job = nullptr;
    }
    if (job != nullptr) {
      job->active.fetch_add(1, std::memory_order_acq_rel);
      lock.unlock();
      // Chunk bodies run nested ParallelFor calls inline (same rule as the
      // calling side); tasks, by contrast, may fan out freely.
      t_inside_parallel_for = true;
      DrainChunks(job);
      t_inside_parallel_for = false;
      const bool last = job->active.fetch_sub(1, std::memory_order_acq_rel) == 1;
      lock.lock();
      if (last) done_.notify_all();
      continue;  // a new job or task may have arrived while we were busy
    }
    if (!tasks_.empty()) {
      Task task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      task.fn();
      ForkJoinPoolAccess::FinishTask(task.group);
      lock.lock();
    }
  }
}

}  // namespace

int ParallelismDegree() { return ForkJoinPool::Instance().degree(); }

bool InsideParallelForChunk() { return t_inside_parallel_for; }

void ParallelForDispatch(int64_t begin, int64_t end, int64_t grain,
                         const std::function<void(int64_t, int64_t)>& fn) {
  // Serial short-circuits already ran in the ParallelFor template.
  t_inside_parallel_for = true;
  ForkJoinPool::Instance().Run(begin, end, grain, fn);
  t_inside_parallel_for = false;
}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_++;
  }
  if (ForkJoinPool::Instance().degree() == 1) {
    // No workers exist: run inline so completion never depends on them.
    task();
    OnTaskFinished();
    return;
  }
  ForkJoinPool::Instance().Push(this, std::move(task));
}

void TaskGroup::Wait() {
  while (ForkJoinPool::Instance().RunOneTaskOf(this)) {
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [&] { return pending_ == 0; });
}

int TaskGroup::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_;
}

void TaskGroup::OnTaskFinished() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (--pending_ == 0) done_.notify_all();
}

}  // namespace sesemi
