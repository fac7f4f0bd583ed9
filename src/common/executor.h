#ifndef SESEMI_COMMON_EXECUTOR_H_
#define SESEMI_COMMON_EXECUTOR_H_

namespace sesemi {

/// \file
/// Execution tiers (docs/ARCHITECTURE.md "Execution tiers").
///
/// Two tiers share the machine:
///
///  - kBulk:     the process-wide fork-join pool (common/parallel_for). Whole
///               requests and their data-parallel GEMM panels interleave
///               freely; throughput-optimal, latency-indifferent.
///  - kRealtime: a small set of pinned, elevated-priority lanes
///               (common/rt_executor). One request per lane at a time;
///               nothing on a lane ever waits on bulk-pool progress.
///
/// The tier is a thread property: every worker thread carries a thread-local
/// ExecTier, and latency-sensitive primitives consult it. ParallelFor runs
/// inline (single-threaded) on a kRealtime thread, so an RT lane never fans
/// work back into the pool it exists to bypass — and never blocks on workers
/// that are busy with bulk batches.

enum class ExecTier : int {
  kBulk = 0,      ///< shared fork-join pool (the default for every thread)
  kRealtime = 1,  ///< dedicated pinned inference lane
};

/// The calling thread's execution tier (kBulk unless a ScopedExecTier or an
/// RT lane says otherwise).
ExecTier CurrentExecTier();

/// RAII tier override for the current thread; restores the previous tier on
/// destruction. RT lanes hold one for their whole lifetime; tests use it to
/// exercise the RT-inline ParallelFor path without real lanes.
class ScopedExecTier {
 public:
  explicit ScopedExecTier(ExecTier tier);
  ~ScopedExecTier();
  ScopedExecTier(const ScopedExecTier&) = delete;
  ScopedExecTier& operator=(const ScopedExecTier&) = delete;

 private:
  ExecTier saved_;
};

}  // namespace sesemi

#endif  // SESEMI_COMMON_EXECUTOR_H_
