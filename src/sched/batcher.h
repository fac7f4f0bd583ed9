#ifndef SESEMI_SCHED_BATCHER_H_
#define SESEMI_SCHED_BATCHER_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "sched/queue.h"

namespace sesemi::sched {

/// Same-model request coalescer. After the policy pops a head request, the
/// batcher pulls further queued requests for the *same function* that are
/// compatible — same model, same session (user), same priority class — up to
/// the function's `max_batch`, so the platform can run them as one multi-row
/// inference (one TCS slot, one enclave entry, one key/model/runtime setup,
/// batch-dim GEMM).
///
/// Compatibility is strict by construction: a batch never mixes models (the
/// enclave holds one loaded model) and never mixes sessions (the enclave
/// caches one ⟨uid,Moid⟩ key pair — batching across users would violate the
/// paper's single-pair key-cache isolation).
///
/// Lookahead is bounded (`kLookaheadFactor * max_batch` entries) so a
/// non-matching request parked at the front of the queue can only be
/// overtaken by a bounded amount of same-model traffic, keeping near-FIFO
/// order for the rest.
///
/// \threadsafety Stateless (the scheduler counts the batches it pops); safe
/// concurrently.
class SameModelBatcher {
 public:
  static constexpr int kLookaheadFactor = 4;

  /// Extend `head` (already popped from `queue`) with up to `max_batch - 1`
  /// compatible requests from the same function's deque, appending them to
  /// `batch` in arrival order. `head` itself is NOT appended (taken by value:
  /// callers typically keep the head inside `batch`, whose growth would
  /// invalidate a reference). Returns the number of extra requests coalesced.
  /// `max_batch <= 1` is a no-op.
  size_t Coalesce(FairQueue* queue, QueuedRequest head, int max_batch,
                  std::vector<QueuedRequest>* batch);

 private:
  static bool Compatible(const QueuedRequest& head, const QueuedRequest& other);
};

}  // namespace sesemi::sched

#endif  // SESEMI_SCHED_BATCHER_H_
