// Mutable per-request state tracked by the serving simulator.
#pragma once

#include "cache/cache_types.h"
#include "common/types.h"
#include "workload/request.h"

namespace aptserve {

enum class RequestPhase {
  kWaiting,  ///< no cache on GPU: either never prefilled, or preempted.
  kRunning,  ///< in decode phase with cache resident.
  kFinished,
};

struct SimRequest {
  /// The request's description. The serving loop's copy holds no token
  /// ids: the loop passes them to the backend's Prepare/Admit, and from
  /// then on the backend is their only owner on the instance.
  Request spec;
  RequestPhase phase = RequestPhase::kWaiting;
  /// Cache type currently held (running) or to be used at the next prefill
  /// (waiting). Conversions set this before requeueing (paper §5).
  CacheType cache_type = CacheType::kKV;
  /// Output tokens produced so far.
  int32_t generated = 0;
  /// Cached token positions currently resident.
  int32_t cached_tokens = 0;
  /// Tokens of the current (possibly chunked) prefill pass already
  /// processed; reset on preemption.
  int32_t prefill_progress = 0;
  bool has_first_token = false;
  /// Timestamp of the most recent emitted token.
  TimePoint last_token_time = 0.0;
  int32_t preemptions = 0;
  int32_t conversions = 0;
  /// True when the request is waiting with its cache swapped out to host
  /// memory (swap-based preemption); scheduling it for "prefill" performs a
  /// swap-in instead of a recompute.
  bool swapped = false;

  /// Tokens the request's next decode step attends over (prompt plus all
  /// generated tokens; the latest token is processed, earlier ones cached).
  int32_t context_len() const { return spec.prompt_len + generated; }

  /// Cache positions a (re-)prefill must cover: the prompt plus any tokens
  /// generated before preemption (paper footnote 2).
  int32_t PrefillTarget() const { return spec.prompt_len + generated; }

  bool IsFinished() const { return generated >= spec.output_len; }

  /// The paper's pending time p_i (§4.2): time since arrival if no token
  /// was ever produced, else time since the last emitted token.
  Duration PendingTime(TimePoint now) const {
    return has_first_token ? now - last_token_time : now - spec.arrival;
  }
};

}  // namespace aptserve
