// The immutable description of one serving request in a trace.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace aptserve {

struct Request {
  RequestId id = kInvalidRequestId;
  /// Number of prompt tokens (known to the scheduler on arrival).
  int32_t prompt_len = 0;
  /// Number of output tokens until EOS. Ground truth used by the simulator
  /// to decide when the request finishes; schedulers never read it (the
  /// paper stresses output lengths are unpredictable).
  int32_t output_len = 0;
  /// Arrival time in seconds from the start of the trace.
  TimePoint arrival = 0.0;
  /// Optional prompt token ids (exactly `prompt_len` entries when present).
  /// Prefix sharing matches on real token content, so traces that exercise
  /// it carry ids (the shared-prefix workload generator fills them; plain
  /// length-only traces leave this empty and backends synthesize
  /// deterministically — workload/token_ids.h).
  std::vector<int32_t> token_ids;
  /// Per-request SLO deadlines in seconds; negative inherits the run-level
  /// SloSpec. The fleet router's admission control evaluates requests
  /// against these, and metrics resolve them per record.
  double slo_ttft_s = -1.0;
  double slo_tbt_p99_s = -1.0;
  /// Admission control deprioritized this request: it is still served, but
  /// excluded from SLO attainment and goodput (best-effort traffic).
  bool best_effort = false;

  int32_t total_len() const { return prompt_len + output_len; }
  bool has_token_ids() const { return !token_ids.empty(); }
  bool has_own_slo() const { return slo_ttft_s >= 0 || slo_tbt_p99_s >= 0; }
};

/// Frees `r`'s token ids, capacity included. Only the execution backend
/// keeps a request's ids while it is live; the serving loop's request
/// state and the metrics records hold their copy of the Request without
/// them (DESIGN.md, "Who owns token ids").
inline void ReleaseTokenIds(Request* r) {
  std::vector<int32_t>().swap(r->token_ids);
}

}  // namespace aptserve
