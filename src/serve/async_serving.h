// Wall-clock serving: FleetController::RunAsync.
//
// RunAsync is the virtual-time fleet loop (serve/fleet_controller.h) run
// against a runtime::MonotonicClock instead of the virtual clock. Windows,
// routing and controller ticks are the same code in both modes; only the
// stepping between two window barriers differs. In wall mode each live
// instance steps its own ServingLoopState on its own thread for the
// window: it injects each routed request once the wall clock passes the
// request's release instant (arrival / replay_speedup), syncs the loop's
// virtual clock to wall × replay_speedup before every Step, and sleeps while
// it is drained and its next release has not come. The threads join at the
// window barrier, where the controller tick (warmups, scaling votes, the
// migration planner, retirements) runs exactly as in Run. A static fleet is
// one infinite window, so it has no barrier: every instance serves
// continuously until the trace drains.
//
// Determinism contract (see DESIGN.md "Async serving"): the virtual-time
// mode stays the pinned bit-for-bit reference; the wall mode guarantees
// *token-stream identity* — every request's generated token sequence is
// bit-identical to the virtual run of the same trace — while its timing
// (and therefore batch composition) is real and nondeterministic. This
// holds because (a) per-position logits are a pure function of the
// request's own tokens, (b) sampling is counter-based per (seed, request,
// position) with no shared RNG stream, and (c) routing reads only the trace
// and the live set, so a static fleet (cells included) routes exactly as
// the virtual run does. On an elastic fleet the scaling votes and the
// planner's moves depend on wall timing, so a request may be served by
// another instance than in the virtual run: instances must share weights,
// and the trace must carry its token ids (EnsureTokenIds), because
// InferenceBackend's length-only prompt stream follows each instance's
// registration order.
//
// Wall-clock TTFT/TBT are measured for real against the monotonic clock,
// threaded through the serving loops' wall seam. The clock starts once the
// initial fleet is built and started, so instance set-up counts toward
// neither latency nor the wall-time valve. The result carries log-bucketed
// latency histograms (p50/p95/p99) and sustained-throughput readouts next
// to the usual virtual-frame report and the fleet metrics (planner
// migrations, scale events).
//
// Observability comes from FleetConfig::trace / FleetConfig::metrics, as in
// the virtual mode: instances emit lifecycle events on their own tracks in
// the wall frame, router-track events are stamped with each request's
// release instant, and controller-track scale events with the instant
// their tick was due.
#pragma once

#include "serve/fleet_controller.h"
#include "sim/metrics.h"

namespace aptserve {

struct AsyncServingConfig {
  /// Trace replay acceleration: a request with virtual arrival t is
  /// released at wall time t / replay_speedup after the clock starts, and
  /// a window ending at trace time T ends at wall time T / replay_speedup.
  /// 1.0 replays in real time; large values stress continuous batching.
  /// Must be finite and > 0.
  double replay_speedup = 1.0;
  /// Safety valve: fail when the run exceeds this much wall time. Must be
  /// finite and > 0.
  double max_wall_seconds = 300.0;
};

struct AsyncServingResult : FleetResult {
  /// Real-time latency/throughput readout (release to token, measured
  /// against the monotonic clock; per-request history survives planner
  /// migrations).
  WallLatencyReport wall;
  /// Wall seconds from the clock's start (after instance set-up) to full
  /// drain.
  double wall_duration_s = 0.0;
};

}  // namespace aptserve
