// What FleetController::Run (virtual time) and RunAsync (wall clock,
// async_serving.cc) share: instance set-up, arrival routing and result
// assembly. Internal to serve/, not part of the public API.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace_recorder.h"
#include "runtime/clock.h"
#include "serve/fleet_controller.h"

namespace aptserve::fleet_internal {

/// One instance's serving stack: its own scheduler, backend and loop.
struct InstanceStack {
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<ExecutionBackend> backend;
  std::unique_ptr<ServingLoopState> loop;
};

/// Builds instance `id` from the factories, hands its loop the fleet's
/// observability (a per-instance trace sink, the registry) and starts it.
Status StartInstance(const FleetConfig& config, int32_t id,
                     const SchedulerFactory& make_scheduler,
                     const BackendFactory& make_backend, const SloSpec& slo,
                     InstanceStack* out);

/// Live arrival routing against the fleet's routable instances: the flat
/// Router::RouteOne, or (cells.num_cells > 1) the consistent-hash CellRouter
/// front tier followed by RouteOneLive over the chosen cell's members.
/// Requests are fed in arrival order and every decision reads only the
/// trace and the live set, so both modes route a trace identically.
class ArrivalRouting {
 public:
  /// `capacity`: instance ids the router state addresses up front (it grows
  /// with AddInstance). `clock` (optional) stamps router-track trace events
  /// in wall time; null stamps them with each request's arrival.
  ArrivalRouting(const Router& router, const FleetConfig& config,
                 int32_t capacity, const runtime::Clock* clock);
  ArrivalRouting(const ArrivalRouting&) = delete;
  ArrivalRouting& operator=(const ArrivalRouting&) = delete;

  /// Registers the next instance id in the least-populated cell (ties to
  /// the lowest cell id: the initial fleet round-robins across cells).
  void AddInstance();
  /// Removes retired instance `id` from its cell's population.
  void RetireInstance(int32_t id) { --alive_per_cell_[instance_cell_[id]]; }
  const std::vector<int32_t>& instance_cell() const { return instance_cell_; }

  /// Sets the routable instances (live[id] != 0) until the next call.
  void SetLive(const std::vector<uint8_t>& live);

  /// Routes `req` (trace position `index`). Returns the instance, with
  /// `*routed` a copy of `req` carrying the admission verdict, or
  /// RouteDecision::kRejected.
  int32_t Route(const Request& req, size_t index, Request* routed);

  int64_t rejected() const { return rejected_; }
  int64_t deprioritized() const { return deprioritized_; }
  /// Decision-cost counters, the cell tier's folded into the cell_* fields.
  RouteCostStats CostStats() const;

 private:
  const Router& router_;
  RouterState state_;
  const bool hierarchical_;
  CellRouter cells_;
  std::vector<obs::TraceSink> cell_trace_;
  std::vector<int32_t> instance_cell_;
  std::vector<int32_t> alive_per_cell_;
  std::vector<uint8_t> live_mask_;
  std::vector<std::vector<int32_t>> cell_live_ids_;
  int64_t rejected_ = 0;
  int64_t deprioritized_ = 0;
};

/// Finishes every loop that saw a request (an idle instance reports all
/// zeros) and assembles the fleet result: per-instance and summed prefill
/// and prefix accounting, the merged report with rejections folded in, and
/// the routing cost. Exports the aptserve_router_* / aptserve_cell_*
/// counters to `metrics` when set; `wall` (optional) merges each instance's
/// wall-clock metrics.
StatusOr<MultiInstanceResult> AssembleResult(
    const std::vector<ServingLoopState*>& loops, const ArrivalRouting& routing,
    obs::MetricsRegistry* metrics, WallClockMetrics* wall = nullptr);

}  // namespace aptserve::fleet_internal
