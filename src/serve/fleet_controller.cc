#include "serve/fleet_controller.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "obs/trace_recorder.h"
#include "runtime/clock.h"
#include "runtime/thread_pool.h"
#include "serve/async_serving.h"

namespace aptserve {

namespace {

/// Longest a wall-clock instance thread sleeps before re-reading the clock
/// for its next release instant, the window end or the wall-time valve.
constexpr double kMaxNapSeconds = 0.001;

/// Sleeps toward wall instant `until` on `clock`, at most kMaxNapSeconds.
void NapToward(const runtime::Clock& clock, double until) {
  const double lag = std::min(until - clock.Now(), kMaxNapSeconds);
  if (lag > 0) std::this_thread::sleep_for(std::chrono::duration<double>(lag));
}

/// Live arrival routing against the fleet's routable instances: the flat
/// Router::RouteOne, or (cells.num_cells > 1) the consistent-hash CellRouter
/// front tier followed by RouteOneLive over the chosen cell's members.
/// Requests are fed in arrival order and every decision reads only the
/// trace and the live set, so both clocks route a trace identically.
class ArrivalRouting {
 public:
  /// `capacity`: instance ids the router state addresses up front (it grows
  /// with AddInstance). Router- and cell-track trace events are stamped at
  /// arrival / `replay_speedup`: the release instant on the wall clock.
  ArrivalRouting(const Router& router, const FleetConfig& config,
                 int32_t capacity, double replay_speedup);
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
  const double replay_speedup_;
  CellRouter cells_;
  std::vector<obs::TraceSink> cell_trace_;
  std::vector<int32_t> instance_cell_;
  std::vector<int32_t> alive_per_cell_;
  std::vector<uint8_t> live_mask_;
  std::vector<std::vector<int32_t>> cell_live_ids_;
  int64_t rejected_ = 0;
  int64_t deprioritized_ = 0;
};

ArrivalRouting::ArrivalRouting(const Router& router, const FleetConfig& config,
                               int32_t capacity, double replay_speedup)
    : router_(router),
      state_(router.MakeState(capacity)),
      hierarchical_(config.cells.num_cells > 1),
      replay_speedup_(replay_speedup),
      cells_(config.cells, router.config().block_size),
      alive_per_cell_(config.cells.num_cells, 0),
      cell_live_ids_(config.cells.num_cells) {
  // Observability is opt-in and purely observational: without a recorder
  // no sink exists and every routing hook is a no-op.
  if (config.trace == nullptr) return;
  router_.AttachTrace(&state_, config.trace->MakeSink(obs::kRouterTrack),
                      replay_speedup);
  if (hierarchical_) {
    for (int32_t c = 0; c < config.cells.num_cells; ++c) {
      cell_trace_.push_back(config.trace->MakeSink(obs::kCellTrackBase - c));
    }
  }
}

void ArrivalRouting::AddInstance() {
  int32_t cell = 0;
  for (int32_t c = 1; c < static_cast<int32_t>(alive_per_cell_.size()); ++c) {
    if (alive_per_cell_[c] < alive_per_cell_[cell]) cell = c;
  }
  instance_cell_.push_back(cell);
  ++alive_per_cell_[cell];
  // Ids are lifetime-unique (a retired id is never reused), so over many
  // scale cycles the id space outgrows the alive ceiling; the router state
  // grows with it.
  router_.GrowState(&state_, static_cast<int32_t>(instance_cell_.size()));
}

void ArrivalRouting::SetLive(const std::vector<uint8_t>& live) {
  live_mask_.assign(state_.capacity(), 0);
  std::copy(live.begin(), live.end(), live_mask_.begin());
  if (!hierarchical_) return;
  // Per-cell live member lists (constant until the next SetLive, like the
  // mask): RouteOneLive scans only the chosen cell's members, which is what
  // keeps the per-decision cost independent of fleet width.
  for (auto& ids : cell_live_ids_) ids.clear();
  for (size_t i = 0; i < live.size(); ++i) {
    if (live[i]) {
      cell_live_ids_[instance_cell_[i]].push_back(static_cast<int32_t>(i));
    }
  }
  for (size_t c = 0; c < cell_live_ids_.size(); ++c) {
    cells_.SetLive(static_cast<int32_t>(c), !cell_live_ids_[c].empty());
  }
}

int32_t ArrivalRouting::Route(const Request& req, size_t index,
                              Request* routed) {
  bool best_effort = false;
  int32_t cell = 0;
  int32_t inst;
  if (hierarchical_) {
    cell = cells_.RouteOne(req, req.arrival);
    inst = router_.RouteOneLive(req, index, cell_live_ids_[cell], &state_,
                                &best_effort);
  } else {
    inst = router_.RouteOne(req, index, live_mask_, &state_, &best_effort);
  }
  if (inst == RouteDecision::kRejected) {
    ++rejected_;
    return inst;
  }
  if (hierarchical_) {
    if (!cell_trace_.empty()) {
      // Pre-commit, so the span/score read the wait this request actually
      // saw, not one inflated by its own service time.
      const double wait = cells_.Outstanding(cell, req.arrival);
      const double ts = req.arrival / replay_speedup_;
      cell_trace_[cell].Span(obs::TraceOp::kQueueWait, ts,
                             wait / replay_speedup_, req.id,
                             static_cast<double>(inst));
      cell_trace_[cell].Instant(obs::TraceOp::kRouteDecision, ts, req.id,
                                static_cast<double>(inst), wait,
                                static_cast<double>(cell));
    }
    cells_.Commit(cell, req.arrival, router_.EstimatedServiceSeconds(req),
                  static_cast<int32_t>(cell_live_ids_[cell].size()));
  }
  *routed = req;
  if (best_effort) {
    routed->best_effort = true;
    ++deprioritized_;
  }
  return inst;
}

RouteCostStats ArrivalRouting::CostStats() const {
  RouteCostStats out = state_.cost_stats();
  if (hierarchical_) {
    const CellRouteStats& cs = cells_.stats();
    out.cell_probes += cs.cell_probes;
    out.cell_hash_routed += cs.hash_routed;
    out.cell_fallback_routed += cs.fallback_routed;
  }
  return out;
}

/// Finishes every loop that saw a request (an idle instance reports all
/// zeros) and assembles the fleet result: per-instance and summed prefill
/// and prefix accounting, the merged report with rejections folded in, and
/// the routing cost. Exports the aptserve_router_* / aptserve_cell_*
/// counters to `metrics` when set, and merges each instance's wall-clock
/// metrics into `wall`.
StatusOr<MultiInstanceResult> AssembleResult(
    const std::vector<ServingLoopState*>& loops, const ArrivalRouting& routing,
    obs::MetricsRegistry* metrics, WallClockMetrics* wall) {
  const size_t n = loops.size();
  MultiInstanceResult result;
  result.per_instance.resize(n);
  result.requests_per_instance.assign(n, 0);
  result.prefill_computed_per_instance.assign(n, 0);
  result.prefill_skipped_per_instance.assign(n, 0);
  result.prefix_per_instance.resize(n);
  result.rejected_requests = routing.rejected();
  result.deprioritized_requests = routing.deprioritized();
  for (size_t i = 0; i < n; ++i) {
    if (loops[i]->NumRegistered() == 0) continue;
    APT_ASSIGN_OR_RETURN(const ServingLoopResult r, loops[i]->Finish());
    result.per_instance[i] = r.report;
    result.requests_per_instance[i] = static_cast<int32_t>(r.records.size());
    result.prefill_computed_per_instance[i] = r.prefill_tokens_computed;
    result.prefill_skipped_per_instance[i] = r.prefill_tokens_skipped;
    result.prefix_per_instance[i] = r.prefix;
    result.prefill_tokens_computed += r.prefill_tokens_computed;
    result.prefill_tokens_skipped += r.prefill_tokens_skipped;
    result.tokens_generated += r.tokens_generated;
    result.prefix += r.prefix;
    wall->Merge(r.wall_metrics);
  }
  result.combined =
      MergeReports(result.per_instance, result.requests_per_instance);
  FoldRejectedIntoReport(result.rejected_requests, &result.combined);
  result.route_cost = routing.CostStats();

  if (metrics != nullptr) {
    obs::MetricsRegistry& reg = *metrics;
    const RouteCostStats& rc = result.route_cost;
    reg.GetCounter("aptserve_router_decisions_total")->Inc(rc.decisions);
    reg.GetCounter("aptserve_router_instance_probes_total")
        ->Inc(rc.instance_probes);
    reg.GetCounter("aptserve_router_mirror_nodes_walked_total")
        ->Inc(rc.mirror_nodes_walked);
    reg.GetCounter("aptserve_router_mirror_evictions_total")
        ->Inc(rc.mirror_evictions);
    reg.GetGauge("aptserve_router_mirror_nodes")
        ->Set(static_cast<double>(rc.mirror_nodes));
    reg.GetGauge("aptserve_router_mirror_node_peak")
        ->Set(static_cast<double>(rc.mirror_node_peak));
    reg.GetCounter("aptserve_cell_probes_total")->Inc(rc.cell_probes);
    reg.GetCounter("aptserve_cell_hash_routed_total")
        ->Inc(rc.cell_hash_routed);
    reg.GetCounter("aptserve_cell_fallback_routed_total")
        ->Inc(rc.cell_fallback_routed);
  }
  return result;
}

/// One serving instance of the fleet: its own scheduler, backend and loop.
struct Instance {
  enum class State { kWarming, kLive, kDraining, kRetired };
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<ExecutionBackend> backend;
  std::unique_ptr<ServingLoopState> loop;
  State state = State::kLive;
  int32_t id = 0;
  double add_time = 0.0;
  double live_at = 0.0;
  double retire_time = -1.0;
  Status status = Status::OK();
  /// Wall clock only: this window's routed requests, injected at their
  /// release instants by the instance's own thread.
  std::vector<Request> inbox;

  bool Alive() const { return state != State::kRetired; }
  bool Routable() const { return state == State::kLive; }
};

Status IterationCapError(const ServingLoopState& loop) {
  return Status::Internal("serving loop hit the iteration cap with " +
                          std::to_string(loop.NumUnfinished()) +
                          " unfinished requests");
}

}  // namespace

FleetController::FleetController(const FleetConfig& config,
                                 const CostModel* cost_model,
                                 const OutputLengthPredictor* predictor)
    : config_(config), router_(config.router, cost_model, predictor) {
  APT_CHECK(router_.config().n_instances >= 1);
  APT_CHECK(config_.min_instances >= 1);
  APT_CHECK(config_.cells.num_cells >= 1);
  APT_CHECK_MSG(config_.cells.num_cells == 1 ||
                    router_.config().n_instances >= config_.cells.num_cells,
                "a hierarchical fleet needs at least one instance per cell");
  APT_CHECK(config_.tick_interval_s > 0.0);
  APT_CHECK(config_.instance_warmup_s >= 0.0);
  APT_CHECK(config_.scale_up_cooldown_s >= 0.0);
  APT_CHECK(config_.scale_down_cooldown_s >= 0.0);
}

StatusOr<FleetResult> FleetController::Run(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo) {
  APT_ASSIGN_OR_RETURN(AsyncServingResult r,
                       Serve(trace, make_scheduler, make_backend, slo,
                             /*async=*/nullptr));
  return FleetResult(std::move(r));
}

StatusOr<AsyncServingResult> FleetController::RunAsync(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo,
    const AsyncServingConfig& async) {
  const auto positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!positive(async.replay_speedup) || !positive(async.max_wall_seconds)) {
    return Status::InvalidArgument(
        "wall-clock serving needs a finite, positive replay_speedup and "
        "max_wall_seconds");
  }
  return Serve(trace, make_scheduler, make_backend, slo, &async);
}

StatusOr<AsyncServingResult> FleetController::Serve(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo,
    const AsyncServingConfig* async) {
  const bool elastic = config_.IsElastic();
  const int32_t initial_n = router_.config().n_instances;
  const int32_t max_n = elastic ? config_.MaxInstances() : initial_n;
  // Wall clock: trace time runs at `speedup` × wall time. The clock starts
  // once the initial fleet is built, so set-up is not serving time.
  const bool wall = async != nullptr;
  const double speedup = wall ? async->replay_speedup : 1.0;
  std::optional<runtime::MonotonicClock> clock;

  AsyncServingResult out;
  FleetMetrics& fm = out.fleet;
  std::vector<std::unique_ptr<Instance>> fleet;
  fleet.reserve(max_n);

  // Observability is opt-in and purely observational: with config_.trace /
  // config_.metrics null every hook below is a no-op and the run is
  // bit-identical to an uninstrumented build.
  obs::TraceSink ctl_trace;
  if (config_.trace != nullptr) {
    ctl_trace = config_.trace->MakeSink(obs::kControllerTrack);
  }
  // Hierarchical (fleet-of-fleets) topology: the consistent-hash front
  // tier picks a cell, the configured policy routes within it. num_cells
  // == 1 takes the flat path untouched (bit-identical to pre-cell runs).
  ArrivalRouting routing(router_, config_, max_n, speedup);
  const std::vector<int32_t>& instance_cell = routing.instance_cell();
  fm.num_cells = config_.cells.num_cells;

  // Scale events carry trace time; their trace marks are stamped in the
  // run's clock frame (t / speedup: the instant the tick was due).
  const auto record_event = [&](double t, int32_t id,
                                FleetScaleEvent::Kind kind) {
    fm.scale_events.push_back(FleetScaleEvent{t, id, kind});
    if (ctl_trace) {
      ctl_trace.Instant(obs::TraceOp::kScale, t / speedup, id,
                        static_cast<double>(static_cast<int>(kind)));
    }
  };

  // Spawns instance fleet.size() at virtual time `t` in the least-populated
  // cell (later spawns refill whichever cell lost an instance). A cold
  // spawn only becomes routable after the warmup latency elapses; the
  // initial fleet is born warm (it existed before the trace started).
  const auto spawn = [&](double t, bool cold) -> Status {
    const int32_t id = static_cast<int32_t>(fleet.size());
    auto inst = std::make_unique<Instance>();
    inst->id = id;
    routing.AddInstance();
    inst->scheduler = make_scheduler();
    APT_ASSIGN_OR_RETURN(inst->backend, make_backend(id));
    inst->loop = std::make_unique<ServingLoopState>(inst->backend.get(),
                                                    config_.loop);
    if (config_.trace != nullptr || config_.metrics != nullptr) {
      inst->loop->AttachObservability(config_.trace != nullptr
                                          ? config_.trace->MakeSink(id)
                                          : obs::TraceSink(),
                                      config_.metrics, id);
    }
    APT_RETURN_NOT_OK(inst->loop->Start({}, inst->scheduler.get(), slo));
    if (clock) inst->loop->AttachWallClock(&*clock);
    inst->add_time = t;
    inst->live_at = cold ? t + config_.instance_warmup_s : t;
    inst->state = cold ? Instance::State::kWarming : Instance::State::kLive;
    record_event(t, id, FleetScaleEvent::Kind::kAdd);
    if (cold) {
      ++fm.cold_starts;
    } else {
      record_event(t, id, FleetScaleEvent::Kind::kLive);
    }
    fleet.push_back(std::move(inst));
    return Status::OK();
  };

  for (int32_t i = 0; i < initial_n; ++i) {
    APT_RETURN_NOT_OK(spawn(0.0, /*cold=*/false));
  }
  if (wall) {
    clock.emplace();
    for (const auto& inst : fleet) inst->loop->AttachWallClock(&*clock);
  }

  // Live migration of one waiting request, cache state included. The
  // transfer is priced on post-dedupe bytes; the request becomes
  // schedulable at the destination once the virtual transfer completes.
  const auto migrate = [&](Instance& src, Instance& dst, RequestId id,
                           double t) -> Status {
    APT_ASSIGN_OR_RETURN(MigratedRequest m, src.loop->Extract(id));
    const bool carried_cache = m.image.carries_cache();
    const double base = std::max(t, m.available_at);
    // A transfer that leaves the source's cell rides the slower cross-cell
    // interconnect tier (racks/pods), not the intra-cell fabric.
    const bool cross_cell = instance_cell[src.id] != instance_cell[dst.id];
    const CostModel* cm = router_.cost_model();
    const auto delay = [&](const MigrationImport& import) {
      return cm != nullptr ? cm->MigrationSeconds(import.bytes, cross_cell)
                           : 0.0;
    };
    APT_ASSIGN_OR_RETURN(const MigrationImport import,
                         dst.loop->Receive(std::move(m), base, delay));
    ++fm.migrations;
    if (carried_cache) ++fm.migrations_with_cache;
    if (cross_cell) {
      ++fm.cross_cell_migrations;
      fm.cross_cell_migration_bytes += import.bytes;
    }
    fm.migration_deduped_tokens += import.deduped_tokens;
    fm.migration_copied_tokens += import.copied_tokens;
    fm.migration_bytes += import.bytes;
    fm.migration_seconds += delay(import);
    return Status::OK();
  };

  // Coolest routable destination, preferring `preferred_cell` so drain
  // evacuations stay on the intra-cell interconnect when any same-cell
  // destination exists (a flat fleet has one cell, so the preference is
  // vacuous and the pick matches the pre-cell controller exactly).
  const auto pick_coolest = [&](const Instance* exclude,
                                int32_t preferred_cell) -> Instance* {
    Instance* best_same = nullptr;
    Instance* best_any = nullptr;
    for (const auto& inst : fleet) {
      if (!inst->Routable() || inst.get() == exclude) continue;
      if (best_any == nullptr ||
          inst->loop->NumWaiting() < best_any->loop->NumWaiting()) {
        best_any = inst.get();
      }
      if (instance_cell[inst->id] == preferred_cell &&
          (best_same == nullptr ||
           inst->loop->NumWaiting() < best_same->loop->NumWaiting())) {
        best_same = inst.get();
      }
    }
    return best_same != nullptr ? best_same : best_any;
  };

  double last_scale_change = -std::numeric_limits<double>::infinity();

  // One controller tick: warmups, scaling-policy votes, the migration
  // planner, drain retirements, and the fleet-size timeline entry.
  const auto tick = [&](double t) -> Status {
    ++fm.ticks;
    for (size_t i = 0; i < fleet.size(); ++i) {
      Instance& inst = *fleet[i];
      if (inst.state == Instance::State::kWarming && t >= inst.live_at) {
        inst.state = Instance::State::kLive;
        record_event(inst.live_at, static_cast<int32_t>(i),
                     FleetScaleEvent::Kind::kLive);
      }
    }
    std::vector<Instance*> live;
    for (const auto& inst : fleet) {
      if (inst->Routable()) live.push_back(inst.get());
    }
    int32_t alive = 0;
    for (const auto& inst : fleet) alive += inst->Alive() ? 1 : 0;

    // Scaling votes.
    if (!config_.scaling.empty() && !live.empty()) {
      int64_t total_waiting = 0;
      double util_sum = 0.0;
      for (Instance* inst : live) {
        total_waiting += inst->loop->NumWaiting();
        util_sum += inst->backend->pool()->utilization();
      }
      const double queue_per_instance =
          static_cast<double>(total_waiting) / live.size();
      const double mean_util = util_sum / live.size();

      bool vote_up = false, vote_down = false, hold = false;
      for (const ScalingRule& rule : config_.scaling) {
        switch (rule.kind) {
          case ScalingRule::Kind::kQueueDepth:
            if (queue_per_instance > rule.queue_high) {
              vote_up = true;
            } else if (queue_per_instance < rule.queue_low) {
              vote_down = true;
            } else {
              hold = true;
            }
            break;
          case ScalingRule::Kind::kTargetUtilization:
            if (mean_util > rule.util_high) {
              vote_up = true;
            } else if (mean_util < rule.util_low) {
              vote_down = true;
            } else {
              hold = true;
            }
            break;
          case ScalingRule::Kind::kSloAttainmentGuard: {
            int64_t met = 0, total = 0;
            for (const auto& inst : fleet) {
              const auto [m, n] =
                  inst->loop->TtftFinishesSince(t - rule.window_s);
              met += m;
              total += n;
            }
            if (total > 0 &&
                static_cast<double>(met) / total < rule.attainment_floor) {
              vote_up = true;
            }
            break;
          }
        }
      }
      if (vote_up && alive < max_n &&
          t - last_scale_change >= config_.scale_up_cooldown_s) {
        APT_RETURN_NOT_OK(spawn(t, /*cold=*/true));
        last_scale_change = t;
        ++alive;
      } else if (!vote_up && vote_down && !hold &&
                 t - last_scale_change >= config_.scale_down_cooldown_s &&
                 static_cast<int32_t>(live.size()) > config_.min_instances) {
        // Drain the live instance with the least unfinished work (tie:
        // the newest — LIFO keeps long-lived instances' caches warm).
        Instance* victim = nullptr;
        int32_t victim_id = -1;
        for (size_t i = 0; i < fleet.size(); ++i) {
          Instance& inst = *fleet[i];
          if (!inst.Routable()) continue;
          if (victim == nullptr ||
              inst.loop->NumUnfinished() <= victim->loop->NumUnfinished()) {
            victim = &inst;
            victim_id = static_cast<int32_t>(i);
          }
        }
        if (victim != nullptr) {
          victim->state = Instance::State::kDraining;
          record_event(t, victim_id, FleetScaleEvent::Kind::kDrainStart);
          last_scale_change = t;
        }
      }
    }

    // Migration planner: evacuate draining instances, then shed queue
    // depth from the hottest live instance to the coolest.
    if (config_.enable_migration) {
      int32_t moved = 0;
      for (auto& src : fleet) {
        if (src->state != Instance::State::kDraining) continue;
        for (RequestId id : src->loop->MigratableWaiting()) {
          if (moved >= config_.max_migrations_per_tick) break;
          Instance* dst =
              pick_coolest(src.get(), instance_cell[src->id]);
          if (dst == nullptr) break;
          APT_RETURN_NOT_OK(migrate(*src, *dst, id, t));
          ++moved;
        }
      }
      while (moved < config_.max_migrations_per_tick) {
        Instance* hottest = nullptr;
        Instance* coolest = nullptr;
        for (const auto& inst : fleet) {
          if (!inst->Routable()) continue;
          if (hottest == nullptr ||
              inst->loop->NumWaiting() > hottest->loop->NumWaiting()) {
            hottest = inst.get();
          }
          if (coolest == nullptr ||
              inst->loop->NumWaiting() < coolest->loop->NumWaiting()) {
            coolest = inst.get();
          }
        }
        if (hottest == nullptr || coolest == nullptr || hottest == coolest ||
            hottest->loop->NumWaiting() - coolest->loop->NumWaiting() <=
                config_.migration_imbalance_threshold) {
          break;
        }
        const auto candidates = hottest->loop->MigratableWaiting();
        if (candidates.empty()) break;
        APT_RETURN_NOT_OK(migrate(*hottest, *coolest, candidates.front(), t));
        ++moved;
      }
    }

    // Retire drained instances.
    for (size_t i = 0; i < fleet.size(); ++i) {
      Instance& inst = *fleet[i];
      if (inst.state == Instance::State::kDraining &&
          inst.loop->AllServed()) {
        inst.state = Instance::State::kRetired;
        // Billing runs to the instance's own last iteration (which may
        // overshoot the tick); the event is logged at the tick that
        // observed the retirement so the scale-event log stays
        // chronological.
        inst.retire_time = std::max(t, inst.loop->now());
        record_event(t, static_cast<int32_t>(i),
                     FleetScaleEvent::Kind::kRetire);
        --alive;
        routing.RetireInstance(static_cast<int32_t>(i));
      }
    }

    fm.size_timeline.emplace_back(t, alive);
    fm.peak_instances = std::max(fm.peak_instances, alive);
    return Status::OK();
  };

  // Fleet thread pool: in virtual time, instances step independently
  // between barriers.
  const int32_t threads =
      std::min(config_.runtime.ResolvedNumThreads(), max_n);
  std::unique_ptr<runtime::ThreadPool> pool;
  if (!wall && threads > 1) {
    RuntimeConfig fleet_runtime = config_.runtime;
    fleet_runtime.num_threads = threads;
    pool = std::make_unique<runtime::ThreadPool>(fleet_runtime);
  }

  const auto step_until = [&](Instance& inst, double t_end) {
    if (!inst.Alive() || !inst.status.ok()) return;
    while (inst.loop->now() < t_end) {
      if (inst.loop->AllServed()) break;  // parked; the cap cannot apply
      if (inst.loop->iterations() >= config_.loop.max_iterations) {
        inst.status = IterationCapError(*inst.loop);
        return;
      }
      auto progress = inst.loop->Step();
      if (!progress.ok()) {
        inst.status = progress.status();
        return;
      }
      if (*progress == ServingLoopState::Progress::kDrained) break;
    }
  };

  const auto valve = [&]() -> Status {
    if (clock->Now() <= async->max_wall_seconds) return Status::OK();
    return Status::Internal("wall-clock serving exceeded the wall-time valve (" +
                            std::to_string(async->max_wall_seconds) + "s)");
  };
  // Wall clock: the instance's own thread for one window. It injects each
  // routed request once the clock passes its release instant, syncs the
  // loop's virtual clock before every Step, sleeps while drained with a
  // release still to come, and stops when the window ends (injecting what
  // is left, all of it inside the window) or when it has drained with
  // nothing left to inject. A busy instance takes at least one Step per
  // window, so the fleet progresses even when windows open late. The first
  // failure stops every thread.
  std::atomic<bool> stop{false};
  const auto step_wall = [&](Instance& inst, double window_end) {
    ServingLoopState& loop = *inst.loop;
    const auto fail = [&](Status s) {
      inst.status = std::move(s);
      stop.store(true, std::memory_order_relaxed);
    };
    size_t next = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const double now = clock->Now();
      const bool window_over = now * speedup >= window_end;
      for (; next < inst.inbox.size(); ++next) {
        const Request& r = inst.inbox[next];
        const double release = r.arrival / speedup;
        if (!window_over && release > now) break;
        if (Status s = loop.Inject(r, r.arrival, release); !s.ok()) {
          return fail(std::move(s));
        }
      }
      if (Status s = valve(); !s.ok()) return fail(std::move(s));
      if (loop.AllServed()) {
        if (window_over || next == inst.inbox.size()) return;
        NapToward(*clock, inst.inbox[next].arrival / speedup);
        continue;
      }
      if (loop.iterations() >= config_.loop.max_iterations) {
        return fail(IterationCapError(loop));
      }
      loop.SyncClock(now * speedup);
      if (auto progress = loop.Step(); !progress.ok()) {
        return fail(progress.status());
      }
      if (window_over) return;
    }
  };

  size_t next_route = 0;
  std::vector<uint8_t> live;
  double window_start = 0.0;

  while (true) {
    const double window_end =
        elastic ? window_start + config_.tick_interval_s
                : std::numeric_limits<double>::infinity();
    if (elastic) APT_RETURN_NOT_OK(tick(window_start));

    // Route every arrival of this window against the live set (constant
    // within the window — scale events only happen at ticks).
    if (next_route < trace.size()) {
      live.assign(fleet.size(), 0);
      for (size_t i = 0; i < fleet.size(); ++i) {
        live[i] = fleet[i]->Routable() ? 1 : 0;
      }
      routing.SetLive(live);
    }
    Request routed;
    while (next_route < trace.size() &&
           trace[next_route].arrival < window_end) {
      const int32_t inst =
          routing.Route(trace[next_route], next_route, &routed);
      if (inst != RouteDecision::kRejected && wall) {
        fleet[inst]->inbox.push_back(std::move(routed));
      } else if (inst != RouteDecision::kRejected) {
        APT_RETURN_NOT_OK(fleet[inst]->loop->Inject(routed, routed.arrival));
      }
      ++next_route;
    }

    // Epochs: every instance advances to the window barrier.
    const int32_t n_now = static_cast<int32_t>(fleet.size());
    if (wall) {
      {
        std::vector<std::thread> running;
        // Joins on every exit from this scope, a failed thread start too.
        struct JoinAll {
          std::vector<std::thread>& threads;
          ~JoinAll() {
            for (std::thread& t : threads) t.join();
          }
        } join_all{running};
        for (const auto& inst : fleet) {
          if (!inst->Alive() ||
              (inst->loop->AllServed() && inst->inbox.empty())) {
            continue;
          }
          running.emplace_back(step_wall, std::ref(*inst), window_end);
        }
      }
      for (const auto& inst : fleet) inst->inbox.clear();
    } else if (pool != nullptr) {
      pool->ParallelForEach(0, n_now, 1, [&](int64_t i) {
        step_until(*fleet[i], window_end);
      });
    } else {
      for (int32_t i = 0; i < n_now; ++i) {
        step_until(*fleet[i], window_end);
        if (!fleet[i]->status.ok()) break;  // fail fast, as before
      }
    }
    // First failure in instance order, matching the classic runner.
    for (const auto& inst : fleet) {
      if (!inst->status.ok()) return inst->status;
    }

    if (!elastic) break;
    bool done = next_route == trace.size();
    for (const auto& inst : fleet) {
      done = done && inst->loop->AllServed();
    }
    if (done) break;
    // Until the whole trace is routed, the next tick waits for its instant.
    while (wall && next_route < trace.size() &&
           clock->Now() * speedup < window_end) {
      APT_RETURN_NOT_OK(valve());
      NapToward(*clock, window_end / speedup);
    }
    window_start = window_end;
    // A barrier that ends late skips the ticks the wall clock has passed:
    // the next tick runs once, at the latest instant due, like a late timer.
    if (wall) {
      const double due = clock->Now() * speedup;
      while (window_start + config_.tick_interval_s <= due) {
        window_start += config_.tick_interval_s;
      }
    }
    if (fm.ticks > 100'000'000) {
      return Status::Internal("fleet controller exceeded the tick guard");
    }
  }

  // Finalize instances and assemble the fleet result. An instance that
  // never saw a request reports all zeros.
  double fleet_end = 0.0;
  std::vector<ServingLoopState*> loops;
  for (const auto& inst : fleet) {
    fleet_end = std::max(fleet_end, inst->loop->now());
    loops.push_back(inst->loop.get());
  }
  if (wall) out.wall_duration_s = clock->Now();
  WallClockMetrics wall_metrics;
  APT_ASSIGN_OR_RETURN(out.serve, AssembleResult(loops, routing,
                                                 config_.metrics,
                                                 &wall_metrics));
  if (wall) out.wall = wall_metrics.Report();
  fm.instance_cell = instance_cell;
  const int32_t total_instances = static_cast<int32_t>(fleet.size());
  for (const auto& inst : fleet) {
    const double end = inst->retire_time >= 0 ? inst->retire_time : fleet_end;
    fm.instance_seconds += std::max(0.0, end - inst->add_time);
  }
  if (elastic) {
    int32_t alive = 0;
    for (const auto& inst : fleet) alive += inst->Alive() ? 1 : 0;
    fm.size_timeline.emplace_back(fleet_end, alive);
    fm.peak_instances = std::max(fm.peak_instances, alive);
  } else {
    fm.instance_seconds = total_instances * fleet_end;
    fm.peak_instances = total_instances;
    fm.size_timeline.emplace_back(fleet_end, total_instances);
  }

  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *config_.metrics;
    reg.GetCounter("aptserve_fleet_cross_cell_migrations_total")
        ->Inc(fm.cross_cell_migrations);
    reg.GetCounter("aptserve_fleet_migrations_total")->Inc(fm.migrations);
    reg.GetCounter("aptserve_fleet_migration_bytes_total")
        ->Inc(static_cast<int64_t>(fm.migration_bytes));
    reg.GetCounter("aptserve_fleet_cold_starts_total")->Inc(fm.cold_starts);
    int64_t by_kind[4] = {0, 0, 0, 0};
    for (const FleetScaleEvent& ev : fm.scale_events) {
      ++by_kind[static_cast<int>(ev.kind)];
    }
    reg.GetCounter("aptserve_fleet_scale_events_total", "kind=\"add\"")
        ->Inc(by_kind[0]);
    reg.GetCounter("aptserve_fleet_scale_events_total", "kind=\"live\"")
        ->Inc(by_kind[1]);
    reg.GetCounter("aptserve_fleet_scale_events_total", "kind=\"drain\"")
        ->Inc(by_kind[2]);
    reg.GetCounter("aptserve_fleet_scale_events_total", "kind=\"retire\"")
        ->Inc(by_kind[3]);
    reg.GetGauge("aptserve_fleet_instance_seconds")->Set(fm.instance_seconds);
    reg.GetGauge("aptserve_fleet_peak_instances")
        ->Set(static_cast<double>(fm.peak_instances));
  }
  return out;
}

SloReport MergeReports(const std::vector<SloReport>& reports,
                       const std::vector<int32_t>& request_counts) {
  APT_CHECK(reports.size() == request_counts.size());
  SloReport out;
  int64_t eligible_total = 0;
  double limit_time = 0.0;
  double batch_weighted = 0.0;
  for (size_t i = 0; i < reports.size(); ++i) {
    const SloReport& r = reports[i];
    // Attainment weight: eligible requests. Hand-built reports may not
    // fill best_effort_requests; counts minus best-effort equals eligible
    // for real reports and the raw count otherwise — bit-identical to the
    // pre-SLO-routing merge whenever no best-effort traffic exists.
    const int64_t n = request_counts[i] - r.best_effort_requests;
    eligible_total += n;
    out.slo_attainment += r.slo_attainment * n;
    out.ttft_attainment += r.ttft_attainment * n;
    out.tbt_attainment += r.tbt_attainment * n;
    out.total_serving_time = std::max(out.total_serving_time,
                                      r.total_serving_time);
    limit_time += r.batch_limit_time_ratio * r.total_serving_time;
    out.iterations += r.iterations;
    batch_weighted += r.mean_batch_size * static_cast<double>(r.iterations);
    out.preemptions += r.preemptions;
    out.conversions += r.conversions;
    out.eligible_requests += r.eligible_requests;
    out.slo_met_requests += r.slo_met_requests;
    out.best_effort_requests += r.best_effort_requests;
    out.rejected_requests += r.rejected_requests;
    for (double v : r.ttfts.samples()) out.ttfts.Add(v);
    for (double v : r.p99_tbts.samples()) out.p99_tbts.Add(v);
  }
  if (eligible_total > 0) {
    out.slo_attainment /= eligible_total;
    out.ttft_attainment /= eligible_total;
    out.tbt_attainment /= eligible_total;
  }
  double summed_time = 0.0;
  for (const SloReport& r : reports) summed_time += r.total_serving_time;
  out.batch_limit_time_ratio =
      summed_time > 0 ? limit_time / summed_time : 0.0;
  out.mean_batch_size =
      out.iterations > 0 ? batch_weighted / out.iterations : 0.0;
  out.mean_ttft = out.ttfts.Mean();
  out.p99_ttft = out.ttfts.P99();
  out.goodput_rps = out.total_serving_time > 0
                        ? out.slo_met_requests / out.total_serving_time
                        : 0.0;
  return out;
}

}  // namespace aptserve
