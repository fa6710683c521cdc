#include "serve/async_serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "runtime/bounded_queue.h"
#include "runtime/clock.h"
#include "serve/fleet_internal.h"

namespace aptserve {

namespace {

/// How long an idle (drained) worker blocks on its arrival queue before
/// re-checking for shutdown.
constexpr std::chrono::microseconds kIdlePoll(500);

/// What travels controller -> worker over an arrival queue: a freshly
/// routed request, or a shed request migrating in with its cache state.
struct AsyncCommand {
  enum class Kind { kInject, kReceive };
  Kind kind = Kind::kInject;
  Request request;            ///< kInject
  double wall_arrival = 0.0;  ///< kInject: wall stamp at release
  MigratedRequest migrated;   ///< kReceive
  bool cross_cell = false;    ///< kReceive: priced on the cross-cell tier
};

/// What travels worker -> controller over the event queue.
struct AsyncEvent {
  enum class Kind { kFinished, kShed, kError };
  Kind kind = Kind::kFinished;
  int32_t instance = -1;
  RequestId id = -1;          ///< kFinished
  double virtual_time = 0.0;  ///< kFinished: instance-frame finish time
  MigratedRequest migrated;   ///< kShed
  Status error = Status::OK();
};

/// One continuously-batching serving instance: a worker thread that owns
/// the loop state end-to-end (no cross-thread access to the loop, ever —
/// all communication is queue messages and the published depth atomic).
struct AsyncInstance : fleet_internal::InstanceStack {
  std::unique_ptr<runtime::BoundedQueue<AsyncCommand>> arrivals;
  std::thread thread;
  /// Waiting-queue depth the worker publishes each iteration — the
  /// controller's shed-target picker reads it without touching the loop.
  std::atomic<int32_t> waiting_depth{0};
};

}  // namespace

StatusOr<AsyncServingResult> FleetController::RunAsync(
    const std::vector<Request>& trace, const SchedulerFactory& make_scheduler,
    const BackendFactory& make_backend, const SloSpec& slo,
    const AsyncServingConfig& async) {
  if (config_.IsElastic()) {
    return Status::InvalidArgument(
        "async serving runs a static fleet: scaling rules and planner "
        "migration are virtual-time features (queue shedding is the async "
        "mode's live motion)");
  }
  const int32_t n = router_.config().n_instances;
  APT_CHECK(async.replay_speedup > 0.0);
  const CostModel* migration_cost_model = router_.cost_model();

  std::vector<std::unique_ptr<AsyncInstance>> fleet;
  fleet.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    auto inst = std::make_unique<AsyncInstance>();
    APT_RETURN_NOT_OK(fleet_internal::StartInstance(
        config_, i, make_scheduler, make_backend, slo, inst.get()));
    inst->arrivals = std::make_unique<runtime::BoundedQueue<AsyncCommand>>(
        kAsyncArrivalQueueCapacity);
    fleet.push_back(std::move(inst));
  }

  // The epoch is taken once every instance is built and started: set-up
  // time is neither serving time nor a reason to release arrivals early.
  runtime::MonotonicClock clock;
  for (auto& inst : fleet) inst->loop->AttachWallClock(&clock);
  // Routed by the feeder thread only, until the join below.
  fleet_internal::ArrivalRouting routing(router_, config_, n, &clock);
  for (int32_t i = 0; i < n; ++i) routing.AddInstance();
  routing.SetLive(std::vector<uint8_t>(static_cast<size_t>(n), 1));
  const std::vector<int32_t>& instance_cell = routing.instance_cell();
  // Sized so worker event pushes can always complete while the controller
  // is momentarily blocked handing a shed request to a full arrival queue
  // (every request finishes exactly once; sheds are drained continuously).
  runtime::BoundedQueue<AsyncEvent> events(2 * trace.size() + 256);

  std::atomic<bool> abort{false};
  std::atomic<int64_t> routed{0};
  std::atomic<bool> feeder_done{false};

  const auto close_all = [&] {
    for (auto& inst : fleet) inst->arrivals->Close();
    events.Close();
  };

  // ---- Worker: one instance's continuous batching loop ---------------------
  const auto worker_main = [&](int32_t me) {
    AsyncInstance& self = *fleet[me];
    ServingLoopState& loop = *self.loop;
    const auto fail = [&](Status s) {
      AsyncEvent ev;
      ev.kind = AsyncEvent::Kind::kError;
      ev.instance = me;
      ev.error = std::move(s);
      (void)events.Push(std::move(ev));
    };
    const auto apply = [&](AsyncCommand cmd) -> Status {
      if (cmd.kind == AsyncCommand::Kind::kInject) {
        return loop.Inject(cmd.request, cmd.request.arrival, cmd.wall_arrival);
      }
      // Shed migration in: schedulable at the later of the source-frame
      // availability and this instance's own clock, plus the priced
      // interconnect delay over post-dedupe bytes.
      const double base = std::max(cmd.migrated.available_at, loop.now());
      const auto delay = [&](const MigrationImport& import) {
        return migration_cost_model != nullptr
                   ? migration_cost_model->MigrationSeconds(import.bytes,
                                                            cmd.cross_cell)
                   : 0.0;
      };
      return loop.Receive(std::move(cmd.migrated), base, delay).status();
    };

    while (!abort.load(std::memory_order_acquire)) {
      // 1. Admit everything that arrived since the last iteration — the
      // mid-step Inject seam, no barrier between admission and execution.
      bool applied_any = false;
      for (AsyncCommand& cmd : self.arrivals->DrainNow()) {
        if (Status s = apply(std::move(cmd)); !s.ok()) {
          fail(std::move(s));
          return;
        }
        applied_any = true;
      }

      // 2. Fuse the timelines and run one iteration.
      loop.SyncClock(clock.Now() * async.replay_speedup);
      if (loop.iterations() >= config_.loop.max_iterations) {
        fail(Status::Internal("async serving loop hit the iteration cap"));
        return;
      }
      auto progress = loop.Step();
      if (!progress.ok()) {
        fail(progress.status());
        return;
      }
      self.waiting_depth.store(loop.NumWaiting(), std::memory_order_release);

      // 3. Publish completions back over the fabric.
      for (const auto& [id, t] : loop.TakeRecentFinishes()) {
        AsyncEvent ev;
        ev.kind = AsyncEvent::Kind::kFinished;
        ev.instance = me;
        ev.id = id;
        ev.virtual_time = t;
        if (!events.Push(std::move(ev))) return;  // shutting down
      }

      // 4. Queue-depth shedding: overloaded instances export one waiting
      // request (cache included) per iteration; the controller re-routes
      // it to the coolest instance.
      if (async.shed_queue_depth > 0 &&
          loop.NumWaiting() > async.shed_queue_depth) {
        const auto candidates = loop.MigratableWaiting();
        if (!candidates.empty()) {
          // The shed instant precedes Extract so readers see the queue
          // depth that triggered it; Extract itself opens the migration
          // flow arrow that the destination's Receive closes.
          if (loop.trace_sink()) {
            loop.trace_sink().Instant(obs::TraceOp::kShed, clock.Now(),
                                      candidates.front(),
                                      static_cast<double>(loop.NumWaiting()));
          }
          auto m = loop.Extract(candidates.front());
          if (!m.ok()) {
            fail(m.status());
            return;
          }
          AsyncEvent ev;
          ev.kind = AsyncEvent::Kind::kShed;
          ev.instance = me;
          ev.migrated = std::move(*m);
          if (!events.Push(std::move(ev))) return;
        }
      }

      // 5. Park while drained: block on the arrival queue instead of
      // spinning, and exit once the fabric is closed and empty.
      if (*progress == ServingLoopState::Progress::kDrained && !applied_any) {
        auto cmd = self.arrivals->PopFor(kIdlePoll);
        if (cmd.has_value()) {
          if (Status s = apply(std::move(*cmd)); !s.ok()) {
            fail(std::move(s));
            return;
          }
          continue;
        }
        if (self.arrivals->closed() && self.arrivals->size() == 0 &&
            loop.AllServed()) {
          return;
        }
      }
    }
  };

  // ---- Feeder: real-time trace replay through the router -------------------
  // Arrival-order routing over the all-live static fleet (cells included)
  // is the virtual mode's routing pass, so each request goes to the same
  // instance in both modes — the routing half of the determinism contract.
  const auto feeder_main = [&] {
    for (size_t idx = 0; idx < trace.size(); ++idx) {
      if (abort.load(std::memory_order_acquire)) break;
      const Request& req = trace[idx];
      const double release = req.arrival / async.replay_speedup;
      while (!abort.load(std::memory_order_acquire)) {
        const double lag = release - clock.Now();
        if (lag <= 0) break;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(lag, 0.001)));
      }
      AsyncCommand cmd;
      cmd.kind = AsyncCommand::Kind::kInject;
      const int32_t inst = routing.Route(req, idx, &cmd.request);
      if (inst == RouteDecision::kRejected) continue;
      cmd.wall_arrival = clock.Now();
      routed.fetch_add(1, std::memory_order_acq_rel);
      // Blocking push: a full queue is backpressure, not an error. False
      // means the fabric closed under us (abort path).
      if (!fleet[inst]->arrivals->Push(std::move(cmd))) break;
    }
    feeder_done.store(true, std::memory_order_release);
  };

  std::thread feeder(feeder_main);
  for (int32_t i = 0; i < n; ++i) {
    fleet[i]->thread = std::thread(worker_main, i);
  }

  // ---- Controller: drain events until the fleet runs dry -------------------
  Status first_error = Status::OK();
  int64_t finished = 0;
  int64_t shed_migrations = 0;
  std::vector<int64_t> sheds_per_instance(static_cast<size_t>(n), 0);
  while (true) {
    if (feeder_done.load(std::memory_order_acquire) &&
        finished == routed.load(std::memory_order_acquire)) {
      break;
    }
    if (clock.Now() > async.max_wall_seconds) {
      first_error = Status::Internal(
          "async serving exceeded the wall-time valve (" +
          std::to_string(async.max_wall_seconds) + "s)");
      abort.store(true, std::memory_order_release);
      break;
    }
    auto ev = events.PopFor(std::chrono::milliseconds(1));
    if (!ev.has_value()) continue;
    if (ev->kind == AsyncEvent::Kind::kFinished) {
      ++finished;
    } else if (ev->kind == AsyncEvent::Kind::kError) {
      first_error = ev->error;
      abort.store(true, std::memory_order_release);
      break;
    } else {  // kShed: hand the migrant to the coolest instance.
      // Coolest published depth, lowest id on ties; a lone instance
      // receives its own shed back (re-injection, still well-formed).
      int32_t dst = ev->instance;
      int32_t best_depth = std::numeric_limits<int32_t>::max();
      for (int32_t i = 0; i < n; ++i) {
        if (i == ev->instance) continue;
        const int32_t d =
            fleet[i]->waiting_depth.load(std::memory_order_acquire);
        if (d < best_depth) {
          best_depth = d;
          dst = i;
        }
      }
      AsyncCommand cmd;
      cmd.kind = AsyncCommand::Kind::kReceive;
      cmd.migrated = std::move(ev->migrated);
      cmd.cross_cell = instance_cell[ev->instance] != instance_cell[dst];
      ++shed_migrations;
      ++sheds_per_instance[ev->instance];
      // Blocking push is deadlock-free: the destination worker drains its
      // arrival queue every iteration and its event pushes cannot fill the
      // (finish-count-sized) event queue.
      if (!fleet[dst]->arrivals->Push(std::move(cmd))) break;
    }
  }
  const double wall_end = clock.Now();

  // Shutdown: close the fabric (wakes blocked pushes and parked workers),
  // then join. On the error path workers exit via the abort flag even with
  // unfinished requests aboard.
  close_all();
  feeder.join();
  for (auto& inst : fleet) inst->thread.join();
  APT_RETURN_NOT_OK(first_error);

  // ---- Finalize (single-threaded again): assemble the fleet result ---------
  AsyncServingResult out;
  out.arrival_queue_high_water_per_instance.assign(n, 0);
  out.sheds_per_instance = sheds_per_instance;
  std::vector<ServingLoopState*> loops;
  for (int32_t i = 0; i < n; ++i) {
    AsyncInstance& inst = *fleet[i];
    loops.push_back(inst.loop.get());
    out.arrival_queue_high_water_per_instance[i] = inst.arrivals->high_water();
    out.arrival_queue_high_water =
        std::max(out.arrival_queue_high_water, inst.arrivals->high_water());
    if (config_.metrics != nullptr) {
      const std::string label = "instance=\"" + std::to_string(i) + "\"";
      config_.metrics
          ->GetGauge("aptserve_async_arrival_queue_high_water", label)
          ->SetMax(static_cast<double>(inst.arrivals->high_water()));
      config_.metrics->GetCounter("aptserve_async_sheds_total", label)
          ->Inc(sheds_per_instance[i]);
    }
  }
  WallClockMetrics wall;
  APT_ASSIGN_OR_RETURN(out.serve, fleet_internal::AssembleResult(
                                      loops, routing, config_.metrics, &wall));
  out.wall = wall.Report();
  out.wall_duration_s = wall_end;
  out.shed_migrations = shed_migrations;
  return out;
}

}  // namespace aptserve
