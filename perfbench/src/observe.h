// Decorators over the public Scheduler and ExecutionBackend interfaces.
//
// They sit between the serving loop and the real scheduler/backend and
// forward every virtual call unchanged, so a decorated run serves exactly
// the same schedule as an undecorated one (the benchmark checks this bit
// for bit). They record, per serving instance:
//
//   - always: the virtual and wall time of every planned iteration and of
//     every emitted token (the token is stamped when the iteration that
//     produced it ends, which is when the loop emits it);
//   - in a traced run, additionally: one span per wrapped call (name,
//     start, end, request id, parent iteration span) and per-call counters.
//
// Fleets decorate through SchedulerFactory/BackendFactory: the controller
// builds each instance's scheduler and then its backend, so a backend
// attaches to the log its scheduler opened.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/model_config.h"
#include "serve/execution_backend.h"
#include "sim/scheduler.h"

namespace perfbench {

/// Monotonic wall clock in seconds.
double WallSeconds();

enum class Op : uint8_t {
  kIteration,  // one planned iteration: plan start to EndIteration end
  kPlan,
  kPrepare,
  kAdmit,
  kExport,
  kImport,
  kBegin,
  kPrefill,
  kDecode,
  kEnd,
  kFinish,
  kFinalize,
  kRelease,
  kConvert,
  kSwapOut,
  kSwapIn,
  kReclaim,
  kCount,
};
const char* OpName(Op op);
/// Layer a wrapped call belongs to: "serve", "core", "backend" or "cache".
const char* OpLayer(Op op);

struct Span {
  double start = 0.0;
  double end = 0.0;
  int64_t request = -1;
  int32_t parent = -1;  // index of the enclosing iteration span, or -1
  int32_t instance = 0;
  Op op = Op::kIteration;
};

struct TokenStamp {
  aptserve::RequestId id = 0;
  double virtual_s = 0.0;
  double wall_s = 0.0;
};

struct PlanStamp {
  double virtual_s = 0.0;
  double wall_s = 0.0;
};

/// Upper bounds on prefill positions a request may adopt from a prefix
/// index: on its first pass, and on a later (recompute) pass.
struct SkipBound {
  int32_t first_pass = 0;
  int32_t repass = 0;
};

/// What the decorators of one serving instance saw in one run.
struct InstanceLog {
  int32_t instance = 0;
  std::vector<PlanStamp> plans;
  std::vector<TokenStamp> tokens;
  std::vector<Span> spans;  // traced runs only

  // Counters (traced runs only).
  int64_t executed_iterations = 0;
  int64_t applied_items = 0;
  int64_t planned_items = 0;
  int64_t hidden_items = 0;
  int64_t preempt_items = 0;
  int64_t convert_items = 0;
  int64_t candidates = 0;
  int64_t release_calls = 0;
  int64_t convert_calls = 0;
  int64_t oom_steps = 0;
  int64_t prefill_tokens = 0;
  int64_t recompute_tokens = 0;
  int64_t decode_tokens = 0;
  double flops = 0.0;
  double util_sum = 0.0;
  double util_peak = 0.0;

  // Checks (every decorated run).
  int64_t skip_violations = 0;
  bool finalized = false;
  int32_t leftover_blocks = 0;

  // Iteration in flight.
  std::vector<aptserve::RequestId> iter_tokens;
  double iter_virtual = 0.0;
  int32_t iter_span = -1;
  double iter_last_end = 0.0;
};

/// Owns the logs of one run (one per serving instance).
class Recorder {
 public:
  explicit Recorder(bool traced) : traced_(traced) {}
  bool traced() const { return traced_; }
  /// Opens the log of a new instance (called from the scheduler factory).
  InstanceLog* AddInstance();
  /// The most recently opened log (the backend factory attaches to it).
  InstanceLog* last() { return logs_.empty() ? nullptr : &logs_.back(); }
  std::deque<InstanceLog>& logs() { return logs_; }
  const std::deque<InstanceLog>& logs() const { return logs_; }

 private:
  bool traced_;
  std::deque<InstanceLog> logs_;  // deque: stable addresses
};

class ObservedScheduler final : public aptserve::Scheduler {
 public:
  ObservedScheduler(std::unique_ptr<aptserve::Scheduler> inner,
                    InstanceLog* log, bool traced)
      : inner_(std::move(inner)), log_(log), traced_(traced) {}

  aptserve::BatchPlan PlanIteration(
      const aptserve::SchedulerInput& input) override;
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<aptserve::Scheduler> inner_;
  InstanceLog* log_;
  bool traced_;
};

class ObservedBackend final : public aptserve::ExecutionBackend {
 public:
  /// `index_blocks` reports the blocks the backend's prefix index holds
  /// (null: none); checked against the pool at Finalize. `flop_model` is
  /// the real model whose FLOPs a traced run counts (null: analytic
  /// backend). `skip_bounds` (may be null) bounds adopted prefill positions.
  ObservedBackend(std::unique_ptr<aptserve::ExecutionBackend> owned,
                  aptserve::ExecutionBackend* inner, InstanceLog* log,
                  bool traced, std::function<int32_t()> index_blocks,
                  const aptserve::ModelConfig* flop_model,
                  const std::unordered_map<aptserve::RequestId, SkipBound>*
                      skip_bounds);

  std::string name() const override { return inner_->name(); }
  aptserve::Status Prepare(
      const std::vector<aptserve::SimRequest>& reqs) override;
  aptserve::Status Admit(const aptserve::SimRequest& sr) override;
  aptserve::StatusOr<aptserve::MigrationImage> ExportRequest(
      const aptserve::SimRequest& sr) override;
  aptserve::StatusOr<aptserve::MigrationImport> ImportRequest(
      const aptserve::SimRequest& sr,
      const aptserve::MigrationImage& image) override;
  const aptserve::BlockPool* pool() const override { return inner_->pool(); }
  const aptserve::HybridCacheAssigner* assigner() const override {
    return inner_->assigner();
  }
  const aptserve::CostModel* cost_model() const override {
    return inner_->cost_model();
  }
  void BeginIteration() override;
  aptserve::StatusOr<double> EndIteration() override;
  double IdleAdvanceSeconds() const override {
    return inner_->IdleAdvanceSeconds();
  }
  aptserve::Status Release(const aptserve::SimRequest& sr) override;
  aptserve::Status Convert(const aptserve::SimRequest& sr,
                           aptserve::CacheType new_type) override;
  aptserve::StatusOr<bool> TrySwapOut(const aptserve::SimRequest& sr) override;
  aptserve::StatusOr<bool> TrySwapIn(const aptserve::SimRequest& sr) override;
  aptserve::StatusOr<StepOutcome> ExecutePrefillChunk(
      const aptserve::SimRequest& sr, aptserve::CacheType cache_type,
      int32_t chunk) override;
  aptserve::StatusOr<StepOutcome> ExecuteDecode(
      const aptserve::SimRequest& sr) override;
  aptserve::Status OnFinish(const aptserve::SimRequest& sr) override;
  aptserve::Status Finalize() override;
  int64_t swap_outs() const override { return inner_->swap_outs(); }
  int64_t swap_ins() const override { return inner_->swap_ins(); }
  const aptserve::PrefixStats* prefix_stats() const override {
    return inner_->prefix_stats();
  }
  int32_t ReclaimCache(int32_t min_blocks) override;

 private:
  template <typename F>
  auto Timed(Op op, int64_t request, F&& f) -> decltype(f());

  std::unique_ptr<aptserve::ExecutionBackend> owned_;
  aptserve::ExecutionBackend* inner_;
  InstanceLog* log_;
  bool traced_;
  std::function<int32_t()> index_blocks_;
  const aptserve::ModelConfig* flop_model_;
  const std::unordered_map<aptserve::RequestId, SkipBound>* skip_bounds_;
};

/// FLOPs of one prefill chunk or decode step on `model`, from its shapes:
/// projections and MLP per processed position, attention over the
/// attended context, K/V re-projection of cached positions for a
/// hidden-cache decode, and the LM head once per step.
double StepFlops(const aptserve::ModelConfig& model, int64_t positions,
                 int64_t attended, int64_t reprojected);

/// Writes the spans of `recorder` as Chrome trace_event JSON (one track per
/// instance; at most `max_spans` spans, cut at an iteration boundary) and
/// validates the file with the project's trace validator. Returns the
/// number of spans written, or an error.
aptserve::StatusOr<int64_t> WriteChromeTrace(const Recorder& recorder,
                                             const std::string& path,
                                             int64_t max_spans);

}  // namespace perfbench
