#include "observe.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.h"

namespace perfbench {

using aptserve::BatchPlan;
using aptserve::CacheType;
using aptserve::SchedulerInput;
using aptserve::SimRequest;
using aptserve::Status;
using aptserve::StatusOr;

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* OpName(Op op) {
  static const char* const kNames[] = {
      "iteration", "plan",    "prepare",  "admit",   "export",  "import",
      "begin",     "prefill", "decode",   "end_iteration", "finish",
      "finalize",  "release", "convert",  "swap_out", "swap_in", "reclaim"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                    static_cast<size_t>(Op::kCount),
                "one name per op");
  return kNames[static_cast<size_t>(op)];
}

const char* OpLayer(Op op) {
  switch (op) {
    case Op::kIteration:
      return "serve";
    case Op::kPlan:
      return "core";
    case Op::kRelease:
    case Op::kConvert:
    case Op::kSwapOut:
    case Op::kSwapIn:
    case Op::kReclaim:
      return "cache";
    default:
      return "backend";
  }
}

InstanceLog* Recorder::AddInstance() {
  logs_.emplace_back();
  logs_.back().instance = static_cast<int32_t>(logs_.size()) - 1;
  return &logs_.back();
}

namespace {

void CloseIteration(InstanceLog* log) {
  if (log->iter_span >= 0) {
    log->spans[log->iter_span].end = log->iter_last_end;
    log->iter_span = -1;
  }
}

/// Calls that happen inside a planned iteration (between PlanIteration and
/// EndIteration) get the iteration as parent; the rest stand alone.
bool InIteration(Op op) {
  return op != Op::kPrepare && op != Op::kAdmit && op != Op::kExport &&
         op != Op::kImport && op != Op::kFinalize;
}

}  // namespace

BatchPlan ObservedScheduler::PlanIteration(const SchedulerInput& input) {
  const double t0 = WallSeconds();
  log_->plans.push_back({input.now, t0});
  log_->iter_virtual = input.now;
  if (!traced_) return inner_->PlanIteration(input);

  CloseIteration(log_);
  log_->iter_span = static_cast<int32_t>(log_->spans.size());
  log_->spans.push_back({t0, t0, -1, -1, log_->instance, Op::kIteration});
  BatchPlan plan = inner_->PlanIteration(input);
  const double t1 = WallSeconds();
  log_->spans.push_back(
      {t0, t1, -1, log_->iter_span, log_->instance, Op::kPlan});
  log_->iter_last_end = t1;

  log_->candidates +=
      static_cast<int64_t>(input.waiting.size() + input.running.size());
  log_->planned_items += static_cast<int64_t>(plan.items.size());
  auto find = [&](aptserve::RequestId id) -> const SimRequest* {
    for (const auto* queue : {&input.running, &input.waiting}) {
      for (const SimRequest* sr : *queue) {
        if (sr->spec.id == id) return sr;
      }
    }
    return nullptr;
  };
  for (const aptserve::ScheduledItem& item : plan.items) {
    if (item.cache_type == CacheType::kHidden) ++log_->hidden_items;
    // A request that already emitted tokens and resumes its re-prefill
    // with another cache type is a conversion too (the loop counts it so).
    if (item.prefill_chunk > 0) {
      const SimRequest* sr = find(item.id);
      if (sr != nullptr && sr->has_first_token &&
          sr->cache_type != item.cache_type &&
          !input.assigner->Has(item.id)) {
        ++log_->convert_items;
      }
    }
  }
  for (const aptserve::PreemptionItem& p : plan.preempt) {
    const SimRequest* target = find(p.id);
    if (target != nullptr && target->cache_type != p.resume_cache_type) {
      ++log_->convert_items;
    } else {
      ++log_->preempt_items;
    }
  }
  return plan;
}

ObservedBackend::ObservedBackend(
    std::unique_ptr<aptserve::ExecutionBackend> owned,
    aptserve::ExecutionBackend* inner, InstanceLog* log, bool traced,
    std::function<int32_t()> index_blocks,
    const aptserve::ModelConfig* flop_model,
    const std::unordered_map<aptserve::RequestId, SkipBound>* skip_bounds)
    : owned_(std::move(owned)),
      inner_(owned_ ? owned_.get() : inner),
      log_(log),
      traced_(traced),
      index_blocks_(std::move(index_blocks)),
      flop_model_(flop_model),
      skip_bounds_(skip_bounds) {}

template <typename F>
auto ObservedBackend::Timed(Op op, int64_t request, F&& f) -> decltype(f()) {
  if (!traced_) return f();
  const double t0 = WallSeconds();
  auto result = f();
  const double t1 = WallSeconds();
  const bool in_iteration = InIteration(op) && log_->iter_span >= 0;
  log_->spans.push_back({t0, t1, request, in_iteration ? log_->iter_span : -1,
                         log_->instance, op});
  if (in_iteration) log_->iter_last_end = t1;
  return result;
}

Status ObservedBackend::Prepare(const std::vector<SimRequest>& reqs) {
  return Timed(Op::kPrepare, -1, [&] { return inner_->Prepare(reqs); });
}

Status ObservedBackend::Admit(const SimRequest& sr) {
  return Timed(Op::kAdmit, sr.spec.id, [&] { return inner_->Admit(sr); });
}

StatusOr<aptserve::MigrationImage> ObservedBackend::ExportRequest(
    const SimRequest& sr) {
  return Timed(Op::kExport, sr.spec.id,
               [&] { return inner_->ExportRequest(sr); });
}

StatusOr<aptserve::MigrationImport> ObservedBackend::ImportRequest(
    const SimRequest& sr, const aptserve::MigrationImage& image) {
  return Timed(Op::kImport, sr.spec.id,
               [&] { return inner_->ImportRequest(sr, image); });
}

void ObservedBackend::BeginIteration() {
  Timed(Op::kBegin, -1, [&] {
    inner_->BeginIteration();
    return 0;
  });
}

StatusOr<double> ObservedBackend::EndIteration() {
  const double t0 = traced_ ? WallSeconds() : 0.0;
  StatusOr<double> latency = inner_->EndIteration();
  const double t1 = WallSeconds();
  if (latency.ok()) {
    // The loop advances its clock by exactly this latency and emits the
    // iteration's tokens at the new time.
    const double emitted_at = log_->iter_virtual + *latency;
    for (aptserve::RequestId id : log_->iter_tokens) {
      log_->tokens.push_back({id, emitted_at, t1});
    }
  }
  log_->iter_tokens.clear();
  if (traced_) {
    ++log_->executed_iterations;
    log_->spans.push_back({t0, t1, -1, log_->iter_span, log_->instance,
                           Op::kEnd});
    const double util = inner_->pool()->utilization();
    log_->util_sum += util;
    log_->util_peak = std::max(log_->util_peak, util);
    log_->iter_last_end = t1;
    CloseIteration(log_);
  }
  return latency;
}

Status ObservedBackend::Release(const SimRequest& sr) {
  if (traced_) ++log_->release_calls;
  return Timed(Op::kRelease, sr.spec.id, [&] { return inner_->Release(sr); });
}

Status ObservedBackend::Convert(const SimRequest& sr, CacheType new_type) {
  if (traced_) ++log_->convert_calls;
  return Timed(Op::kConvert, sr.spec.id,
               [&] { return inner_->Convert(sr, new_type); });
}

StatusOr<bool> ObservedBackend::TrySwapOut(const SimRequest& sr) {
  return Timed(Op::kSwapOut, sr.spec.id,
               [&] { return inner_->TrySwapOut(sr); });
}

StatusOr<bool> ObservedBackend::TrySwapIn(const SimRequest& sr) {
  return Timed(Op::kSwapIn, sr.spec.id,
               [&] { return inner_->TrySwapIn(sr); });
}

StatusOr<aptserve::ExecutionBackend::StepOutcome>
ObservedBackend::ExecutePrefillChunk(const SimRequest& sr,
                                     CacheType cache_type, int32_t chunk) {
  auto out = Timed(Op::kPrefill, sr.spec.id, [&] {
    return inner_->ExecutePrefillChunk(sr, cache_type, chunk);
  });
  if (!out.ok() || out->out_of_memory) {
    if (traced_ && out.ok()) ++log_->oom_steps;
    return out;
  }
  if (out->token) log_->iter_tokens.push_back(sr.spec.id);
  const bool repass =
      sr.generated > 0 || sr.preemptions > 0 || sr.conversions > 0;
  if (out->prefix_skipped > 0 && skip_bounds_ != nullptr) {
    auto it = skip_bounds_->find(sr.spec.id);
    const int32_t bound =
        it == skip_bounds_->end()
            ? 0
            : (repass ? it->second.repass : it->second.first_pass);
    if (out->prefix_skipped > bound) ++log_->skip_violations;
  }
  if (traced_) {
    const int64_t computed = out->computed > 0 ? out->computed : chunk;
    ++log_->applied_items;
    log_->prefill_tokens += computed;
    if (repass) log_->recompute_tokens += computed;
    if (flop_model_ != nullptr) {
      const int64_t start = sr.prefill_progress + out->prefix_skipped;
      log_->flops += StepFlops(*flop_model_, computed,
                               computed * start + computed * (computed + 1) / 2,
                               0);
    }
  }
  return out;
}

StatusOr<aptserve::ExecutionBackend::StepOutcome>
ObservedBackend::ExecuteDecode(const SimRequest& sr) {
  auto out = Timed(Op::kDecode, sr.spec.id,
                   [&] { return inner_->ExecuteDecode(sr); });
  if (!out.ok() || out->out_of_memory) {
    if (traced_ && out.ok()) ++log_->oom_steps;
    return out;
  }
  if (out->token) log_->iter_tokens.push_back(sr.spec.id);
  if (traced_) {
    ++log_->applied_items;
    ++log_->decode_tokens;
    if (flop_model_ != nullptr) {
      const int64_t cached = sr.cached_tokens;
      log_->flops += StepFlops(
          *flop_model_, 1, cached + 1,
          sr.cache_type == CacheType::kHidden ? cached : 0);
    }
  }
  return out;
}

Status ObservedBackend::OnFinish(const SimRequest& sr) {
  return Timed(Op::kFinish, sr.spec.id, [&] { return inner_->OnFinish(sr); });
}

Status ObservedBackend::Finalize() {
  Status st = Timed(Op::kFinalize, -1, [&] { return inner_->Finalize(); });
  if (traced_) CloseIteration(log_);
  log_->finalized = true;
  log_->leftover_blocks = inner_->pool()->num_allocated() -
                          (index_blocks_ ? index_blocks_() : 0);
  return st;
}

int32_t ObservedBackend::ReclaimCache(int32_t min_blocks) {
  return Timed(Op::kReclaim, -1,
               [&] { return inner_->ReclaimCache(min_blocks); });
}

double StepFlops(const aptserve::ModelConfig& m, int64_t positions,
                 int64_t attended, int64_t reprojected) {
  const double d = m.d_model;
  const double per_position = 8.0 * d * d + 4.0 * d * m.d_ff;
  return m.n_layers * (positions * per_position + 4.0 * d * attended +
                       4.0 * d * d * reprojected) +
         2.0 * d * m.vocab_size;
}

StatusOr<int64_t> WriteChromeTrace(const Recorder& recorder,
                                   const std::string& path,
                                   int64_t max_spans) {
  const auto& logs = recorder.logs();
  if (logs.empty()) return Status::InvalidArgument("no instances recorded");
  const int64_t per_instance =
      std::max<int64_t>(1, max_spans / static_cast<int64_t>(logs.size()));
  std::vector<const Span*> spans;
  double origin = 0.0;
  bool have_origin = false;
  for (const InstanceLog& log : logs) {
    const int64_t take =
        std::min<int64_t>(per_instance, static_cast<int64_t>(log.spans.size()));
    for (int64_t i = 0; i < take; ++i) {
      spans.push_back(&log.spans[i]);
      if (!have_origin || log.spans[i].start < origin) {
        origin = log.spans[i].start;
        have_origin = true;
      }
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span* a, const Span* b) {
                     if (a->instance != b->instance) {
                       return a->instance < b->instance;
                     }
                     return a->start < b->start;
                   });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (const InstanceLog& log : logs) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"instance %d\"}}",
                 first ? "" : ",\n", log.instance, log.instance);
    first = false;
  }
  for (const Span* s : spans) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"request\": %lld, \"parent\": %d}}",
                 OpName(s->op), OpLayer(s->op), s->instance,
                 (s->start - origin) * 1e6,
                 std::max(0.0, s->end - s->start) * 1e6,
                 static_cast<long long>(s->request), s->parent);
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + path);

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto stats = aptserve::obs::ValidateChromeTrace(text.str());
  if (!stats.ok()) return stats.status();
  return static_cast<int64_t>(spans.size());
}

}  // namespace perfbench
