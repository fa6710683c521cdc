// perfbench: the serving benchmark's main program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//   perfbench --repro <name>
//
// One run: set up the workload's inputs several times (setup_s is the
// median), serve each of its traces (replicas) once undecorated as the
// reference and check the outputs, then
//   --trace 0: bisect the offered rate for effective_rps (engine_burst:
//              the burst's goodput instead), repeat the reference work once
//              decorated with token stamps only (virtual latencies), then
//              alternate set-ups (setup_s) and plain repeats that must
//              reproduce the reference for --seconds; every end-to-end
//              metric is printed;
//   --trace 1: alternate undecorated and fully traced repeats for
//              --seconds; every per-layer metric is printed, and the latest
//              traced repeat is written as Chrome trace_event JSON plus a
//              per-layer self-time table under --out.
// Every decorated run must reproduce its reference bit for bit. The last
// line of stdout is the JSON result; perfbench/README.md defines every
// metric.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <malloc.h>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "engine/ops.h"
#include "observe.h"
#include "workloads.h"

namespace perfbench {
namespace {

using aptserve::Request;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = "perfbench-out";
  std::string repro;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      a->trace = value[0] == '1';
    } else if (key == "--out") {
      a->out_dir = value;
    } else if (key == "--repro") {
      a->repro = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && (have_workload || !a->repro.empty());
}

/// Quantile with linear interpolation between closest ranks (the rule the
/// program's SampleSet uses, so recomputed SLO verdicts match bit for bit).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Runs f(k) for k in [0, n) on up to hardware_concurrency threads.
template <typename F>
void ForEachParallel(size_t n, F&& f) {
  const size_t threads = std::min<size_t>(
      n, std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t k = next++; k < n; k = next++) f(k);
    });
  }
  for (std::thread& th : pool) th.join();
}

struct Verdict {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    correct = false;
  }
  /// Counts a serving run's requests; a run that errors fails all of them
  /// and makes the whole run incorrect: none of the workloads has a known
  /// failing operation, so any error is a fault of the program.
  bool Count(const RunOutput& out, size_t requests) {
    attempted += static_cast<int64_t>(requests);
    if (out.status.ok()) return true;
    failed += static_cast<int64_t>(requests);
    Check(false, "a serving run returned " + out.status.ToString());
    return false;
  }
};

/// Per-request SLO verdicts recomputed from first-token times and
/// inter-token gaps.
int64_t SloMet(const std::vector<Request>& trace,
               const std::vector<double>& ttft,
               const std::vector<std::vector<double>>& gaps,
               const aptserve::SloSpec& slo) {
  int64_t met = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const bool ttft_ok = ttft[i] >= 0 && ttft[i] <= slo.ttft_s;
    const bool tbt_ok = gaps[i].empty() || Quantile(gaps[i], 0.99) <= slo.tbt_p99_s;
    if (ttft_ok && tbt_ok) ++met;
  }
  return met;
}

/// Checks on an undecorated run that need only its own outputs.
void CheckPlainRun(const WorkloadSpec& spec, const std::vector<Request>& trace,
                   const RunOutput& out, Verdict* v) {
  int64_t expected_tokens = 0;
  for (const Request& r : trace) expected_tokens += r.output_len;
  v->Check(out.tokens_generated == expected_tokens,
           "generated tokens equal the sum of output lengths");
  v->Check(out.report.eligible_requests == static_cast<int64_t>(trace.size()),
           "every request is served and counted");
  v->Check(static_cast<int64_t>(out.report.ttfts.count()) ==
               static_cast<int64_t>(trace.size()),
           "every request has one first token");
  if (!out.is_fleet) {
    v->Check(out.leftover_blocks == 0,
             "no pool block is held by a request after the run");
    v->Check(out.records.size() == trace.size(), "one record per request");
    std::vector<double> ttft(trace.size(), -1.0);
    std::vector<std::vector<double>> gaps(trace.size());
    for (const Request& r : trace) {
      auto it = out.records.find(r.id);
      if (it == out.records.end()) {
        v->Check(false, "record of request " + std::to_string(r.id));
        return;
      }
      v->Check(it->second.finish_time >= 0, "every request finishes");
      v->Check(static_cast<int32_t>(it->second.tbt_samples.size()) ==
                   r.output_len - 1,
               "one gap per token after the first");
      ttft[r.id] = it->second.ttft;
      gaps[r.id] = it->second.tbt_samples;
    }
    v->Check(SloMet(trace, ttft, gaps, spec.slo) == out.report.slo_met_requests,
             "SLO attainment recomputed from the records equals the report's");
  }
}

/// Token stamps of one decorated run, grouped per request.
struct StampView {
  std::vector<double> ttft_v;                // virtual, per request
  std::vector<std::vector<double>> gaps_v;   // virtual, per request
  std::vector<double> ttft_w;                // wall, per request
  std::vector<double> gaps_w;                // wall, pooled
  std::vector<double> gaps_v_pooled;
  std::vector<double> tpot_v;  // virtual time per output token, per request
};

StampView ViewStamps(const WorkloadSpec& spec,
                     const std::vector<Request>& trace, const RunOutput& out,
                     const Recorder& rec, Verdict* v) {
  struct Tok {
    double vt, wt;
    int32_t inst;
  };
  const size_t n = trace.size();
  std::vector<std::vector<Tok>> per(n);
  for (const InstanceLog& log : rec.logs()) {
    for (const TokenStamp& t : log.tokens) {
      if (t.id < 0 || static_cast<size_t>(t.id) >= n) {
        v->Check(false, "token stamped for an unknown request");
        continue;
      }
      per[t.id].push_back({t.virtual_s, t.wall_s, log.instance});
    }
    if (out.is_fleet && log.finalized) {
      v->Check(log.leftover_blocks == 0,
               "no pool block is held by a request after the run");
    }
    v->Check(log.skip_violations == 0,
             "adopted prefix positions stay within the trace's own overlap");
  }
  StampView s;
  s.ttft_v.assign(n, -1.0);
  s.gaps_v.resize(n);
  s.ttft_w.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const Request& r = trace[i];
    std::vector<Tok>& toks = per[i];
    v->Check(static_cast<int32_t>(toks.size()) == r.output_len,
             "each request emits exactly output_len tokens");
    if (toks.empty()) continue;
    std::stable_sort(toks.begin(), toks.end(),
                     [](const Tok& a, const Tok& b) { return a.vt < b.vt; });
    s.ttft_v[i] = toks[0].vt - r.arrival;
    // Wall arrival: the first planned iteration on the serving instance
    // whose virtual clock had reached the request's arrival.
    const std::vector<PlanStamp>& plans = rec.logs()[toks[0].inst].plans;
    auto it = std::lower_bound(
        plans.begin(), plans.end(), r.arrival,
        [](const PlanStamp& p, double t) { return p.virtual_s < t; });
    const double wall_arrival = it != plans.end() ? it->wall_s : toks[0].wt;
    s.ttft_w[i] = toks[0].wt - wall_arrival;
    for (size_t k = 1; k < toks.size(); ++k) {
      s.gaps_v[i].push_back(toks[k].vt - toks[k - 1].vt);
      s.gaps_w.push_back(toks[k].wt - toks[k - 1].wt);
    }
    s.gaps_v_pooled.insert(s.gaps_v_pooled.end(), s.gaps_v[i].begin(),
                           s.gaps_v[i].end());
    if (toks.size() > 1) {
      s.tpot_v.push_back((toks.back().vt - toks[0].vt) / (toks.size() - 1));
    }
  }
  // The stamps must agree with what the program itself recorded.
  if (!out.records.empty()) {
    bool same = true;
    for (size_t i = 0; i < n && same; ++i) {
      auto rec_it = out.records.find(trace[i].id);
      same = rec_it != out.records.end() && rec_it->second.ttft == s.ttft_v[i] &&
             rec_it->second.tbt_samples == s.gaps_v[i];
    }
    v->Check(same, "stamped token times equal the loop's latency records");
  } else {
    std::vector<double> a = s.ttft_v;
    std::vector<double> b = out.report.ttfts.samples();
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    v->Check(a == b, "stamped first-token times equal the fleet report's");
  }
  v->Check(SloMet(trace, s.ttft_v, s.gaps_v, spec.slo) ==
               out.report.slo_met_requests,
           "SLO attainment recomputed from the token stamps equals the "
           "report's");
  return s;
}

void Append(const StampView& part, StampView* pooled) {
  pooled->ttft_v.insert(pooled->ttft_v.end(), part.ttft_v.begin(),
                        part.ttft_v.end());
  pooled->ttft_w.insert(pooled->ttft_w.end(), part.ttft_w.begin(),
                        part.ttft_w.end());
  pooled->gaps_w.insert(pooled->gaps_w.end(), part.gaps_w.begin(),
                        part.gaps_w.end());
  pooled->gaps_v_pooled.insert(pooled->gaps_v_pooled.end(),
                               part.gaps_v_pooled.begin(),
                               part.gaps_v_pooled.end());
  pooled->tpot_v.insert(pooled->tpot_v.end(), part.tpot_v.begin(),
                        part.tpot_v.end());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Metric {
  const char* name;
  const char* unit;
};

const Metric kEndToEnd[] = {
    {"effective_rps", "1/s"}, {"ttft_p50_s", "s"},  {"ttft_p99_s", "s"},
    {"tpot_p50_s", "s"},      {"tbt_p99_s", "s"},   {"instance_s", "s"},
    {"peak_rss_mb", "MB"},    {"setup_s", "s"},
};

const Metric kPerLayer[] = {
    {"wall.req_per_s", "1/s"},
    {"wall.tokens_per_s", "1/s"},
    {"wall.ttft_p50_s", "s"},
    {"wall.ttft_p90_s", "s"},
    {"wall.tbt_p50_s", "s"},
    {"wall.tbt_p99_s", "s"},
    {"serve.self_s", "s"},
    {"serve.iterations", "count"},
    {"serve.idle_iterations", "count"},
    {"serve.items_per_iter", "count"},
    {"core.plan_s", "s"},
    {"core.plan_us_p50", "us"},
    {"core.plan_us_p99", "us"},
    {"core.candidates_per_plan", "count"},
    {"core.preempt_items", "count"},
    {"core.convert_items", "count"},
    {"core.hidden_item_share", "ratio"},
    {"cache.release_calls", "count"},
    {"cache.convert_calls", "count"},
    {"cache.oom_steps", "count"},
    {"cache.pool_util_mean", "ratio"},
    {"cache.pool_util_peak", "ratio"},
    {"cache.recompute_token_share", "ratio"},
    {"prefix.hit_ratio", "ratio"},
    {"prefix.skipped_token_share", "ratio"},
    {"prefix.evicted_blocks", "count"},
    {"backend.call_s", "s"},
    {"backend.end_iter_s", "s"},
    {"backend.end_iter_us_p50", "us"},
    {"backend.end_iter_us_p99", "us"},
    {"backend.us_per_iter", "us"},
    {"backend.prefill_tokens", "count"},
    {"backend.decode_tokens", "count"},
    {"engine.gflop_per_s", "GFLOP/s"},
    {"router.probes_per_decision", "count"},
    {"router.mirror_nodes_walked", "count"},
    {"router.cell_fallback_share", "ratio"},
    {"fleet.ticks", "count"},
    {"fleet.migrations", "count"},
    {"fleet.migrations_with_cache", "count"},
    {"fleet.cold_starts", "count"},
    {"fleet.peak_instances", "count"},
    {"workload.trace_s", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

using MetricMap = std::map<std::string, double>;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// What the traced runs of one round saw, summed over replicas.
struct LayerTotals {
  RunOutput out;  // counters of the runs (Accumulate)
  double calls_s = 0, plan_s = 0, backend_s = 0, end_s = 0;
  std::vector<double> plan_us, end_us;
  int64_t plans = 0, spans = 0;
  InstanceLog sum;  // counters only
  std::map<std::string, std::pair<int64_t, double>> layers;  // calls, time
};

/// Folds one traced run into `t`.
void Fold(const Recorder& rec, const RunOutput& out, LayerTotals* t) {
  Accumulate(out, &t->out);
  for (const InstanceLog& log : rec.logs()) {
    t->spans += static_cast<int64_t>(log.spans.size());
    for (const Span& s : log.spans) {
      if (s.op == Op::kIteration) continue;
      const double d = s.end - s.start;
      t->calls_s += d;
      auto& [count, total] = t->layers[OpLayer(s.op)];
      ++count;
      total += d;
      if (s.op == Op::kPlan) {
        t->plan_s += d;
        t->plan_us.push_back(d * 1e6);
      } else if (std::strcmp(OpLayer(s.op), "backend") == 0) {
        t->backend_s += d;
        if (s.op == Op::kEnd) {
          t->end_s += d;
          t->end_us.push_back(d * 1e6);
        }
      }
    }
    InstanceLog& sum = t->sum;
    t->plans += static_cast<int64_t>(log.plans.size());
    sum.executed_iterations += log.executed_iterations;
    sum.applied_items += log.applied_items;
    sum.planned_items += log.planned_items;
    sum.hidden_items += log.hidden_items;
    sum.candidates += log.candidates;
    sum.preempt_items += log.preempt_items;
    sum.convert_items += log.convert_items;
    sum.release_calls += log.release_calls;
    sum.convert_calls += log.convert_calls;
    sum.oom_steps += log.oom_steps;
    sum.prefill_tokens += log.prefill_tokens;
    sum.recompute_tokens += log.recompute_tokens;
    sum.decode_tokens += log.decode_tokens;
    sum.flops += log.flops;
    sum.util_sum += log.util_sum;
    sum.util_peak = std::max(sum.util_peak, log.util_peak);
  }
}

/// Per-layer metrics of one round of traced runs.
MetricMap LayerMetrics(const WorkloadSpec& spec, const LayerTotals& t) {
  const InstanceLog& sum = t.sum;
  const RunOutput& out = t.out;
  const double executed = static_cast<double>(sum.executed_iterations);
  MetricMap m;
  m["serve.self_s"] = out.wall_s - t.calls_s;
  m["serve.iterations"] = static_cast<double>(t.plans);
  m["serve.idle_iterations"] = t.plans - executed;
  m["serve.items_per_iter"] = Ratio(sum.applied_items, executed);
  m["core.plan_s"] = t.plan_s;
  m["core.plan_us_p50"] = Quantile(t.plan_us, 0.5);
  m["core.plan_us_p99"] = Quantile(t.plan_us, 0.99);
  m["core.candidates_per_plan"] = Ratio(sum.candidates, t.plans);
  m["core.preempt_items"] = static_cast<double>(sum.preempt_items);
  m["core.convert_items"] = static_cast<double>(sum.convert_items);
  m["core.hidden_item_share"] = Ratio(sum.hidden_items, sum.planned_items);
  m["cache.release_calls"] = static_cast<double>(sum.release_calls);
  m["cache.convert_calls"] = static_cast<double>(sum.convert_calls);
  m["cache.oom_steps"] = static_cast<double>(sum.oom_steps);
  m["cache.pool_util_mean"] = Ratio(sum.util_sum, executed);
  m["cache.pool_util_peak"] = sum.util_peak;
  m["cache.recompute_token_share"] =
      Ratio(sum.recompute_tokens, sum.prefill_tokens);
  m["prefix.hit_ratio"] = Ratio(out.prefix.hits, out.prefix.lookups);
  m["prefix.skipped_token_share"] =
      Ratio(out.prefill_skipped, out.prefill_skipped + out.prefill_computed);
  m["prefix.evicted_blocks"] = static_cast<double>(out.prefix.evicted_blocks);
  m["backend.call_s"] = t.backend_s - t.end_s;
  m["backend.end_iter_s"] = t.end_s;
  m["backend.end_iter_us_p50"] = Quantile(t.end_us, 0.5);
  m["backend.end_iter_us_p99"] = Quantile(t.end_us, 0.99);
  m["backend.us_per_iter"] = Ratio(t.backend_s * 1e6, executed);
  m["backend.prefill_tokens"] = static_cast<double>(sum.prefill_tokens);
  m["backend.decode_tokens"] = static_cast<double>(sum.decode_tokens);
  m["engine.gflop_per_s"] =
      spec.kind == Kind::kEngine ? Ratio(sum.flops / 1e9, t.end_s) : 0.0;
  const aptserve::RouteCostStats& rc = out.route;
  m["router.probes_per_decision"] =
      Ratio(rc.instance_probes + rc.cell_probes, rc.decisions);
  m["router.mirror_nodes_walked"] = static_cast<double>(rc.mirror_nodes_walked);
  m["router.cell_fallback_share"] = Ratio(rc.cell_fallback_routed, rc.decisions);
  m["fleet.ticks"] = static_cast<double>(out.fleet.ticks);
  m["fleet.migrations"] = static_cast<double>(out.fleet.migrations);
  m["fleet.migrations_with_cache"] =
      static_cast<double>(out.fleet.migrations_with_cache);
  m["fleet.cold_starts"] = static_cast<double>(out.fleet.cold_starts);
  m["fleet.peak_instances"] =
      out.is_fleet ? static_cast<double>(out.fleet.peak_instances) : 1.0;
  m["trace.spans"] = static_cast<double>(t.spans);
  return m;
}

/// Self time per layer of one round of traced runs, as a text table.
std::string LayerTable(const LayerTotals& t) {
  std::map<std::string, std::pair<int64_t, double>> layers = t.layers;
  layers["serve"] = {0, t.out.wall_s - t.calls_s};
  std::string text;
  char line[160];
  std::snprintf(line, sizeof(line), "%-8s %10s %12s %8s\n", "layer", "calls",
                "self_s", "share");
  text += line;
  for (const auto& [name, ct] : layers) {
    std::snprintf(line, sizeof(line), "%-8s %10lld %12.6f %7.1f%%\n",
                  name.c_str(), static_cast<long long>(ct.first), ct.second,
                  100.0 * Ratio(ct.second, t.out.wall_s));
    text += line;
  }
  return text;
}

std::string Stamp(const Args& a, const WorkloadSpec& spec) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"hardware_concurrency\": %u, "
      "\"isa\": \"%s\", \"build_type\": \"%s\", \"engine_threads\": %d, "
      "\"fleet_threads\": 1, \"sim_threads\": 1}}",
      spec.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), aptserve::ops::ActiveIsa(),
      PERFBENCH_BUILD_TYPE,
      spec.kind == Kind::kEngine ? spec.engine_threads : 1);
  return buf;
}

void PrintResult(const Verdict& v, const MetricMap& values,
                 const Metric* metrics, size_t count) {
  std::string json = "{\"correct\": ";
  json += v.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(v.attempted);
  json += ", \"failed\": " + std::to_string(v.failed);
  json += ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < count; ++i) {
    auto it = values.find(metrics[i].name);
    const double x = it == values.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name,
                  std::isfinite(x) ? x : 0.0, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>]\n       perfbench --repro "
                 "<prefix_sharing_fleet|apt_s_prefix_sharing>\n");
    return 2;
  }
  if (!args.repro.empty()) return RunRepro(args.repro);
  auto spec_or = MakeSpec(args.workload);
  if (!spec_or.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", spec_or.status().ToString().c_str());
    return 2;
  }
  const WorkloadSpec spec = *spec_or;
  const std::string stamp = Stamp(args, spec);
  std::printf("%s\n", stamp.c_str());
  std::fflush(stdout);
  const double run_start = WallSeconds();
  auto phase = [&](const char* what) {
    std::fprintf(stderr, "perfbench: %-12s done at %.2f s\n", what,
                 WallSeconds() - run_start);
  };

  // ---- Set-up: build the inputs several times; report the median. ----------
  constexpr int kSetups = 5;
  std::vector<double> setup_s, trace_s;
  Inputs in;
  for (int i = 0; i < kSetups; ++i) {
    // Drop the previous set-up's inputs first, so that peak_rss_mb counts
    // one copy of them.
    in = Inputs{};
    double t = 0.0;
    const double t0 = WallSeconds();
    auto built = BuildInputs(spec, args.seed, &t);
    setup_s.push_back(WallSeconds() - t0);
    trace_s.push_back(t);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: inputs: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    in = std::move(*built);
  }
  int64_t requests_per_round = 0;
  for (const Replica& rep : in.replicas) {
    requests_per_round += static_cast<int64_t>(rep.trace.size());
    for (size_t i = 0; i < rep.trace.size(); ++i) {
      if (rep.trace[i].id != static_cast<aptserve::RequestId>(i)) {
        std::fprintf(stderr, "perfbench: trace ids must be 0..n-1\n");
        return 1;
      }
    }
  }
  phase("set-up");

  // ---- Reference runs (undecorated) and their checks. -----------------------
  Verdict v;
  std::vector<Fingerprint> ref_fp;
  std::vector<std::unordered_map<aptserve::RequestId, std::vector<int32_t>>>
      ref_tokens;
  RunOutput ref_total;
  for (const Replica& rep : in.replicas) {
    const RunOutput ref = Serve(spec, in.engine.get(), rep, rep.trace, nullptr);
    if (!v.Count(ref, rep.trace.size())) {
      const bool t = args.trace;
      PrintResult(v, {}, t ? kPerLayer : kEndToEnd,
                  t ? std::size(kPerLayer) : std::size(kEndToEnd));
      return 0;
    }
    ref_fp.push_back(FingerprintOf(ref));
    CheckPlainRun(spec, rep.trace, ref, &v);
    Accumulate(ref, &ref_total);
    for (const aptserve::FleetScaleEvent& e : ref.fleet.scale_events) {
      ref_total.fleet.scale_events.push_back(e);
    }
    if (spec.kind == Kind::kEngine) ref_tokens.push_back(ref.tokens);
  }
  // Peak memory of setting up and serving the reference work, read before
  // the reference generation's threads and the benchmark's own bookkeeping
  // (token stamps, spans) allocate.
  const double peak_rss_mb = PeakRssMb();
  if (spec.kind == Kind::kEngine) {
    // Each request alone on a fresh engine, replicas in parallel.
    std::vector<aptserve::StatusOr<
        std::unordered_map<aptserve::RequestId, std::vector<int32_t>>>>
        want(in.replicas.size(), aptserve::Status::Internal("not run"));
    ForEachParallel(in.replicas.size(), [&](size_t k) {
      want[k] = ReferenceTokens(spec, in.replicas[k].trace);
    });
    for (size_t k = 0; k < in.replicas.size(); ++k) {
      v.Check(want[k].ok(), "reference generation runs");
      for (const Request& r : in.replicas[k].trace) {
        auto got = ref_tokens[k].find(r.id);
        v.Check(want[k].ok() && got != ref_tokens[k].end() &&
                    got->second == want[k]->at(r.id),
                "request " + std::to_string(r.id) +
                    " generates the tokens it generates alone on a fresh "
                    "engine");
      }
    }
  }
  if (spec.kind == Kind::kEngine || spec.name == "sim_longbench") {
    v.Check(ref_total.report.preemptions > 0, "the runs preempt");
    v.Check(ref_total.report.conversions > 0, "the runs convert cache types");
  }
  if (spec.kind == Kind::kFleet) {
    int64_t ups = 0, drains = 0;
    for (const aptserve::FleetScaleEvent& e : ref_total.fleet.scale_events) {
      ups += e.kind == aptserve::FleetScaleEvent::Kind::kAdd;
      drains += e.kind == aptserve::FleetScaleEvent::Kind::kDrainStart;
    }
    v.Check(ups > 0, "the fleet scales up");
    v.Check(drains > 0, "the fleet drains");
  }
  std::fprintf(stderr, "perfbench: reference attainment %.4f\n",
               Ratio(ref_total.report.slo_met_requests,
                     ref_total.report.eligible_requests));
  phase("reference");
  auto check_same = [&](const RunOutput& out, size_t k, const char* what) {
    const Fingerprint fp = FingerprintOf(out);
    v.Check(fp.tokens == ref_fp[k].tokens,
            std::string(what) + " run reproduces the token streams");
    v.Check(fp.report == ref_fp[k].report,
            std::string(what) + " run reproduces the SloReport");
    v.Check(fp.fleet == ref_fp[k].fleet,
            std::string(what) + " run reproduces the FleetMetrics");
  };

  // One stamped repeat of the reference work: token stamps of every
  // replica, pooled, and the summed run outputs.
  auto stamped_round = [&](StampView* round, RunOutput* total) {
    for (size_t k = 0; k < in.replicas.size(); ++k) {
      const Replica& rep = in.replicas[k];
      Recorder rec(/*traced=*/false);
      const RunOutput out = Serve(spec, in.engine.get(), rep, rep.trace, &rec);
      if (!v.Count(out, rep.trace.size())) return;
      check_same(out, k, "a stamped");
      Append(ViewStamps(spec, rep.trace, out, rec, &v), round);
      Accumulate(out, total);
    }
  };

  MetricMap values;
  if (!args.trace) {
    // ---- effective_rps: bisection on the offered rate. ----------------------
    // Probes are virtual-time runs of the analytic backend, so replicas
    // serve in parallel.
    auto attainment = [&](double rate) {
      std::vector<RunOutput> outs(in.replicas.size());
      ForEachParallel(in.replicas.size(), [&](size_t k) {
        outs[k] = Serve(spec, nullptr, in.replicas[k],
                        AtRate(in.replicas[k], rate), nullptr);
      });
      int64_t met = 0, eligible = 0;
      for (size_t k = 0; k < outs.size(); ++k) {
        if (!v.Count(outs[k], in.replicas[k].trace.size())) return 0.0;
        met += outs[k].report.slo_met_requests;
        eligible += static_cast<int64_t>(in.replicas[k].trace.size());
      }
      const double a = Ratio(met, eligible);
      std::fprintf(stderr, "perfbench: rate %.4f attainment %.4f\n", rate, a);
      return a;
    };
    if (spec.kind == Kind::kEngine) {
      values["effective_rps"] = Ratio(ref_total.report.slo_met_requests,
                                      ref_total.report.total_serving_time);
    } else {
      const double target = spec.attain_target;
      double lo = spec.bisect_lo, hi = spec.bisect_hi;
      v.Check(attainment(lo) >= target,
              "attainment meets the target at the bracket's low end");
      v.Check(attainment(hi) < target,
              "attainment misses the target at the bracket's high end");
      for (int i = 0; i < spec.bisect_steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        (attainment(mid) >= target ? lo : hi) = mid;
      }
      values["effective_rps"] = lo;
    }
    phase("bisection");

    // ---- Virtual-time latency from a stamped repeat. ------------------------
    StampView round;
    RunOutput total;
    stamped_round(&round, &total);
    values["ttft_p50_s"] = Quantile(round.ttft_v, 0.5);
    values["ttft_p99_s"] = Quantile(round.ttft_v, 0.99);
    values["tpot_p50_s"] = Quantile(round.tpot_v, 0.5);
    values["tbt_p99_s"] = Quantile(round.gaps_v_pooled, 0.99);
    values["instance_s"] = total.is_fleet ? total.fleet.instance_seconds
                                          : total.report.total_serving_time;
    values["peak_rss_mb"] = peak_rss_mb;

    // ---- For --seconds: set-ups, and plain repeats that must reproduce. ----
    // Their wall time is not reported: on fixed work it is the program's
    // speed, but the medians of two sets of ten runs of the same code moved
    // by 30 % with the machine (perfbench/README.md), more than any bound a
    // regression gate may use. The traced run reports it per layer.
    const double timed_start = WallSeconds();
    int rounds = 0;
    while (v.correct && WallSeconds() - timed_start < args.seconds) {
      {  // a set-up whose inputs are dropped before the repeat
        double unused = 0.0;
        const double t0 = WallSeconds();
        auto built = BuildInputs(spec, args.seed, &unused);
        setup_s.push_back(WallSeconds() - t0);
        v.Check(built.ok(), "set-up succeeds again");
      }
      for (size_t k = 0; k < in.replicas.size(); ++k) {
        const Replica& rep = in.replicas[k];
        const RunOutput out = Serve(spec, in.engine.get(), rep, rep.trace, nullptr);
        if (!v.Count(out, rep.trace.size())) break;
        check_same(out, k, "a repeated");
      }
      ++rounds;
    }
    values["setup_s"] = Median(setup_s);
    std::fprintf(stderr, "perfbench: %d repeats, %zu set-ups\n", rounds,
                 setup_s.size());
    PrintResult(v, values, kEndToEnd, std::size(kEndToEnd));
    return 0;
  }

  // ---- Traced mode: alternate stamped and traced repeats. --------------------
  // Stamped repeats give the wall-clock speed metrics; traced repeats the
  // per-layer ones. Spans are kept for the first replica of the latest
  // traced repeat only (the Chrome trace); the other replicas fold into the
  // totals and are dropped.
  const double timed_start = WallSeconds();
  std::vector<double> stamped_wall, traced_wall;
  std::vector<MetricMap> layer_runs;
  std::unique_ptr<Recorder> kept;
  LayerTotals last;
  while (layer_runs.size() < 3 || WallSeconds() - timed_start < args.seconds) {
    StampView round;
    RunOutput total;
    stamped_round(&round, &total);
    stamped_wall.push_back(total.wall_s);
    LayerTotals totals;
    for (size_t k = 0; k < in.replicas.size(); ++k) {
      const Replica& rep = in.replicas[k];
      auto rec = std::make_unique<Recorder>(/*traced=*/true);
      const RunOutput out = Serve(spec, in.engine.get(), rep, rep.trace, rec.get());
      if (!v.Count(out, rep.trace.size())) break;
      check_same(out, k, "a traced");
      ViewStamps(spec, rep.trace, out, *rec, &v);
      Fold(*rec, out, &totals);
      if (k == 0) kept = std::move(rec);
    }
    traced_wall.push_back(totals.out.wall_s);
    MetricMap m = LayerMetrics(spec, totals);
    m["wall.req_per_s"] = Ratio(requests_per_round, total.wall_s);
    m["wall.tokens_per_s"] = Ratio(total.tokens_generated, total.wall_s);
    m["wall.ttft_p50_s"] = Quantile(round.ttft_w, 0.5);
    m["wall.ttft_p90_s"] = Quantile(round.ttft_w, 0.9);
    m["wall.tbt_p50_s"] = Quantile(round.gaps_w, 0.5);
    m["wall.tbt_p99_s"] = Quantile(round.gaps_w, 0.99);
    layer_runs.push_back(std::move(m));
    last = std::move(totals);
  }
  for (const Metric& m : kPerLayer) {
    std::vector<double> xs;
    for (const MetricMap& run : layer_runs) {
      auto it = run.find(m.name);
      if (it != run.end()) xs.push_back(it->second);
    }
    if (!xs.empty()) values[m.name] = Median(xs);
  }
  values["workload.trace_s"] = Median(trace_s);
  values["trace.overhead_pct"] =
      100.0 * (Ratio(Median(traced_wall), Median(stamped_wall)) - 1.0);
  if (kept) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string base = args.out_dir + "/" + spec.name;
    auto written = WriteChromeTrace(*kept, base + "_trace.json", 100000);
    v.Check(written.ok(), "the Chrome trace is valid trace_event JSON" +
                              (written.ok() ? std::string()
                                            : ": " + written.status().ToString()));
    const std::string table = LayerTable(last);
    std::ofstream(base + "_layers.txt") << stamp << "\n" << table;
    std::fprintf(stderr, "%s", table.c_str());
  }
  PrintResult(v, values, kPerLayer, std::size(kPerLayer));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Pin glibc's mmap threshold at its default: left dynamic, it rises when
  // a thread frees a large mmapped buffer, and whether that happens before
  // the next large allocation depends on thread timing, which made the
  // engine's peak RSS jump between two values from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  return perfbench::Main(argc, argv);
}
