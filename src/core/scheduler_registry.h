// Scheduler registry: builds a scheduler from the name the benches, sweep
// configs and reports use for it. The names are
//   vLLM         FcfsScheduler (the paper's vLLM baseline)
//   FCFS-hybrid  FcfsScheduler with hidden-cache fallback (Table 5)
//   Random       RandomScheduler
//   Sarathi      SarathiScheduler
//   FastGen      FastGenScheduler
//   Apt          AptScheduler
//   Apt*         AptScheduler with violation decay 0.4 (§6.6)
//   Apt-KVonly   AptScheduler without the hidden cache (Table 4)
//   Apt-S        AptSarathiScheduler (§6.5)
#pragma once

#include <memory>
#include <string>

#include "common/status.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"

namespace aptserve {

/// A fresh scheduler for `name`; the Apt family targets `slo`.
/// InvalidArgument for an unknown name.
StatusOr<std::unique_ptr<Scheduler>> MakeSchedulerByName(
    const std::string& name, const SloSpec& slo);

}  // namespace aptserve
