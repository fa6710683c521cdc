#include "core/scheduler_registry.h"

#include "baselines/fastgen_scheduler.h"
#include "baselines/fcfs_scheduler.h"
#include "baselines/random_scheduler.h"
#include "baselines/sarathi_scheduler.h"
#include "core/apt_sarathi_scheduler.h"
#include "core/apt_scheduler.h"

namespace aptserve {

StatusOr<std::unique_ptr<Scheduler>> MakeSchedulerByName(
    const std::string& name, const SloSpec& slo) {
  std::unique_ptr<Scheduler> out;
  if (name == "vLLM") {
    out = std::make_unique<FcfsScheduler>();
  } else if (name == "FCFS-hybrid") {
    FcfsConfig c;
    c.allow_hidden_fallback = true;
    out = std::make_unique<FcfsScheduler>(c);
  } else if (name == "Random") {
    out = std::make_unique<RandomScheduler>();
  } else if (name == "Sarathi") {
    out = std::make_unique<SarathiScheduler>();
  } else if (name == "FastGen") {
    out = std::make_unique<FastGenScheduler>();
  } else if (name == "Apt" || name == "Apt*" || name == "Apt-KVonly") {
    AptConfig c;
    c.slo = slo;
    if (name == "Apt*") c.violation_decay = 0.4;
    if (name == "Apt-KVonly") c.enable_hidden = false;
    out = std::make_unique<AptScheduler>(c);
  } else if (name == "Apt-S") {
    AptSarathiConfig c;
    c.slo = slo;
    out = std::make_unique<AptSarathiScheduler>(c);
  } else {
    return Status::InvalidArgument("unknown scheduler name: " + name);
  }
  return out;
}

}  // namespace aptserve
