// The scheduler registry: every name the benches and sweep configs use
// builds its scheduler, and an unknown name fails closed.
#include "core/scheduler_registry.h"

#include <gtest/gtest.h>

namespace aptserve {
namespace {

TEST(SchedulerRegistryTest, MakeSchedulerByNameCoversBenchNamesAndFailsClosed) {
  const SloSpec slo{1.0, 1.0};
  for (const char* kind : {"vLLM", "Random", "Sarathi", "FastGen",
                           "FCFS-hybrid", "Apt", "Apt*", "Apt-KVonly",
                           "Apt-S"}) {
    auto sched = MakeSchedulerByName(kind, slo);
    ASSERT_TRUE(sched.ok()) << kind;
    EXPECT_NE(sched->get(), nullptr) << kind;
  }
  auto typo = MakeSchedulerByName("Apt-Typo", slo);
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace aptserve
