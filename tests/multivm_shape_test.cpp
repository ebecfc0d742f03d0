// Reduced-scale §5.3 shape assertions (the full-scale runs are
// `figures fig11` and `figures fig12` in bench/): with concurrent and
// high-throughput VMs sharing a host in work-conserving mode,
// coscheduling must rescue the concurrent VMs without starving anyone.
#include <gtest/gtest.h>

#include "experiments/paper.h"
#include "experiments/scenario.h"
#include "workloads/npb.h"
#include "workloads/speccpu.h"

namespace asman::experiments {
namespace {

WorkloadFactory mini_lu(std::uint64_t rounds) {
  return [rounds](sim::Simulator& s, std::uint64_t seed) {
    workloads::PhaseParams p =
        workloads::npb_params(workloads::NpbBenchmark::kLU);
    p.steps /= 6;
    p.rounds = rounds;
    return std::make_unique<workloads::PhaseWorkload>(s, "LU/6", p, seed);
  };
}

WorkloadFactory mini_cpu(std::uint64_t rounds) {
  return [rounds](sim::Simulator& s, std::uint64_t seed) {
    workloads::SpecCpuParams p;
    p.work_per_copy = sim::kDefaultClock.from_seconds_f(0.4);
    p.rounds = rounds;
    return std::make_unique<workloads::SpecCpuRateWorkload>(s, "mini-cpu", p,
                                                            seed);
  };
}

struct MixResult {
  double cpu_round;
  double lu_round;
};

MixResult run_mix(core::SchedulerKind k) {
  // 4 VMs x 4 VCPUs on 8 PCPUs: 2x overcommit, like the paper's Fig 11(a).
  Scenario sc = multi_vm_scenario(
      k,
      {{"cpu", mini_cpu(20)},
       {"cpu", mini_cpu(20)},
       {"LU", mini_lu(20)},
       {"LU", mini_lu(20)}},
      {false, false, true, true}, 3);
  const RunResult r = run_scenario(sc);
  return {r.vms[1].mean_round_seconds(3), r.vms[3].mean_round_seconds(3)};
}

class MultiVmShape : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    credit_ = new MixResult(run_mix(core::SchedulerKind::kCredit));
    asman_ = new MixResult(run_mix(core::SchedulerKind::kAsman));
    con_ = new MixResult(run_mix(core::SchedulerKind::kCon));
  }
  static MixResult* credit_;
  static MixResult* asman_;
  static MixResult* con_;
};

MixResult* MultiVmShape::credit_ = nullptr;
MixResult* MultiVmShape::asman_ = nullptr;
MixResult* MultiVmShape::con_ = nullptr;

TEST_F(MultiVmShape, EverybodyMakesProgressUnderAllSchedulers) {
  for (const MixResult* r : {credit_, asman_, con_}) {
    EXPECT_GT(r->cpu_round, 0.0);
    EXPECT_GT(r->lu_round, 0.0);
  }
}

TEST_F(MultiVmShape, CoschedulingRescuesTheConcurrentVm) {
  EXPECT_LT(asman_->lu_round, credit_->lu_round * 0.85);
  EXPECT_LT(con_->lu_round, credit_->lu_round * 0.85);
}

TEST_F(MultiVmShape, ThroughputVmTaxStaysBounded) {
  // The paper's key §5.3 claim: coscheduling costs the high-throughput
  // neighbour only a small amount (ASMan <= ~8 %, CON <= ~18 %). Allow
  // slack for the reduced scale.
  EXPECT_LT(asman_->cpu_round, credit_->cpu_round * 1.25);
  EXPECT_LT(con_->cpu_round, credit_->cpu_round * 1.35);
}

TEST(MultiVmFairness, FourTenantsShareEquallyLongRun) {
  // Four equal-weight spin-heavy VMs in WC mode: observed online shares
  // within a tolerance band of 1/4 of the machine each.
  Scenario sc = multi_vm_scenario(
      core::SchedulerKind::kAsman,
      {{"a", mini_lu(50)}, {"b", mini_lu(50)}, {"c", mini_lu(50)},
       {"d", mini_lu(50)}},
      {true, true, true, true}, 2);
  sc.horizon = sim::kDefaultClock.from_seconds_f(20.0);
  const RunResult r = run_scenario(sc);
  for (std::size_t i = 1; i <= 4; ++i) {
    EXPECT_NEAR(r.vms[i].observed_online_rate, 0.5, 0.12)
        << "VM " << i << " share off (4 VMs x 4 VCPUs on 8 PCPUs)";
  }
}

}  // namespace
}  // namespace asman::experiments
