// VMM edge cases: relocation overflow, stealing constraints, boost expiry,
// charge statistics, strictness interactions.
#include <gtest/gtest.h>

#include "audit/auditor.h"
#include "core/schedulers.h"
#include "guest/guest_kernel.h"
#include "simcore/simulator.h"

namespace asman::vmm {
namespace {

using core::SchedulerKind;

hw::MachineConfig machine(std::uint32_t pcpus) {
  hw::MachineConfig m;
  m.num_pcpus = pcpus;
  return m;
}

Cycles seconds(double s) { return sim::kDefaultClock.from_seconds_f(s); }

class HogGuest final : public GuestPort {
 public:
  void vcpu_online(std::uint32_t) override {}
  void vcpu_offline(std::uint32_t) override {}
};

TEST(Relocation, MoreVcpusThanPcpusDoesNotCrash) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kAsman, s, machine(2),
                                 SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv->create_vm("wide", 256, 5);  // 5 VCPUs on 2 PCPUs
  hv->attach_guest(a, &g);
  hv->start();
  s.run_until(seconds(0.1));
  hv->do_vcrd_op(a, Vcrd::kHigh);
  s.run_until(s.now() + seconds(0.5));
  // No crash, and the VM still makes progress.
  EXPECT_GT(hv->vm(a).total_online.v, 0u);
}

TEST(Relocation, SingleVcpuVmIsTrivial) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kAsman, s, machine(2),
                                 SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv->create_vm("uni", 256, 1);
  hv->attach_guest(a, &g);
  hv->start();
  s.run_until(seconds(0.05));
  hv->do_vcrd_op(a, Vcrd::kHigh);
  s.run_until(s.now() + seconds(0.2));
  EXPECT_GT(hv->vm(a).total_online.ratio(s.now()), 0.9);
}

TEST(Stealing, IdlePcpuPullsQueuedWork) {
  // 1 VM with 2 hog VCPUs initially stacked by construction order on a
  // 2-PCPU machine: stealing must spread them within a couple of slots.
  sim::Simulator s;
  CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("A", 256, 2);
  hv.attach_guest(a, &g);
  hv.start();
  s.run_until(seconds(0.5));
  EXPECT_GT(hv.vm(a).total_online.ratio(s.now()), 1.8)
      << "both VCPUs should run nearly continuously on the two PCPUs";
}

TEST(Stealing, GangMembersNeverColocatedByBalancer) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kCon, s, machine(4),
                                 SchedMode::kWorkConserving);
  HogGuest g0, g1;
  const VmId conc = hv->create_vm("conc", 256, 4, VmType::kConcurrent);
  hv->attach_guest(conc, &g0);
  hv->attach_guest(hv->create_vm("bg", 256, 2), &g1);
  hv->start();
  // Sample: the concurrent VM's online members always sit on distinct
  // PCPUs (relocation invariant preserved under stealing).
  for (int i = 0; i < 200; ++i) {
    s.run_until(s.now() + sim::kDefaultClock.from_us(700));
    std::vector<int> on_pcpu(4, 0);
    for (const Vcpu& c : hv->vm(conc).vcpus)
      if (c.state == VcpuState::kRunning) ++on_pcpu[c.where];
    for (int n : on_pcpu) EXPECT_LE(n, 1);
  }
}

TEST(Charge, LongRunShareMatchesWeightsDespiteQuantization) {
  // The probabilistic slot-quantum charging must be unbiased: over a long
  // horizon, 3:1 weights give 3:1 time, across seeds.
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    sim::Simulator s;
    CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving, nullptr,
                       seed);
    HogGuest g0, g1;
    const VmId a = hv.create_vm("A", 384, 2);
    const VmId b = hv.create_vm("B", 128, 2);
    hv.attach_guest(a, &g0);
    hv.attach_guest(b, &g1);
    hv.start();
    s.run_until(seconds(6.0));
    const double ratio = static_cast<double>(hv.vm(a).total_online.v) /
                         static_cast<double>(hv.vm(b).total_online.v);
    EXPECT_NEAR(ratio, 3.0, 0.45) << "seed " << seed;
  }
}

TEST(Boost, CoschedBoostExpiresWithoutRefresh) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kAsman, s, machine(2),
                                 SchedMode::kWorkConserving);
  HogGuest g0, g1;
  const VmId a = hv->create_vm("a", 256, 2);
  hv->attach_guest(a, &g0);
  hv->attach_guest(hv->create_vm("b", 256, 2), &g1);
  hv->start();
  s.run_until(seconds(0.2));
  hv->do_vcrd_op(a, Vcrd::kHigh);
  s.run_until(s.now() + seconds(0.05));
  hv->do_vcrd_op(a, Vcrd::kLow);
  // After LOW, launches stop and every boost must decay within ~1 slot.
  s.run_until(s.now() + seconds(0.05));
  for (const Vcpu& c : hv->vm(a).vcpus) EXPECT_FALSE(c.cosched_boost);
}

TEST(Vcrd, HypercallForUnknownStateTransitions) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kAsman, s, machine(2),
                                 SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv->create_vm("a", 256, 2);
  hv->attach_guest(a, &g);
  hv->start();
  s.run_until(seconds(0.01));
  // LOW -> LOW is a no-op.
  hv->do_vcrd_op(a, Vcrd::kLow);
  s.run_until(s.now() + seconds(0.01));
  EXPECT_EQ(hv->vm(a).vcrd_high_transitions, 0u);
}

TEST(CreditBaseline, IgnoresVcrdAndTypes) {
  // The stock scheduler must not gang-schedule no matter what the VCRD or
  // VM type says.
  sim::Simulator s;
  CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g0, g1;
  const VmId a = hv.create_vm("a", 256, 2, VmType::kConcurrent);
  hv.attach_guest(a, &g0);
  hv.attach_guest(hv.create_vm("b", 256, 2), &g1);
  hv.start();
  s.run_until(seconds(0.1));
  hv.do_vcrd_op(a, Vcrd::kHigh);  // recorded, but inert
  s.run_until(s.now() + seconds(0.5));
  EXPECT_EQ(hv.vm(a).vcrd, Vcrd::kHigh);
  EXPECT_EQ(hv.cosched_events(), 0u);
  EXPECT_EQ(hv.ipi_bus().sent(), 0u);
}

TEST(Block, BlockingAQueuedVcpuRemovesIt) {
  sim::Simulator s;
  CreditScheduler hv(s, machine(1), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("a", 256, 2);  // 2 VCPUs on 1 PCPU
  hv.attach_guest(a, &g);
  hv.start();
  s.run_until(seconds(0.005));
  // One runs, one queues; block the queued one.
  const std::uint32_t queued = hv.vcpu_is_online(a, 0) ? 1 : 0;
  hv.vcpu_block(a, queued);
  s.run_until(s.now() + seconds(0.2));
  EXPECT_FALSE(hv.vcpu_is_online(a, queued));
  // The remaining VCPU owns the PCPU.
  EXPECT_GT(hv.vm(a).total_online.ratio(s.now()), 0.85);
}

TEST(Resume, QueuedVcpuWhoseHomeWentOfflineIsRehomed) {
  // B (1 VCPU) is placed first, so A's VCPUs land one per PCPU and A has
  // exactly one VCPU homed on each; two runnable hogs share PCPU 0.
  sim::Simulator s;
  CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId b = hv.create_vm("B", 256, 1);
  const VmId a = hv.create_vm("A", 256, 2);
  hv.attach_guest(b, &g);
  hv.attach_guest(a, &g);
  audit::Auditor auditor(s, hv);
  hv.start();
  s.run_until(seconds(0.005));
  // Pause while one of A's VCPUs waits in a run queue.
  std::uint32_t queued = 2;
  for (std::uint32_t i = 0; i < 2; ++i)
    if (hv.vm(a).vcpus[i].state == VcpuState::kRunnable) queued = i;
  ASSERT_LT(queued, 2u) << "no queued VCPU of A to pause";
  const PcpuId home = hv.vm(a).vcpus[queued].where;
  ASSERT_NE(hv.vm(a).vcpus[1 - queued].where, home);
  ASSERT_TRUE(hv.pause_vm(a));
  hv.fault_pcpu_offline(home);
  ASSERT_FALSE(hv.pcpu_is_online(home));
  const std::uint64_t migrations = hv.total_migrations();
  ASSERT_TRUE(hv.resume_vm(a));
  const Vcpu& moved = hv.vm(a).vcpus[queued];
  EXPECT_NE(moved.state, VcpuState::kBlocked);
  EXPECT_TRUE(hv.pcpu_is_online(moved.where));
  EXPECT_EQ(hv.total_migrations(), migrations + 1);
  s.run_until(s.now() + seconds(0.1));
  auditor.check_now();
  EXPECT_GT(auditor.report().total_checks(), 0u);
  EXPECT_TRUE(auditor.report().clean());
}

class OnlineRateAccuracy
    : public ::testing::TestWithParam<std::pair<std::uint32_t, double>> {};

TEST_P(OnlineRateAccuracy, NonWcObservedMatchesNominal) {
  sim::Simulator s;
  CreditScheduler hv(s, machine(8), SchedMode::kNonWorkConserving);
  const VmId dom0 = hv.create_vm("V0", 256, 8);
  guest::IdleGuest idle(s, hv, dom0, 8);
  hv.attach_guest(dom0, &idle);
  HogGuest hog;
  const VmId v1 = hv.create_vm("V1", GetParam().first, 4);
  hv.attach_guest(v1, &hog);
  hv.start();
  s.run_until(seconds(6.0));
  EXPECT_NEAR(hv.vm(v1).total_online.ratio(s.now()) / 4.0, GetParam().second,
              0.05);
}

INSTANTIATE_TEST_SUITE_P(
    PaperWeights, OnlineRateAccuracy,
    ::testing::Values(std::pair<std::uint32_t, double>{128, 0.6667},
                      std::pair<std::uint32_t, double>{64, 0.40},
                      std::pair<std::uint32_t, double>{32, 0.2222}));

}  // namespace
}  // namespace asman::vmm
