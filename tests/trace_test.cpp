#include "simcore/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/monitor.h"
#include "core/schedulers.h"
#include "experiments/paper.h"
#include "guest/guest_kernel.h"
#include "workloads/npb.h"

namespace asman::sim {
namespace {

TraceRecord rec(Cycles at, TraceKind kind) { return {at, kind, 0, 0, 0, 0, 0}; }

TEST(Trace, RecordsWhenEnabled) {
  Trace t;
  t.emit(rec(Cycles{1}, TraceKind::kAccounting));
  t.emit({Cycles{2}, TraceKind::kLockSpin, 1, 2, 0, 3, 4});
  ASSERT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.records()[0].kind, TraceKind::kAccounting);
  EXPECT_EQ(t.records()[1].at, Cycles{2});
  EXPECT_EQ(t.records()[1].b, 4);
}

TEST(Trace, FilterByCategory) {
  Trace t;
  t.emit(rec(Cycles{1}, TraceKind::kVcpuOnline));
  t.emit(rec(Cycles{2}, TraceKind::kLockSpin));
  t.emit(rec(Cycles{3}, TraceKind::kLockAcquired));
  const auto locks = t.filter(TraceCat::kLock);
  ASSERT_EQ(locks.size(), 2u);
  EXPECT_EQ(locks[1].kind, TraceKind::kLockAcquired);
}

TEST(Trace, DumpTruncates) {
  Trace t;
  for (int i = 0; i < 50; ++i) t.emit(rec(Cycles{1}, TraceKind::kGuestHalt));
  const std::string d = t.dump(10);
  EXPECT_NE(d.find("truncated"), std::string::npos);
}

TEST(Trace, CategoryNames) {
  EXPECT_STREQ(trace_cat_name(TraceCat::kSched), "sched");
  EXPECT_STREQ(trace_cat_name(TraceCat::kCosched), "cosched");
  EXPECT_STREQ(trace_cat_name(TraceCat::kMonitor), "monitor");
  EXPECT_EQ(trace_cat(TraceKind::kVcpuOnline), TraceCat::kSched);
  EXPECT_EQ(trace_cat(TraceKind::kVcrdSet), TraceCat::kMonitor);
}

TEST(Trace, Clear) {
  Trace t;
  t.emit(rec(Cycles{1}, TraceKind::kGuestHalt));
  t.clear();
  EXPECT_TRUE(t.records().empty());
}

TEST(Trace, FormatsFieldsAndEnumNames) {
  EXPECT_EQ(format_record({Cycles{7}, TraceKind::kVcpuOnline, 1, 2, 3, 0, 0}),
            "[           7] sched    v1.2 online on P3");
  EXPECT_EQ(
      format_record({Cycles{0}, TraceKind::kCoschedLaunch, 4, 0, 6, 1, 0}),
      "[           0] cosched  launch vm4 from P6 (strong)");
  EXPECT_EQ(format_record({Cycles{0}, TraceKind::kOverloadShed, 0, 0, 0,
                           to_milli(2.5), to_milli(2.0)}),
            "[           0] monitor  overload shed: cosched off (load "
            "2500/2000 mVCPU/PCPU)");
  // An enum value the row does not name prints as its number.
  EXPECT_EQ(format_record({Cycles{0}, TraceKind::kVcrdSet, 1, 0, 0, 5, 0}),
            "[           0] monitor  vm1 VCRD -> 5");
  // Every row's text uses only placeholders the formatter knows.
#define ASMAN_TRACE_KIND_COUNT(kind, cat, text) +1
  constexpr int kKinds = 0 ASMAN_TRACE_KINDS(ASMAN_TRACE_KIND_COUNT);
#undef ASMAN_TRACE_KIND_COUNT
  for (int k = 0; k < kKinds; ++k) {
    const std::string line = format_record(
        {Cycles{0}, static_cast<TraceKind>(k), 1, 2, 3, 1, 5});
    EXPECT_EQ(line.find_first_of("%{}"), std::string::npos) << line;
  }
}

// The ASMan LU scenario of examples/schedule_timeline, shortened.
struct LuScenario {
  explicit LuScenario(Trace* trace)
      : hv(core::make_scheduler(core::SchedulerKind::kAsman, s, mach,
                                vmm::SchedMode::kNonWorkConserving, trace)),
        dom0(hv->create_vm("V0", 256, 8)),
        idle(s, *hv, dom0, 8),
        v1(hv->create_vm("V1", 32, 4, vmm::VmType::kConcurrent)),
        guest(s, *hv, v1, {.n_vcpus = 4, .seed = 7}, trace),
        monitor(s, *hv, v1, {}),
        wl(workloads::make_npb(s, workloads::NpbBenchmark::kLU, 7)) {
    hv->attach_guest(dom0, &idle);
    guest.set_observer(&monitor);
    wl->deploy(guest);
    hv->attach_guest(v1, &guest);
    hv->start();
    s.run_until(kDefaultClock.from_seconds_f(0.3));
  }

  Simulator s;
  hw::MachineConfig mach = experiments::paper_machine();
  std::unique_ptr<vmm::Hypervisor> hv;
  vmm::VmId dom0;
  guest::IdleGuest idle;
  vmm::VmId v1;
  guest::GuestKernel guest;
  core::MonitoringModule monitor;
  std::unique_ptr<workloads::Workload> wl;
};

TEST(Trace, RecordsAgreeWithCounters) {
  Trace trace;
  const LuScenario run(&trace);
  std::uint64_t online = 0, strong = 0, weak = 0;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> on_pcpu;
  for (const TraceRecord& r : trace.records()) {
    const auto key = std::make_pair(r.vm, r.vcpu);
    if (r.kind == TraceKind::kVcpuOnline) {
      ++online;
      EXPECT_EQ(on_pcpu.count(key), 0u) << format_record(r);
      on_pcpu[key] = r.pcpu;
    } else if (r.kind == TraceKind::kVcpuOffline) {
      auto it = on_pcpu.find(key);
      ASSERT_NE(it, on_pcpu.end()) << format_record(r);
      EXPECT_EQ(it->second, r.pcpu) << format_record(r);
      on_pcpu.erase(it);
    } else if (r.kind == TraceKind::kCoschedLaunch) {
      ++(r.a != 0 ? strong : weak);
    }
  }
  EXPECT_GT(online, 0u);
  EXPECT_GT(strong, 0u);
  EXPECT_EQ(online, run.hv->context_switches());
  EXPECT_EQ(strong, run.hv->strong_launches());
  EXPECT_EQ(weak, run.hv->weak_launches());
}

TEST(Trace, ObservationDoesNotPerturb) {
  Trace trace;
  const LuScenario traced(&trace);
  const LuScenario plain(nullptr);
  EXPECT_FALSE(trace.records().empty());
  EXPECT_EQ(traced.s.events_processed(), plain.s.events_processed());
  EXPECT_EQ(traced.hv->context_switches(), plain.hv->context_switches());
  EXPECT_EQ(traced.hv->cosched_events(), plain.hv->cosched_events());
}

}  // namespace
}  // namespace asman::sim
