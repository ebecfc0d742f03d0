// Allocation regression: the guest kernel's paths (spin-then-yield barrier
// loop, futex sleep/wake, mutex and semaphore) run without touching the
// heap. This binary replaces the global operator new/delete with counting
// versions (legal per program; no other test is affected) and drives the
// whole stack — hypervisor, guest, Monitoring Module — through a steady
// window after a warm-up, asserting heap allocations per simulated event
// stay near zero. A continuation that captures more than std::function's
// local buffer, or a per-step container, shows up here as roughly one
// allocation per event or more.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/monitor.h"
#include "core/schedulers.h"
#include "experiments/paper.h"
#include "guest/guest_kernel.h"
#include "simcore/simulator.h"
#include "workloads/npb.h"
#include "workloads/synthetic.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace asman {
namespace {

/// Allocations per event allowed in the steady window. With nested closures
/// for continuations these windows read 3.6 (LU spin path), 1.4 (mutex) and
/// 0.15 (semaphore).
constexpr double kMaxAllocsPerEvent = 0.01;

/// Paper machine, idle Domain-0 (8 VCPUs) plus V1 (4 VCPUs, weight 32:
/// 22.2 % online rate) running `wl` under `kind`, non-work-conserving, with
/// the Monitoring Module attached under ASMan — the §5.2 single-VM stack.
struct Rig {
  sim::Simulator sim;
  std::unique_ptr<vmm::Hypervisor> hv;
  std::unique_ptr<guest::IdleGuest> dom0;
  std::unique_ptr<guest::GuestKernel> kernel;
  std::unique_ptr<core::MonitoringModule> monitor;
  std::unique_ptr<workloads::Workload> wl;

  Rig(core::SchedulerKind kind,
      std::unique_ptr<workloads::Workload> (*make)(sim::Simulator&)) {
    hv = core::make_scheduler(kind, sim, experiments::paper_machine(),
                              vmm::SchedMode::kNonWorkConserving);
    const vmm::VmId d0 = hv->create_vm("V0", 256, 8);
    dom0 = std::make_unique<guest::IdleGuest>(sim, *hv, d0, 8);
    hv->attach_guest(d0, dom0.get());
    const vmm::VmId v1 = hv->create_vm("V1", 32, 4);
    guest::GuestKernel::Config gc;
    gc.n_vcpus = 4;
    gc.seed = 7;
    kernel = std::make_unique<guest::GuestKernel>(sim, *hv, v1, gc);
    if (kind == core::SchedulerKind::kAsman) {
      monitor = std::make_unique<core::MonitoringModule>(
          sim, *hv, v1, core::MonitorConfig{});
      kernel->set_observer(monitor.get());
    }
    wl = make(sim);
    wl->deploy(*kernel);
    hv->attach_guest(v1, kernel.get());
    hv->start();
  }

  /// Heap allocations per event over [warm-up, warm-up + window].
  double allocs_per_event(double warmup_s, double window_s) {
    const auto& clock = sim::kDefaultClock;
    sim.run_until(clock.from_seconds_f(warmup_s));
    EXPECT_FALSE(kernel->all_threads_done()) << "warm-up outlived the load";
    const std::uint64_t a0 = g_allocations.load();
    const std::uint64_t e0 = sim.events_processed();
    sim.run_until(clock.from_seconds_f(warmup_s + window_s));
    const std::uint64_t allocs = g_allocations.load() - a0;
    const std::uint64_t events = sim.events_processed() - e0;
    EXPECT_FALSE(kernel->all_threads_done()) << "window outlived the load";
    EXPECT_GT(events, 10'000u);
    std::printf("%llu allocations over %llu events\n",
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(events));
    return static_cast<double>(allocs) / static_cast<double>(events);
  }
};

std::unique_ptr<workloads::Workload> npb_lu(sim::Simulator& s) {
  return workloads::make_npb(s, workloads::NpbBenchmark::kLU, 11, 4, 50);
}

std::unique_ptr<workloads::Workload> lock_hammer(sim::Simulator&) {
  return std::make_unique<workloads::LockHammerWorkload>(
      8, 1'000'000, sim::kDefaultClock.from_us(60),
      sim::kDefaultClock.from_us(15), 11);
}

std::unique_ptr<workloads::Workload> sem_ping_pong(sim::Simulator&) {
  return std::make_unique<workloads::SemaphorePingPongWorkload>(
      4, 1'000'000, sim::kDefaultClock.from_us(40), 11);
}

TEST(GuestAlloc, AsmanLuSpinPathDoesNotAllocate) {
  Rig r(core::SchedulerKind::kAsman, npb_lu);
  EXPECT_LE(r.allocs_per_event(1.0, 4.0), kMaxAllocsPerEvent);
}

TEST(GuestAlloc, MutexPathDoesNotAllocate) {
  Rig r(core::SchedulerKind::kCredit, lock_hammer);
  EXPECT_LE(r.allocs_per_event(0.5, 2.0), kMaxAllocsPerEvent);
}

TEST(GuestAlloc, SemaphorePathDoesNotAllocate) {
  Rig r(core::SchedulerKind::kCredit, sem_ping_pong);
  EXPECT_LE(r.allocs_per_event(0.5, 2.0), kMaxAllocsPerEvent);
}

}  // namespace
}  // namespace asman
