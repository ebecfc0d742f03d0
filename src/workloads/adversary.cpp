#include "workloads/adversary.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "simcore/rng.h"
#include "workloads/synthetic.h"

namespace asman::workloads {

namespace {

Cycles us(std::uint64_t n) { return sim::kDefaultClock.from_us(n); }

/// Smallest compute worth issuing before a dodge window: below this the
/// dodger goes straight to sleep (a sub-syscall compute would only add
/// kernel entries without stealing anything).
constexpr std::uint64_t kMinChunk = 5'000;

/// Tick-dodging cycle stealer (arXiv 1103.0759 §4): compute up to `guard`
/// cycles before every sampling-grid instant, then sleep until `land`
/// cycles after it. Under tick-sampled accounting the VCPU is never the
/// one caught running at a sampling instant, so it consumes without ever
/// being charged — and every wake re-enters through the BOOST path for
/// free preemption priority on top.
class TickDodgeWorkload final : public AdversaryModel {
 public:
  using AdversaryModel::AdversaryModel;

  void deploy(guest::GuestKernel& g) override {
    sim::SplitMix64 seeds(seed_);
    for (std::uint32_t t = 0; t < threads_; ++t) {
      auto rng = std::make_shared<sim::Rng>(seeds.next());
      g.spawn(std::make_unique<LambdaProgram>([this, rng] {
                const std::uint64_t grid =
                    tune_.slot.v / std::max<std::uint32_t>(tune_.num_pcpus, 1);
                const std::uint64_t now = sim_.now().v;
                const std::uint64_t next = (now / grid + 1) * grid;
                const std::uint64_t stop =
                    next > tune_.guard.v ? next - tune_.guard.v : 0;
                if (stop > now + kMinChunk)
                  return guest::Op::compute(Cycles{stop - now});
                // Too close to the instant: vanish until just past it. The
                // small seeded jitter decorrelates sibling wake bursts.
                const std::uint64_t wake =
                    next + tune_.land.v + rng->next_below(tune_.land.v / 4 + 1);
                return guest::Op::sleep(Cycles{wake - now});
              }),
              t % g.num_vcpus());
    }
  }
};

/// BOOST farmer (arXiv 1103.0759 §5): sleep/wake oscillation faster than
/// the credit drain, so every wake re-earns Xen-style BOOST and jumps the
/// run queue. Thread phases are staggered so the VM always has a
/// freshly-boosted VCPU in flight.
class BoostFarmWorkload final : public AdversaryModel {
 public:
  using AdversaryModel::AdversaryModel;

  void deploy(guest::GuestKernel& g) override {
    sim::SplitMix64 seeds(seed_);
    const std::uint64_t period = tune_.burst.v + tune_.nap.v;
    for (std::uint32_t t = 0; t < threads_; ++t) {
      struct State {
        bool started{false};
        bool nap_next{false};
        sim::Rng rng;
      };
      auto st = std::make_shared<State>(State{false, false,
                                              sim::Rng(seeds.next())});
      const Cycles stagger{period * t / std::max<std::uint32_t>(threads_, 1) +
                           1};
      auto self = this;
      g.spawn(std::make_unique<LambdaProgram>([st, self, stagger] {
                if (!st->started) {
                  st->started = true;
                  return guest::Op::sleep(stagger);
                }
                if (st->nap_next) {
                  st->nap_next = false;
                  return guest::Op::sleep(Cycles{static_cast<std::uint64_t>(
                      st->rng.positive_jitter(
                          static_cast<double>(self->tune_.nap.v), 0.1))});
                }
                st->nap_next = true;
                return guest::Op::compute(Cycles{static_cast<std::uint64_t>(
                    st->rng.positive_jitter(
                        static_cast<double>(self->tune_.burst.v), 0.1))});
              }),
              t % g.num_vcpus());
    }
  }
};

/// VCRD liar: a plain CPU hog that reports VCRD HIGH straight through the
/// hypercall port — no Monitoring Module, no spinning, just a false claim
/// repeated every lie_period so any staleness TTL stays refreshed. Under
/// an unhardened ASMan the lie buys gang launches, IPI preemption of
/// neighbors and relocation service for a VM that never synchronizes.
class VcrdLiarWorkload final : public AdversaryModel {
 public:
  using AdversaryModel::AdversaryModel;

  void deploy(guest::GuestKernel& g) override {
    sim::SplitMix64 seeds(seed_);
    for (std::uint32_t t = 0; t < threads_; ++t) {
      auto rng = std::make_shared<sim::Rng>(seeds.next());
      g.spawn(std::make_unique<LambdaProgram>([rng] {
                return guest::Op::compute(Cycles{static_cast<std::uint64_t>(
                    rng->positive_jitter(static_cast<double>(us(200).v),
                                         0.05))});
              }),
              t % g.num_vcpus());
    }
  }

  void connect(sim::Simulator& simulation, vmm::HypervisorPort& port,
               vmm::VmId vm) override {
    port_ = &port;
    vm_ = vm;
    schedule_lie(simulation);
  }

 private:
  void schedule_lie(sim::Simulator& s) {
    s.after(tune_.lie_period, [this, &s] {
      port_->do_vcrd_op(vm_, vmm::Vcrd::kHigh);
      schedule_lie(s);
    });
  }

  vmm::HypervisorPort* port_{nullptr};
  vmm::VmId vm_{0};
};

/// Starvation flooder: an oversubscribed swarm of threads each doing a
/// sliver of work and blocking again, so the VM emits a continuous stream
/// of wakes — each one a BOOST-priority queue jump that preempts whoever
/// honest tenant was running.
class StarveFloodWorkload final : public AdversaryModel {
 public:
  using AdversaryModel::AdversaryModel;

  void deploy(guest::GuestKernel& g) override {
    sim::SplitMix64 seeds(seed_);
    for (std::uint32_t t = 0; t < threads_; ++t) {
      struct State {
        bool started{false};
        bool nap_next{false};
        sim::Rng rng;
      };
      auto st = std::make_shared<State>(State{false, false,
                                              sim::Rng(seeds.next())});
      const Cycles stagger{
          tune_.flood_nap.v * t / std::max<std::uint32_t>(threads_, 1) + 1};
      auto self = this;
      g.spawn(std::make_unique<LambdaProgram>([st, self, stagger] {
                if (!st->started) {
                  st->started = true;
                  return guest::Op::sleep(stagger);
                }
                if (st->nap_next) {
                  st->nap_next = false;
                  return guest::Op::sleep(Cycles{static_cast<std::uint64_t>(
                      st->rng.positive_jitter(
                          static_cast<double>(self->tune_.flood_nap.v),
                          0.2))});
                }
                st->nap_next = true;
                return guest::Op::compute(Cycles{static_cast<std::uint64_t>(
                    st->rng.positive_jitter(
                        static_cast<double>(self->tune_.flood_work.v),
                        0.2))});
              }),
              t % g.num_vcpus());
    }
  }
};

}  // namespace

const char* to_string(AttackKind k) {
  switch (k) {
    case AttackKind::kTickDodge:
      return "tick-dodge";
    case AttackKind::kBoostFarm:
      return "boost-farm";
    case AttackKind::kVcrdLie:
      return "vcrd-lie";
    case AttackKind::kStarveFlood:
      return "starve-flood";
  }
  return "?";
}

AdversaryTuning AdversaryTuning::resolved() const {
  AdversaryTuning t = *this;
  if (t.slot.v == 0) t.slot = sim::kDefaultClock.from_ms(10);
  if (t.num_pcpus == 0) t.num_pcpus = 4;
  if (t.guard.v == 0) t.guard = us(200);
  if (t.land.v == 0) t.land = us(50);
  if (t.burst.v == 0) t.burst = us(150);
  if (t.nap.v == 0) t.nap = us(120);
  if (t.lie_period.v == 0) t.lie_period = Cycles{t.slot.v * 2};
  if (t.flood_work.v == 0) t.flood_work = us(20);
  if (t.flood_nap.v == 0) t.flood_nap = us(30);
  return t;
}

std::unique_ptr<AdversaryModel> make_adversary(AttackKind kind,
                                               sim::Simulator& simulation,
                                               std::uint32_t vcpus,
                                               std::uint64_t seed,
                                               const AdversaryTuning& tune) {
  switch (kind) {
    case AttackKind::kTickDodge:
      return std::make_unique<TickDodgeWorkload>(simulation, kind, vcpus,
                                                 seed, tune);
    case AttackKind::kBoostFarm:
      return std::make_unique<BoostFarmWorkload>(simulation, kind, vcpus,
                                                 seed, tune);
    case AttackKind::kVcrdLie:
      return std::make_unique<VcrdLiarWorkload>(simulation, kind, vcpus,
                                                seed, tune);
    case AttackKind::kStarveFlood:
      return std::make_unique<StarveFloodWorkload>(simulation, kind,
                                                   3 * vcpus, seed, tune);
  }
  return nullptr;
}

}  // namespace asman::workloads
