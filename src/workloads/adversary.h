// Adversarial tenant models (docs/MODEL.md "Threat model & fairness
// guarantees").
//
// "Scheduler Vulnerabilities and Coordinated Attacks in Cloud Computing"
// (arXiv 1103.0759) showed Xen's credit scheduler is gameable by guests
// that understand its sampling: yield just before the 10 ms accounting
// tick and you are never charged (up to ~98% of a core stolen); oscillate
// between sleep and wake and you farm BOOST priority to starve neighbors.
// ASMan adds a third surface the paper never had to defend: the VCRD
// hypercall is guest-reported, so a liar can claim heavy spin-wait and win
// gang-scheduling privileges it did nothing to deserve.
//
// Each model here is one such attacker, built from the same guest-kernel
// primitives as the honest workloads and seeded-deterministic through the
// existing RNG discipline (sim::SplitMix64 seed splitting, one sim::Rng
// stream per thread) so every adversary run is bit-reproducible per seed.
// The attackers are *omniscient*: the tick-dodger reads the simulation
// clock directly, which over-approximates what a real guest infers from
// timing loops — a defense that survives the omniscient attacker survives
// the practical one.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "simcore/simulator.h"
#include "workloads/workload.h"

namespace asman::workloads {

enum class AttackKind : std::uint8_t {
  /// Compute between sampling instants, vanish across them: consumption
  /// without attribution (the arXiv 1103.0759 cycle stealer).
  kTickDodge,
  /// Sleep/wake oscillation tuned to re-earn Xen-style BOOST on every
  /// wake: latency priority without ever draining credit.
  kBoostFarm,
  /// CPU-bound guest that reports VCRD HIGH it cannot justify, farming
  /// ASMan's gang scheduling (coscheduled launches, IPI preemption of
  /// neighbors, relocation service).
  kVcrdLie,
  /// Wake storm: many threads blocking and kicking at high frequency so
  /// the BOOST queue-jump path preempts honest tenants continuously.
  kStarveFlood,
};

inline constexpr std::array<AttackKind, 4> kAllAttacks = {
    AttackKind::kTickDodge, AttackKind::kBoostFarm, AttackKind::kVcrdLie,
    AttackKind::kStarveFlood};

const char* to_string(AttackKind k);

/// Attack calibration. Defaults target the repo's stock machine (10 ms
/// slot at kDefaultClock, 4 PCPUs); scenario builders override slot /
/// num_pcpus from their hw::MachineConfig so the dodger aims at the real
/// sampling grid (per-PCPU ticks are staggered at multiples of
/// slot/num_pcpus — every grid instant is some PCPU's tick).
struct AdversaryTuning {
  /// Sampling slot length in cycles (0 = 10 ms at kDefaultClock).
  Cycles slot{0};
  /// PCPU count behind the tick stagger (grid period = slot/num_pcpus).
  std::uint32_t num_pcpus{4};
  /// Tick-dodge: stop computing this long before each grid instant (covers
  /// syscall entry + block latency) and resume this long after it.
  Cycles guard{0};  // 0 = 200 us
  Cycles land{0};   // 0 = 50 us
  /// Boost-farm oscillation: compute burst / sleep nap lengths.
  Cycles burst{0};  // 0 = 150 us
  Cycles nap{0};    // 0 = 120 us
  /// VCRD liar: re-report cadence (refreshes any staleness TTL).
  Cycles lie_period{0};  // 0 = 2 slots
  /// Starve-flood: per-thread work/nap lengths (threads = 3x VCPUs).
  Cycles flood_work{0};  // 0 = 20 us
  Cycles flood_nap{0};   // 0 = 30 us

  /// Memory footprint the attacker drags along (docs/MODEL.md §2.8): a
  /// cycle thief that also thrashes the shared LLC steals twice. Zero
  /// working set (the default) means no footprint — the contention engine
  /// never sees this tenant — so resolved() leaves these fields alone.
  std::uint64_t footprint_ws_bytes{0};
  std::uint64_t footprint_bw_bytes_per_s{0};
  std::uint32_t footprint_locality_permille{200};

  /// Resolve every zero field to its default.
  AdversaryTuning resolved() const;
};

/// Common base: an attack workload with its calibration and identity.
class AdversaryModel : public Workload {
 public:
  AdversaryModel(sim::Simulator& simulation, AttackKind kind,
                 std::uint32_t threads, std::uint64_t seed,
                 const AdversaryTuning& tune)
      : sim_(simulation),
        kind_(kind),
        threads_(threads),
        seed_(seed),
        tune_(tune.resolved()) {}

  AttackKind kind() const { return kind_; }
  std::string name() const override { return to_string(kind_); }
  bool finite() const override { return false; }
  hw::memsys::MemFootprint footprint() const override {
    if (tune_.footprint_ws_bytes == 0) return {};
    return hw::memsys::make_footprint(tune_.footprint_ws_bytes,
                                      tune_.footprint_bw_bytes_per_s,
                                      tune_.footprint_locality_permille);
  }

 protected:
  sim::Simulator& sim_;
  AttackKind kind_;
  std::uint32_t threads_;
  std::uint64_t seed_;
  AdversaryTuning tune_;
};

/// Factory: one thread per guest VCPU for kTickDodge/kBoostFarm/kVcrdLie,
/// 3x for kStarveFlood (the storm wants oversubscription).
std::unique_ptr<AdversaryModel> make_adversary(AttackKind kind,
                                               sim::Simulator& simulation,
                                               std::uint32_t vcpus,
                                               std::uint64_t seed,
                                               const AdversaryTuning& tune = {});

}  // namespace asman::workloads
