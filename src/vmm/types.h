// Shared VMM vocabulary types.
#pragma once

#include <cstdint>
#include <string>

#include "hw/machine.h"
#include "simcore/time.h"

namespace asman::vmm {

using sim::Cycles;
using hw::PcpuId;

/// Dense VM identifier (0 = administrator VM / Domain-0 by convention in
/// the paper's scenarios, but the VMM itself assigns ids in creation order).
/// Ids are never reused: a destroyed VM keeps its id as a tombstone so
/// statistics collected under that id stay addressable (docs/MODEL.md
/// "VM lifecycle & admission").
using VmId = std::uint32_t;

/// Returned by Hypervisor::create_vm when the admission controller
/// rejects the request; never a valid VM id.
inline constexpr VmId kInvalidVmId = 0xFFFFFFFFu;

/// Identifies one virtual CPU inside one VM.
struct VcpuKey {
  VmId vm{0};
  std::uint32_t idx{0};
  friend constexpr bool operator==(VcpuKey, VcpuKey) = default;
};

/// VCPU Related Degree (paper §3.1): HIGH means the VM's VCPUs are in a
/// locality of synchronization and must be coscheduled; LOW means they may
/// be scheduled asynchronously.
enum class Vcrd : std::uint8_t { kLow, kHigh };

/// Why a VM lost its coscheduling privileges (graceful degradation).
enum class DemoteReason : std::uint8_t { kVcrdFlap, kWatchdogStreak };

/// Administrator-declared VM type, used only by the *static* coscheduling
/// baseline (CON, the authors' earlier VEE'09 system): a VM manually typed
/// kConcurrent is always gang-scheduled. ASMan ignores this field.
enum class VmType : std::uint8_t { kGeneral, kConcurrent };

/// Credit scheduler capping mode (Cherkasova et al., and paper §5.2/5.3):
/// non-work-conserving = a VM's CPU time is strictly capped by its weight
/// share; work-conserving = the share is only a guarantee and idle capacity
/// is redistributed.
enum class SchedMode : std::uint8_t { kNonWorkConserving, kWorkConserving };

/// Where a VCPU currently is, from the scheduler's point of view.
enum class VcpuState : std::uint8_t {
  kRunning,    // mapped onto a PCPU right now (online)
  kRunnable,   // waiting in some PCPU's run queue
  kBlocked,    // halted by the guest (idle — no runnable guest work)
  kDestroyed,  // drained by destroy_vm/resize_vm; terminal, never scheduled
};

/// Run-queue priority classes, highest first. kCosched is the temporarily
/// raised priority Algorithm 4 installs via IPI from an *entitled* gang
/// head; kWake models Xen's BOOST for freshly woken VCPUs; kUnder/kOver
/// are the stock Credit classes (credit >= 0 / credit < 0); kWeakCosched
/// is a gang boost launched out of spare (OVER) capacity — it aligns the
/// gang ahead of other OVER VCPUs but yields to anything entitled.
enum class PrioClass : std::uint8_t {
  kCosched = 0,
  kWake = 1,
  kUnder = 2,
  kWeakCosched = 3,
  kOver = 4,
};

}  // namespace asman::vmm
