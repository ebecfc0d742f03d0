// Processor topology: sockets -> shared-LLC domains -> PCPUs.
//
// The paper's testbed is a dual-socket Dell Precision T5400: two quad-core
// Xeon X5410 (Harpertown) packages, each of which is really two dual-core
// dies sharing a 6 MB L2 — so a VCPU migration can stay inside a shared
// cache, cross cache domains within a package, or cross the FSB to the
// other package, at very different costs. `Topology` captures that shape
// for the placement layer and the migration cost model.
//
// A default-constructed Topology is "unspecified" and resolves to the flat
// single-domain topology at hypervisor construction; flat topologies make
// every distance check degenerate, so scheduling stays bit-identical to
// pre-topology builds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace asman::hw {

// Redeclared from machine.h (machine.h includes this header; an alias may
// legally be redeclared to the same type).
using PcpuId = std::uint32_t;

struct MachineConfig;

/// Distance class between two PCPUs, ordered by increasing migration cost.
enum class TopoDistance : std::uint8_t {
  kSelf = 0,     // same PCPU — no move at all
  kSameLlc,      // different PCPU behind the same last-level cache
  kSameSocket,   // same package, different LLC domain
  kCrossSocket,  // different package (cross-FSB/QPI)
};

class Topology {
 public:
  /// Unspecified: resolved to flat(num_pcpus) by the hypervisor.
  Topology() = default;

  /// Single socket, single LLC domain over `num_pcpus` PCPUs. Every
  /// inter-PCPU distance is kSameLlc, so topology-aware code degenerates
  /// to the classic flat behaviour.
  static Topology flat(std::uint32_t num_pcpus);

  /// Regular sockets x llcs_per_socket x pcpus_per_llc grid. PCPU ids are
  /// assigned socket-major (socket 0 holds the low ids).
  static Topology symmetric(std::uint32_t sockets,
                            std::uint32_t llcs_per_socket,
                            std::uint32_t pcpus_per_llc);

  /// The paper's testbed: 2 sockets x 2 shared-L2 pairs x 2 cores = 8.
  static Topology paper() { return symmetric(2, 2, 2); }

  bool specified() const { return !socket_.empty(); }
  /// True when there is at most one LLC domain: all distance classes
  /// collapse and placement behaves exactly like the flat scheduler.
  bool is_flat() const { return num_llcs_ <= 1; }

  std::uint32_t num_pcpus() const {
    return static_cast<std::uint32_t>(socket_.size());
  }
  std::uint32_t num_sockets() const { return num_sockets_; }
  std::uint32_t num_llcs() const { return num_llcs_; }

  std::uint32_t socket_of(PcpuId p) const { return socket_[p]; }
  std::uint32_t llc_of(PcpuId p) const { return llc_[p]; }
  const std::vector<PcpuId>& pcpus_in_socket(std::uint32_t s) const {
    return by_socket_[s];
  }

  TopoDistance distance(PcpuId a, PcpuId b) const {
    if (a == b) return TopoDistance::kSelf;
    if (socket_[a] != socket_[b]) return TopoDistance::kCrossSocket;
    if (llc_[a] != llc_[b]) return TopoDistance::kSameSocket;
    return TopoDistance::kSameLlc;
  }

 private:
  std::vector<std::uint32_t> socket_;  // per-PCPU socket index
  std::vector<std::uint32_t> llc_;     // per-PCPU global LLC-domain index
  std::vector<std::vector<PcpuId>> by_socket_;
  std::uint32_t num_sockets_{0};
  std::uint32_t num_llcs_{0};
};

/// Typed machine-configuration defects. A Hypervisor refuses to construct
/// over a config with any of these (silent misbehaviour — modulo-by-zero
/// placement, zero-length slots — is worse than a loud reject).
enum class ConfigError : std::uint8_t {
  kNoPcpus = 0,            // num_pcpus == 0
  kZeroFrequency,          // freq_hz == 0
  kZeroSlot,               // slot_ms == 0
  kZeroAccounting,         // slots_per_accounting == 0
  kZeroTimeslice,          // slots_per_timeslice == 0
  kTopologyLeafMismatch,   // topology leaf count != num_pcpus
  kZeroLlcCapacity,        // footprints declared but llc_bytes == 0
  kZeroMemBandwidth,       // footprints declared but socket bandwidth == 0
  kOutOfBounds,            // field outside core/bounds_spec.h's interval
};

const char* to_string(ConfigError e);

struct ConfigIssue {
  ConfigError kind;
  std::string what;
};

/// Validate a MachineConfig: one ConfigIssue per defect (empty = valid).
/// An unspecified topology is always valid (it resolves to flat). Beyond
/// the structural zero/mismatch checks, every numeric field is held to its
/// core/bounds_spec.h interval — the same interval asman-verify's
/// value-range proof assumes — so a config the proof did not cover cannot
/// construct a hypervisor.
std::vector<ConfigIssue> validate_config(const MachineConfig& m);

/// Validate the memory-system capacity fields against a declared workload
/// footprint. On a non-flat topology a nonzero footprint with zero
/// `llc_bytes` (or zero socket bandwidth) would silently disable the
/// contention engine; these are reported as counted typed errors instead
/// (the hypervisor surfaces them via `footprint_config_errors`). Vacuous
/// on flat topologies, where the engine is inert by contract.
std::vector<ConfigIssue> validate_footprint_config(const MachineConfig& m,
                                                   bool footprint_declared);

}  // namespace asman::hw
