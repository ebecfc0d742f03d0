#include "hw/topology.h"

#include "core/bounds_spec.h"
#include "hw/machine.h"

namespace asman::hw {

const char* to_string(ConfigError e) {
  switch (e) {
    case ConfigError::kNoPcpus:
      return "no-pcpus";
    case ConfigError::kZeroFrequency:
      return "zero-frequency";
    case ConfigError::kZeroSlot:
      return "zero-slot";
    case ConfigError::kZeroAccounting:
      return "zero-accounting";
    case ConfigError::kZeroTimeslice:
      return "zero-timeslice";
    case ConfigError::kTopologyLeafMismatch:
      return "topology-leaf-mismatch";
    case ConfigError::kZeroLlcCapacity:
      return "zero-llc-capacity";
    case ConfigError::kZeroMemBandwidth:
      return "zero-mem-bandwidth";
    case ConfigError::kOutOfBounds:
      return "out-of-bounds";
  }
  return "?";
}

namespace {

/// Bounds-spec range check for one config field. Zero is exempt here: the
/// lo >= 1 fields already carry a dedicated typed zero-error above, and
/// for lo == 0 fields zero is legal ("feature off").
void check_bounds(const char* fld, std::uint64_t v,
                  std::vector<ConfigIssue>& issues) {
  const core::FieldBounds* b = core::bounds_of(fld);
  if (b == nullptr || v == 0) return;
  if (v < static_cast<std::uint64_t>(b->lo) ||
      v > static_cast<std::uint64_t>(b->hi))
    issues.push_back(
        {ConfigError::kOutOfBounds,
         std::string(fld) + " = " + std::to_string(v) +
             " is outside the bounds-spec interval [" + std::to_string(b->lo) +
             ", " + std::to_string(b->hi) +
             "] (src/core/bounds_spec.h) the value-range proof covers"});
}

}  // namespace

Topology Topology::flat(std::uint32_t num_pcpus) {
  return symmetric(1, 1, num_pcpus);
}

Topology Topology::symmetric(std::uint32_t sockets,
                             std::uint32_t llcs_per_socket,
                             std::uint32_t pcpus_per_llc) {
  Topology t;
  t.num_sockets_ = sockets;
  t.num_llcs_ = sockets * llcs_per_socket;
  const std::uint32_t n = sockets * llcs_per_socket * pcpus_per_llc;
  t.socket_.reserve(n);
  t.llc_.reserve(n);
  t.by_socket_.resize(sockets);
  for (std::uint32_t s = 0; s < sockets; ++s) {
    for (std::uint32_t l = 0; l < llcs_per_socket; ++l) {
      for (std::uint32_t c = 0; c < pcpus_per_llc; ++c) {
        const PcpuId p = static_cast<PcpuId>(t.socket_.size());
        t.socket_.push_back(s);
        t.llc_.push_back(s * llcs_per_socket + l);
        t.by_socket_[s].push_back(p);
      }
    }
  }
  return t;
}

std::vector<ConfigIssue> validate_config(const MachineConfig& m) {
  std::vector<ConfigIssue> issues;
  if (m.num_pcpus == 0)
    issues.push_back({ConfigError::kNoPcpus, "num_pcpus must be > 0"});
  if (m.freq_hz == 0)
    issues.push_back({ConfigError::kZeroFrequency, "freq_hz must be > 0"});
  if (m.slot_ms == 0)
    issues.push_back({ConfigError::kZeroSlot, "slot_ms must be > 0"});
  if (m.slots_per_accounting == 0)
    issues.push_back(
        {ConfigError::kZeroAccounting, "slots_per_accounting must be > 0"});
  if (m.slots_per_timeslice == 0)
    issues.push_back(
        {ConfigError::kZeroTimeslice, "slots_per_timeslice must be > 0"});
  if (m.topology.specified() && m.topology.num_pcpus() != m.num_pcpus)
    issues.push_back({ConfigError::kTopologyLeafMismatch,
                      "topology describes " +
                          std::to_string(m.topology.num_pcpus()) +
                          " PCPUs but num_pcpus is " +
                          std::to_string(m.num_pcpus)});
  check_bounds(core::field::num_pcpus, m.num_pcpus, issues);
  check_bounds(core::field::freq_hz, m.freq_hz, issues);
  check_bounds(core::field::slot_ms, m.slot_ms, issues);
  check_bounds(core::field::slots_per_accounting, m.slots_per_accounting,
               issues);
  check_bounds(core::field::slots_per_timeslice, m.slots_per_timeslice,
               issues);
  check_bounds(core::field::ipi_latency_us, m.ipi_latency_us, issues);
  check_bounds(core::field::cross_llc_penalty_us, m.cross_llc_penalty_us,
               issues);
  check_bounds(core::field::cross_socket_penalty_us, m.cross_socket_penalty_us,
               issues);
  check_bounds(core::field::warm_cache_slots, m.warm_cache_slots, issues);
  check_bounds(core::field::llc_bytes, m.llc_bytes, issues);
  check_bounds(core::field::socket_mem_bw_bytes_per_s,
               m.socket_mem_bw_bytes_per_s, issues);
  return issues;
}

std::vector<ConfigIssue> validate_footprint_config(const MachineConfig& m,
                                                   bool footprint_declared) {
  std::vector<ConfigIssue> issues;
  if (!footprint_declared) return issues;
  if (m.resolved_topology().is_flat()) return issues;  // engine inert by contract
  if (m.llc_bytes == 0)
    issues.push_back(
        {ConfigError::kZeroLlcCapacity,
         "a workload declares a nonzero memory footprint but llc_bytes is 0; "
         "the contention engine would be silently disabled"});
  if (m.socket_mem_bw_bytes_per_s == 0)
    issues.push_back(
        {ConfigError::kZeroMemBandwidth,
         "a workload declares a nonzero memory footprint but "
         "socket_mem_bw_bytes_per_s is 0; bandwidth pressure would be "
         "silently unmodeled"});
  return issues;
}

}  // namespace asman::hw
