// The single table of admitted value intervals.
//
// Every bounded configuration field, per-VM quantity, resilience knob and
// compiled credit/pressure constant has exactly one row here, and three
// readers share it:
//   - hw::validate_config rejects a MachineConfig field outside its
//     interval (ConfigError::kOutOfBounds, naming the field and this file);
//   - clamp_to_bounds holds the VMM's resilience knobs
//     (Hypervisor::start) and a new VM's weight (create_vm) to their
//     intervals;
//   - asman-lint's value-range prover (tools/asman_lint/absint.cpp) lexes
//     kFieldBounds and proves every credit and pressure expression
//     overflow-free for every configuration the table admits.
// Exact rows (lo == hi) pin compiled constants; the static_asserts next to
// those constants keep them equal. Knobs whose zero means "off" keep
// lo = 0. Widening a row widens what the prover must cover.
#pragma once

#include <algorithm>
#include <cstdint>

namespace asman::core {

struct FieldBounds {
  const char* name;
  long long lo;
  long long hi;
};

namespace field {
// MachineConfig fields (hw::validate_config).
inline constexpr char num_pcpus[] = "num_pcpus";
inline constexpr char freq_hz[] = "freq_hz";
inline constexpr char slot_ms[] = "slot_ms";
inline constexpr char slots_per_accounting[] = "slots_per_accounting";
inline constexpr char slots_per_timeslice[] = "slots_per_timeslice";
inline constexpr char ipi_latency_us[] = "ipi_latency_us";
inline constexpr char cross_llc_penalty_us[] = "cross_llc_penalty_us";
inline constexpr char cross_socket_penalty_us[] =
    "cross_socket_penalty_us";
inline constexpr char warm_cache_slots[] = "warm_cache_slots";
inline constexpr char llc_bytes[] = "llc_bytes";
inline constexpr char socket_mem_bw_bytes_per_s[] =
    "socket_mem_bw_bytes_per_s";
// Per-VM quantities (Hypervisor::create_vm, MigrationTicket::valid).
inline constexpr char weight[] = "weight";
inline constexpr char n_vcpus[] = "n_vcpus";
// Resilience / admission knobs (Hypervisor::start clamps).
inline constexpr char ipi_max_retries[] = "ipi_max_retries";
inline constexpr char watchdog_demote_after[] = "watchdog_demote_after";
inline constexpr char flap_limit[] = "flap_limit";
inline constexpr char boost_limit[] = "boost_limit";
inline constexpr char vcrd_min_yields[] = "vcrd_min_yields";
inline constexpr char max_vcpus_per_pcpu[] = "max_vcpus_per_pcpu";
inline constexpr char shed_level_ppm[] = "shed_level_ppm";
inline constexpr char restore_level_ppm[] = "restore_level_ppm";
// Exact rows: compiled constants.
inline constexpr char kCreditPerSlot[] = "kCreditPerSlot";
inline constexpr char kReferenceWeight[] = "kReferenceWeight";
inline constexpr char kSlowdownPpmPerExtraMissPermille[] =
    "kSlowdownPpmPerExtraMissPermille";
inline constexpr char kMaxSlowdownPpm[] = "kMaxSlowdownPpm";
}  // namespace field

inline constexpr FieldBounds kFieldBounds[] = {
    {field::num_pcpus, 1, 1024},
    {field::freq_hz, 1'000'000, 10'000'000'000},
    {field::slot_ms, 1, 1000},
    {field::slots_per_accounting, 1, 64},
    {field::slots_per_timeslice, 1, 64},
    {field::ipi_latency_us, 0, 10'000},
    {field::cross_llc_penalty_us, 0, 100'000},
    {field::cross_socket_penalty_us, 0, 100'000},
    {field::warm_cache_slots, 0, 1024},
    {field::llc_bytes, 0, 1'099'511'627'776},
    {field::socket_mem_bw_bytes_per_s, 0, 1'000'000'000'000},
    {field::weight, 1, 65'536},
    {field::n_vcpus, 1, 4096},
    {field::ipi_max_retries, 0, 16},
    {field::watchdog_demote_after, 0, 1024},
    {field::flap_limit, 1, 1024},
    {field::boost_limit, 0, 1024},
    {field::vcrd_min_yields, 0, 1024},
    {field::max_vcpus_per_pcpu, 0, 64},
    {field::shed_level_ppm, 1, 1'000'000},
    {field::restore_level_ppm, 0, 1'000'000},
    {field::kCreditPerSlot, 100'000, 100'000},
    {field::kReferenceWeight, 256, 256},
    {field::kSlowdownPpmPerExtraMissPermille, 400, 400},
    {field::kMaxSlowdownPpm, 800'000, 800'000},
};

constexpr bool bounds_name_eq(const char* a, const char* b) {
  while (*a != '\0' && *a == *b) {
    ++a;
    ++b;
  }
  return *a == *b;
}

/// The interval of `name`, or nullptr when the table has no such row.
constexpr const FieldBounds* bounds_of(const char* name) {
  for (const FieldBounds& b : kFieldBounds)
    if (bounds_name_eq(b.name, name)) return &b;
  return nullptr;
}

/// `v` held to the interval of `name`; unbounded names pass through.
template <typename T>
constexpr T clamp_to_bounds(const char* name, T v) {
  const FieldBounds* b = bounds_of(name);
  if (b == nullptr) return v;
  const long long x = static_cast<long long>(v);
  return static_cast<T>(std::clamp(x, b->lo, b->hi));
}

}  // namespace asman::core
