#include "audit/auditor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "vmm/state_spec.h"

namespace asman::audit {

namespace {

bool env_truthy(const char* name) {
  // The auditor's arming switch is host configuration, read once outside
  // the simulated world. asman-lint's determinism check proves this shape
  // directly (confined host-config read: the pointer binds to a const
  // local used only in comparisons/strcmp and never escapes), so no
  // allow(...) pragma is needed.
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

const char* state_name(vmm::VcpuState s) {
  switch (s) {
    case vmm::VcpuState::kRunning:
      return "Running";
    case vmm::VcpuState::kRunnable:
      return "Runnable";
    case vmm::VcpuState::kBlocked:
      return "Blocked";
    case vmm::VcpuState::kDestroyed:
      return "Destroyed";
  }
  return "?";
}

std::string key_str(vmm::VcpuKey k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%u.%u", k.vm, k.idx);
  return buf;
}

}  // namespace

bool audit_env_enabled() { return env_truthy("ASMAN_AUDIT"); }
bool audit_fatal_env() { return env_truthy("ASMAN_AUDIT_FATAL"); }

Auditor::Auditor(sim::Simulator& simulation, vmm::Hypervisor& hv,
                 AuditorConfig cfg)
    : sim_(simulation), hv_(hv), cfg_(cfg) {
  if (cfg_.stride == 0) cfg_.stride = 1;
  if (audit_fatal_env()) cfg_.fatal = true;
  clock_ = [this] { return sim_.now(); };
  snapshot_states();
  hv_.set_audit_sink(this);
}

Auditor::~Auditor() {
  if (hv_.audit_sink() == this) hv_.set_audit_sink(nullptr);
}

void Auditor::set_clock(std::function<sim::Cycles()> clock) {
  clock_ = std::move(clock);
}

void Auditor::flag(Invariant inv, std::string what) {
  AuditReport::Entry& e = report_.entry(inv);
  ++e.violations;
  if (e.violations == 1) {
    e.first_offender = what;
    e.first_at = clock_();
  }
  if (cfg_.fatal) {
    std::fprintf(stderr, "%s", report_.summary().c_str());
    std::fprintf(stderr, "ASMAN_AUDIT_FATAL: invariant %s violated at %llu: %s\n",
                 to_string(inv), static_cast<unsigned long long>(clock_().v),
                 what.c_str());
    std::abort();
  }
}

void Auditor::observe_time() {
  const sim::Cycles t = clock_();
  ++report_.entry(Invariant::kTimeMonotonic).checks;
  if (saw_time_ && t < last_time_)
    flag(Invariant::kTimeMonotonic,
         "event time went backwards: " + std::to_string(last_time_.v) +
             " -> " + std::to_string(t.v));
  saw_time_ = true;
  last_time_ = t;
}

void Auditor::snapshot_pools() {
  pool_before_.assign(hv_.num_vms(), 0);
  for (vmm::VmId id = 0; id < hv_.num_vms(); ++id) {
    std::int64_t pool = 0;
    for (const vmm::Vcpu& c : hv_.vm(id).vcpus) pool += c.credit;
    pool_before_[id] = pool;
  }
}

void Auditor::snapshot_states() {
  shadow_.assign(hv_.num_vms(), {});
  for (vmm::VmId id = 0; id < hv_.num_vms(); ++id) {
    const vmm::Vm& v = hv_.vm(id);
    shadow_[id].reserve(v.num_vcpus());
    for (const vmm::Vcpu& c : v.vcpus) shadow_[id].push_back(c.state);
  }
}

void Auditor::check_now() {
  ++report_.full_scans;
  std::vector<Violation> found;
  report_.entry(Invariant::kCreditBounds).checks +=
      check_credit_bounds(hv_, found);
  report_.entry(Invariant::kQueuePartition).checks +=
      check_queue_partition(hv_, scratch_, found);
  report_.entry(Invariant::kGangCoherence).checks +=
      check_gang_coherence(hv_, scratch_, found);
  report_.entry(Invariant::kCycleConservation).checks +=
      check_cycle_conservation(hv_, found);
  report_.entry(Invariant::kPressureConservation).checks +=
      check_pressure_conservation(hv_, found);
  // Shadow consistency: the hypervisor's actual lifecycle states must match
  // what the legal transition stream implies.
  for (vmm::VmId id = 0; id < hv_.num_vms() && id < shadow_.size(); ++id) {
    const vmm::Vm& v = hv_.vm(id);
    for (std::uint32_t i = 0; i < v.num_vcpus() && i < shadow_[id].size();
         ++i) {
      ++report_.entry(Invariant::kStateMachine).checks;
      if (v.vcpus[i].state != shadow_[id][i])
        found.push_back(
            {Invariant::kStateMachine,
             key_str(v.vcpus[i].key) + " is " + state_name(v.vcpus[i].state) +
                 " but the transition stream says " +
                 state_name(shadow_[id][i])});
    }
  }
  for (Violation& viol : found) flag(viol.kind, std::move(viol.what));
}

void Auditor::on_sched_event(vmm::AuditPoint p) {
  ++report_.events;
  observe_time();
  if (p == vmm::AuditPoint::kAccountingBegin) {
    snapshot_pools();
    return;  // mid-entry: the full scan runs at kAccountingEnd
  }
  if (++scan_counter_ % cfg_.stride == 0) check_now();
}

void Auditor::on_state_change(vmm::VcpuKey k, vmm::VcpuState from,
                              vmm::VcpuState to) {
  ++report_.events;
  observe_time();
  AuditReport::Entry& e = report_.entry(Invariant::kStateMachine);
  ++e.checks;
  // The legal relation lives in vmm/state_spec.h — one definition shared
  // with asman-lint's static state-machine proof.
  if (!vmm::legal_transition(from, to))
    flag(Invariant::kStateMachine, key_str(k) + " illegal transition " +
                                       state_name(from) + " -> " +
                                       state_name(to));
  if (k.vm < shadow_.size() && k.idx < shadow_[k.vm].size()) {
    if (shadow_[k.vm][k.idx] != from)
      flag(Invariant::kStateMachine,
           key_str(k) + " transition claims from=" + std::string(state_name(from)) +
               " but the VCPU was " + state_name(shadow_[k.vm][k.idx]));
    shadow_[k.vm][k.idx] = to;
  }
}

void Auditor::on_accounting(vmm::VmId id, std::int64_t minted) {
  ++report_.events;
  observe_time();
  AuditReport::Entry& e = report_.entry(Invariant::kCreditConservation);
  ++e.checks;
  const vmm::Vm& v = hv_.vm(id);
  const hw::MachineConfig& m = hv_.machine();
  // Widened exactly like the scheduler's own mint computation: the int64
  // product of num_pcpus * kCreditPerSlot * slots_per_accounting overflows
  // (UB) well inside the valid config space.
  const std::int64_t total_mint =
      static_cast<std::int64_t>(static_cast<__int128>(m.num_pcpus) *
                                vmm::kCreditPerSlot *
                                m.slots_per_accounting);
  if (minted < 0 || minted > total_mint) {
    flag(Invariant::kCreditConservation,
         v.name + " minted " + std::to_string(minted) +
             " outside [0, " + std::to_string(total_mint) + "]");
    return;
  }
  if (id >= pool_before_.size()) return;  // attached mid-period: no baseline
  // Recompute Algorithm 3's redistribution: pool + mint, split equally
  // (C++ truncating division, as the scheduler does), saturated at +cap.
  const auto n = static_cast<std::int64_t>(v.num_vcpus());
  const std::int64_t per = (pool_before_[id] + minted) / n;
  const std::int64_t expect = std::min<std::int64_t>(per, hv_.credit_cap());
  for (const vmm::Vcpu& c : v.vcpus) {
    if (c.credit != expect) {
      flag(Invariant::kCreditConservation,
           key_str(c.key) + " credit " + std::to_string(c.credit) +
               " after accounting, expected " + std::to_string(expect) +
               " (pool " + std::to_string(pool_before_[id]) + " + mint " +
               std::to_string(minted) + " over " + std::to_string(n) +
               " VCPUs)");
      return;
    }
  }
}

void Auditor::on_seeded(vmm::VmId id, __int128 pool) {
  ++report_.events;
  observe_time();
  AuditReport::Entry& e = report_.entry(Invariant::kCreditConservation);
  ++e.checks;
  const vmm::Vm& v = hv_.vm(id);
  // Recompute seed_credit's split from the authoritative transferred pool:
  // truncating equal division, clamped to the saturation cap on both sides
  // (a deeply indebted VM migrates with its debt, bounded like any balance).
  const auto n = static_cast<__int128>(v.num_vcpus());
  __int128 share = pool / n;
  const auto cap = static_cast<__int128>(hv_.credit_cap());
  if (share > cap) share = cap;
  if (share < -cap) share = -cap;
  const auto expect = static_cast<std::int64_t>(share);
  for (const vmm::Vcpu& c : v.vcpus) {
    if (c.credit != expect) {
      flag(Invariant::kCreditConservation,
           key_str(c.key) + " credit " + std::to_string(c.credit) +
               " after migration seeding, expected " + std::to_string(expect));
      return;
    }
  }
}

void Auditor::on_vm_created(vmm::VmId id) {
  ++report_.events;
  observe_time();
  // Extend the shadow with the new VM's rows before the kLifecycle scan
  // compares them (its VCPUs are kRunnable and already queued).
  while (shadow_.size() < hv_.num_vms()) {
    const auto nid = static_cast<vmm::VmId>(shadow_.size());
    const vmm::Vm& v = hv_.vm(nid);
    std::vector<vmm::VcpuState> row;
    row.reserve(v.num_vcpus());
    for (const vmm::Vcpu& c : v.vcpus) row.push_back(c.state);
    shadow_.push_back(std::move(row));
  }
  (void)id;
}

void Auditor::on_relocated(vmm::VmId id) {
  ++report_.events;
  observe_time();
  // Event-scoped check: the topology-placement contract only binds at the
  // instant a relocation finishes (members drift legally in between), so
  // the checker runs here for the relocated VM and nowhere in the full
  // scans.
  std::vector<Violation> found;
  report_.entry(Invariant::kTopologyPlacement).checks +=
      check_topology_placement(hv_, id, scratch_, found);
  for (Violation& viol : found) flag(viol.kind, std::move(viol.what));
}

void Auditor::on_contention() {
  ++report_.events;
  observe_time();
  AuditReport::Entry& e = report_.entry(Invariant::kPressureConservation);
  // Event-scoped partition half of the invariant: rebuild the engine's
  // input from the hypervisor's authoritative public state and recompute
  // the pass with the same shared function (one definition, two callers —
  // the state_spec idiom), then compare against what the scheduler
  // published. Any divergence means a home or footprint changed without
  // flowing through the audited paths. (The pressure balancer runs after
  // this hook precisely so placement here is still the placement the
  // scheduler fed compute_contention.)
  const vmm::Hypervisor& hv = hv_;
  const hw::Topology& topo = hv.topology();
  const hw::memsys::ContentionPass& pub = hv.pressure_last();
  ++e.checks;
  if (pub.vm_llc_demand.size() != hv.num_vms()) {
    flag(Invariant::kPressureConservation,
         "published pass covers " + std::to_string(pub.vm_llc_demand.size()) +
             " VMs, hypervisor holds " + std::to_string(hv.num_vms()));
    return;
  }
  // (a) Partition arithmetic of the published pass itself: granted is
  // elementwise bounded by demand and the per-LLC columns sum exactly to
  // min(capacity, demand) — a skewed occupancy cannot hide in rounding.
  const std::uint64_t cap = hv.machine().llc_bytes;
  for (std::uint32_t l = 0; l < topo.num_llcs(); ++l) {
    ++e.checks;
    std::uint64_t col_demand = 0;
    std::uint64_t col_granted = 0;
    for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
      if (pub.vm_llc_granted[id][l] > pub.vm_llc_demand[id][l])
        flag(Invariant::kPressureConservation,
             hv.vm(id).name + " granted " +
                 std::to_string(pub.vm_llc_granted[id][l]) +
                 " > demanded " + std::to_string(pub.vm_llc_demand[id][l]) +
                 " on LLC " + std::to_string(l));
      col_demand += pub.vm_llc_demand[id][l];
      col_granted += pub.vm_llc_granted[id][l];
    }
    const std::uint64_t expect = std::min(cap, col_demand);
    if (col_demand != pub.llc_demand[l] || col_granted != pub.llc_granted[l] ||
        (col_demand > 0 && col_granted != expect))
      flag(Invariant::kPressureConservation,
           "LLC " + std::to_string(l) + " occupancy not a partition: demand " +
               std::to_string(pub.llc_demand[l]) + "/" +
               std::to_string(col_demand) + ", granted " +
               std::to_string(pub.llc_granted[l]) + "/" +
               std::to_string(col_granted) + ", expected grant " +
               std::to_string(expect));
  }
  // (b) Independent recomputation from authoritative placement: the
  // published matrices must be reproducible from public state alone.
  std::vector<hw::memsys::VmLoad> loads(hv.num_vms());
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    const vmm::Vm& v = hv.vm(id);
    if (!v.alive) continue;
    const hw::memsys::MemFootprint& fp = hv.vm_footprint(id);
    if (fp.zero()) continue;
    loads[id].fp = &fp;
    for (const vmm::Vcpu& c : v.vcpus) {
      loads[id].vcpu_llc.push_back(topo.llc_of(c.where));
      loads[id].vcpu_socket.push_back(topo.socket_of(c.where));
    }
  }
  hw::memsys::ContentionPass mine;
  hw::memsys::compute_contention(topo, cap,
                                 hv.machine().socket_mem_bw_bytes_per_s, loads,
                                 mine);
  ++e.checks;
  if (mine.llc_demand != pub.llc_demand ||
      mine.vm_llc_demand != pub.vm_llc_demand ||
      mine.vm_llc_granted != pub.vm_llc_granted)
    flag(Invariant::kPressureConservation,
         "published occupancy partition does not match independent "
         "recomputation from authoritative placement");
  // (c) Ledger freshness: the engine just accounted everything — every
  // live VCPU's mark must sit exactly at its consumed-cycle meter.
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    const vmm::Vm& v = hv.vm(id);
    if (!v.alive) continue;
    for (const vmm::Vcpu& c : v.vcpus) {
      ++e.checks;
      if (c.pressure_mark != c.total_online)
        flag(Invariant::kPressureConservation,
             key_str(c.key) + " pressure mark " +
                 std::to_string(c.pressure_mark.v) + " lags total_online " +
                 std::to_string(c.total_online.v) + " after an engine pass");
    }
  }
}

void Auditor::on_vm_resized(vmm::VmId id) {
  ++report_.events;
  observe_time();
  if (id >= shadow_.size()) return;
  const vmm::Vm& v = hv_.vm(id);
  std::vector<vmm::VcpuState>& row = shadow_[id];
  if (v.num_vcpus() < row.size()) {
    // Shrink: the drained records' ->Destroyed transitions already advanced
    // the shadow; just drop the tails with them.
    row.resize(v.num_vcpus());
  } else {
    while (row.size() < v.num_vcpus()) row.push_back(v.vcpus[row.size()].state);
  }
}

}  // namespace asman::audit
