#include "audit/invariants.h"

#include <cstdio>
#include <deque>
#include <vector>

#include "vmm/hypervisor.h"

namespace asman::audit {

namespace {

std::string key_str(vmm::VcpuKey k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%u.%u", k.vm, k.idx);
  return buf;
}

}  // namespace

const char* to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kCreditBounds:
      return "credit-bounds";
    case Invariant::kCreditConservation:
      return "credit-conservation";
    case Invariant::kQueuePartition:
      return "queue-partition";
    case Invariant::kStateMachine:
      return "state-machine";
    case Invariant::kGangCoherence:
      return "gang-coherence";
    case Invariant::kTimeMonotonic:
      return "time-monotonic";
    case Invariant::kTopologyPlacement:
      return "topology-placement";
    case Invariant::kCycleConservation:
      return "cycle-conservation";
    case Invariant::kSingleOwnership:
      return "single-ownership";
    case Invariant::kClusterCreditConservation:
      return "cluster-credit-conservation";
    case Invariant::kPressureConservation:
      return "pressure-conservation";
  }
  return "?";
}

std::uint64_t check_credit_bounds(const vmm::Hypervisor& hv,
                                  std::vector<Violation>& out) {
  const vmm::Credit cap = hv.credit_cap();
  std::uint64_t checks = 0;
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    for (const vmm::Vcpu& c : hv.vm(id).vcpus) {
      ++checks;
      if (c.credit > cap || c.credit < -cap)
        out.push_back({Invariant::kCreditBounds,
                       key_str(c.key) + " credit " + std::to_string(c.credit) +
                           " outside [-" + std::to_string(cap) + ", " +
                           std::to_string(cap) + "]"});
    }
  }
  return checks;
}

std::uint64_t check_queue_partition(const vmm::Hypervisor& hv,
                                    ScanScratch& scratch,
                                    std::vector<Violation>& out) {
  const auto& machine = hv.machine();
  std::uint64_t checks = 0;
  // How often each VCPU record is referenced by a queue / a PCPU's current,
  // in one flat array: VM `id`'s VCPU `i` is refs[first[id] + i]. A queued
  // pointer that is no VM's record is counted nowhere.
  using Refs = ScanScratch::Refs;
  std::vector<std::size_t>& first = scratch.first;
  first.assign(hv.num_vms() + 1, 0);
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id)
    first[id + 1] = first[id] + hv.vm(id).vcpus.size();
  std::vector<Refs>& refs = scratch.refs;
  refs.assign(first.back(), Refs{});
  Refs none;
  const auto refs_of = [&](const vmm::Vcpu* v) -> Refs& {
    const vmm::VcpuKey k = v->key;
    if (k.vm < hv.num_vms() && k.idx < hv.vm(k.vm).vcpus.size() &&
        &hv.vm(k.vm).vcpus[k.idx] == v)
      return refs[first[k.vm] + k.idx];
    return none;
  };

  for (hw::PcpuId p = 0; p < machine.num_pcpus; ++p) {
    for (const vmm::Vcpu* v : hv.runqueue(p).entries()) {
      ++refs_of(v).queued;
      ++checks;
      if (v->state != vmm::VcpuState::kRunnable)
        out.push_back({Invariant::kQueuePartition,
                       key_str(v->key) + " queued on P" + std::to_string(p) +
                           " but not kRunnable"});
      if (v->where != p)
        out.push_back({Invariant::kQueuePartition,
                       key_str(v->key) + " queued on P" + std::to_string(p) +
                           " but where=P" + std::to_string(v->where)});
    }
    if (const vmm::Vcpu* cur = hv.running_on(p)) {
      ++refs_of(cur).running;
      ++checks;
      if (cur->state != vmm::VcpuState::kRunning)
        out.push_back({Invariant::kQueuePartition,
                       key_str(cur->key) + " current on P" +
                           std::to_string(p) + " but not kRunning"});
      if (cur->where != p)
        out.push_back({Invariant::kQueuePartition,
                       key_str(cur->key) + " current on P" +
                           std::to_string(p) + " but where=P" +
                           std::to_string(cur->where)});
    }
  }

  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    const std::deque<vmm::Vcpu>& vcpus = hv.vm(id).vcpus;
    for (std::size_t i = 0; i < vcpus.size(); ++i) {
      const vmm::Vcpu& c = vcpus[i];
      ++checks;
      const int q = refs[first[id] + i].queued;
      const int r = refs[first[id] + i].running;
      switch (c.state) {
        case vmm::VcpuState::kRunnable:
          if (q != 1 || r != 0)
            out.push_back(
                {Invariant::kQueuePartition,
                 key_str(c.key) + " runnable but queued on " +
                     std::to_string(q) + " queue(s), current on " +
                     std::to_string(r) + " PCPU(s)"});
          break;
        case vmm::VcpuState::kRunning:
          if (q != 0 || r != 1)
            out.push_back(
                {Invariant::kQueuePartition,
                 key_str(c.key) + " running but current on " +
                     std::to_string(r) + " PCPU(s), queued on " +
                     std::to_string(q) + " queue(s)"});
          break;
        case vmm::VcpuState::kBlocked:
          if (q != 0 || r != 0)
            out.push_back(
                {Invariant::kQueuePartition,
                 key_str(c.key) + " blocked but still referenced (queued " +
                     std::to_string(q) + ", running " + std::to_string(r) +
                     ")"});
          break;
        case vmm::VcpuState::kDestroyed:
          if (q != 0 || r != 0)
            out.push_back(
                {Invariant::kQueuePartition,
                 key_str(c.key) + " destroyed but still referenced (queued " +
                     std::to_string(q) + ", running " + std::to_string(r) +
                     ")"});
          break;
      }
    }
  }
  return checks;
}

std::uint64_t check_gang_coherence(const vmm::Hypervisor& hv,
                                   ScanScratch& scratch,
                                   std::vector<Violation>& out) {
  const std::uint32_t num_pcpus = hv.machine().num_pcpus;
  std::uint64_t checks = 0;
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    const vmm::Vm& v = hv.vm(id);
    // Placement is only promised when a gang can fit (Algorithm 3 gives up
    // when a VM has more VCPUs than the machine has PCPUs).
    if (!hv.gang_scheduled(id) || v.num_vcpus() > num_pcpus) continue;
    ++checks;
    std::vector<const vmm::Vcpu*>& holder = scratch.holder;
    holder.assign(num_pcpus, nullptr);
    for (const vmm::Vcpu& c : v.vcpus) {
      const vmm::Vcpu*& h = holder[c.where];
      if (h != nullptr)
        out.push_back({Invariant::kGangCoherence,
                       v.name + ": " + key_str(c.key) + " and " +
                           key_str(h->key) + " both placed on P" +
                           std::to_string(c.where)});
      h = &c;
    }
  }
  return checks;
}

std::uint64_t check_cycle_conservation(const vmm::Hypervisor& hv,
                                       std::vector<Violation>& out) {
  std::uint64_t checks = 0;
  // (a) Machine-wide ledger: VM-side online time and PCPU-side busy time
  // are maintained at the same burn instants, so they agree exactly at
  // every event boundary — an in-flight span is absent from both sides.
  // Per-VM totals survive destruction (tombstone statistics), so the
  // equality holds across the whole lifecycle including churn.
  std::uint64_t vm_side = 0;
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id)
    vm_side += hv.vm(id).total_online.v;
  std::uint64_t pcpu_side = 0;
  for (hw::PcpuId p = 0; p < hv.machine().num_pcpus; ++p)
    pcpu_side += hv.pcpu_busy_total(p).v;
  ++checks;
  if (vm_side != pcpu_side)
    out.push_back({Invariant::kCycleConservation,
                   "consumed-cycle ledger split: VMs consumed " +
                       std::to_string(vm_side) + " cycles but PCPUs were " +
                       "busy " + std::to_string(pcpu_side)});

  const std::uint64_t slot = hv.machine().slot_cycles().v;
  const vmm::AccountingMode mode = hv.resilience().accounting;
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    const vmm::Vm& v = hv.vm(id);
    ++checks;
    if (mode == vmm::AccountingMode::kExact) {
      // (c) Tickless accounting bills every burned span in full, at the
      // same instants: attribution must track consumption exactly.
      if (v.cycles_attributed != v.total_online)
        out.push_back({Invariant::kCycleConservation,
                       v.name + " attributed " +
                           std::to_string(v.cycles_attributed.v) +
                           " != consumed " +
                           std::to_string(v.total_online.v) +
                           " under exact accounting"});
    } else {
      // (b) Sampled accounting only ever bills whole slots.
      if (v.cycles_attributed.v % slot != 0)
        out.push_back({Invariant::kCycleConservation,
                       v.name + " attributed " +
                           std::to_string(v.cycles_attributed.v) +
                           " cycles, not a whole-slot multiple of " +
                           std::to_string(slot)});
    }
  }
  return checks;
}

std::uint64_t check_pressure_conservation(const vmm::Hypervisor& hv,
                                          std::vector<Violation>& out) {
  // Ledger half of the invariant; the partition half is event-scoped to
  // engine passes (Auditor::on_contention recomputes it from scratch).
  // Integer equalities, checked exactly: tombstones keep their final
  // ledgers, so the per-VM sums and the machine totals — maintained at the
  // same apply_contention instants — can only diverge if someone wrote the
  // ledger outside the audited seam.
  std::uint64_t checks = 0;
  std::uint64_t accounted = 0;
  std::uint64_t degraded = 0;
  std::uint64_t effective = 0;
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    const vmm::Vm& v = hv.vm(id);
    ++checks;
    if (v.pressure_effective + v.pressure_degraded != v.pressure_accounted)
      out.push_back({Invariant::kPressureConservation,
                     v.name + " pressure ledger split: effective " +
                         std::to_string(v.pressure_effective) +
                         " + degraded " + std::to_string(v.pressure_degraded) +
                         " != accounted " +
                         std::to_string(v.pressure_accounted)});
    accounted += v.pressure_accounted;
    degraded += v.pressure_degraded;
    effective += v.pressure_effective;
  }
  ++checks;
  if (accounted != hv.pressure_accounted_total() ||
      degraded != hv.pressure_degraded_total() ||
      effective != hv.pressure_effective_total())
    out.push_back({Invariant::kPressureConservation,
                   "machine pressure totals diverge from per-VM sums: "
                   "accounted " +
                       std::to_string(hv.pressure_accounted_total()) + "/" +
                       std::to_string(accounted) + ", degraded " +
                       std::to_string(hv.pressure_degraded_total()) + "/" +
                       std::to_string(degraded) + ", effective " +
                       std::to_string(hv.pressure_effective_total()) + "/" +
                       std::to_string(effective)});
  return checks;
}

std::uint64_t check_topology_placement(const vmm::Hypervisor& hv,
                                       vmm::VmId id, ScanScratch& scratch,
                                       std::vector<Violation>& out) {
  // Vacuous unless topology-aware placement is live and the gang both
  // wants coscheduling and fits the online PCPUs (relocate_vm gives up
  // otherwise, just like the gang-coherence invariant).
  if (!hv.topology_aware() || hv.topology().is_flat()) return 0;
  if (!hv.vm_alive(id)) return 0;
  const vmm::Vm& v = hv.vm(id);
  if (!hv.gang_scheduled(id) || v.num_vcpus() > hv.online_pcpus()) return 0;
  // The minimal-packing computation is the scheduler's own
  // (gang_socket_set, via placement_spans_excess_sockets), so the checker
  // flags exactly the placements relocate_vm would never produce.
  if (hv.placement_spans_excess_sockets(id)) {
    std::vector<bool>& used = scratch.used;
    used.assign(hv.topology().num_sockets(), false);
    std::uint32_t spanned = 0;
    for (const vmm::Vcpu& c : v.vcpus) {
      const std::uint32_t s = hv.topology().socket_of(c.where);
      if (!used[s]) {
        used[s] = true;
        ++spanned;
      }
    }
    out.push_back({Invariant::kTopologyPlacement,
                   v.name + " spans " + std::to_string(spanned) +
                       " socket(s) after relocation; a tighter packing " +
                       "existed"});
  }
  return 1;
}

}  // namespace asman::audit
