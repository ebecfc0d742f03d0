// Cluster fabric bench: event-engine throughput for a 16-host fleet under
// the full robustness storm.
//
// One point per scheduler (Credit, CON) runs cluster_chaos_scenario at 16
// hosts / 200 tenants: seeded churn of live migrations, retirements and
// hot admissions, two host crashes (with crash recovery re-placing every
// surviving VM), a degraded-host window and a migration-link-loss window.
// The points run through the same BasicSweep harness as the single-host
// benches; each point's scheduler and seed come from its ClusterScenario.
// The JSON (BENCH_cluster.json; committed baseline in bench/baselines/)
// carries events/sec, ns/event and the process peak RSS so the fabric's
// perf trajectory is tracked run over run. Run with ASMAN_AUDIT=1 to get
// all ten invariants — including single-ownership and cluster credit
// conservation — checked on every point. A violation or a VM lost to a
// host crash fails the binary.
#include "bench_util.h"
#include "experiments/cluster.h"

using namespace asman;
using namespace asman::bench;

namespace {

using ClusterSweep = BasicSweep<ex::ClusterScenario>;

// No ASMan point: the storm runs no guest kernels, so no VCRD is ever
// reported and ASMan schedules exactly as Credit does (same fleet
// fingerprint, same event count).
constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kCon};

constexpr std::uint32_t kHosts = 16;
constexpr std::uint32_t kVms = 200;
constexpr std::uint64_t kSeed = 42;

void print_table(const ClusterSweep& sweep) {
  std::printf("\n== cluster fabric storm (%u hosts, %u tenants, seed %llu) "
              "==\n",
              kHosts, kVms, static_cast<unsigned long long>(kSeed));
  ex::TextTable t({"scheduler", "events", "ns/event", "committed", "aborted",
                   "crashes", "replaced", "lost", "violations"});
  for (const std::string& label : sweep.labels()) {
    const ClusterSweep::PointResult& p = sweep.get(label);
    char nspe[32];
    std::snprintf(nspe, sizeof nspe, "%.1f",
                  p.run.events > 0
                      ? p.cpu_seconds * 1e9 /
                            static_cast<double>(p.run.events)
                      : 0.0);
    t.add_row({label, std::to_string(p.run.events), nspe,
               std::to_string(p.run.migrations_committed),
               std::to_string(p.run.migrations_aborted),
               std::to_string(p.run.host_crashes),
               std::to_string(p.run.vms_replaced),
               std::to_string(p.run.vms_lost),
               std::to_string(p.run.audit_violations)});
  }
  std::printf("%s", t.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (unexpected_arguments(argc, argv)) return 2;
  ClusterSweep sweep;
  for (core::SchedulerKind k : kScheds)
    sweep.add(core::to_string(k),
              ex::cluster_chaos_scenario(k, kHosts, kVms, kSeed));
  const int rc = run_bench_main(sweep, "cluster", print_table);

  // Crash recovery is a hard gate beside the audit: a VM lost to a host
  // crash fails the binary, exactly like an invariant violation.
  std::uint64_t lost = 0;
  for (const std::string& label : sweep.labels())
    lost += sweep.get(label).run.vms_lost;
  if (lost > 0) {
    std::fprintf(stderr, "[bench] FAILED: %llu VM(s) lost\n",
                 static_cast<unsigned long long>(lost));
    return 1;
  }
  return rc;
}
