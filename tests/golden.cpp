// Golden behaviour corpus: the build must reproduce each committed slice
// under tests/golden/ exactly.
//
//   golden FILE               compare the slice with FILE; exit 1 and name
//                             the first differing line otherwise
//   golden FILE --regenerate  rewrite FILE from this build
//
// FILE's stem picks the slice:
//
//   guest.txt   what the guest kernel does. The exact fingerprint
//               (tests/fingerprint.h) of the 19 paper-mix scenarios, built as
//               the benchmark builds them at its default simulation seed 1:
//               the §5.2 single-VM NPB points at 40 % and 22.2 % online rate
//               under Credit and ASMan, and the Fig 11(a) four-VM mix under
//               all three schedulers. Full-stack mutex, semaphore and sleep
//               scenarios, and the FNV-1a hash of every trace record of a
//               traced guest per synchronization path (barrier, mutex,
//               semaphore, sleep).
//   stress.txt  the benchmark's stress-host and cluster-storm points at
//               simulation seed 1. The 15 stress-host scenarios (contention
//               aware/blind, churn x ipi-loss/hotplug chaos, adversary churn
//               chaos; three schedulers each) audited at stride 1: their
//               fingerprint plus audit check and violation counts. The 6
//               32-host / 600-tenant storms (storm seeds 1 and 1001), run
//               unaudited: the fleet fingerprint, events and VMs lost.
//   chaos.txt   the fault and adversary paths of the VMM at simulation seed
//               1, audited at stride 1: every ChaosClass under each of the
//               four schedulers, every AttackKind unhardened, mitigated
//               (randomized sampling instants) and hardened under each
//               scheduler, and the saturated-churn host (admission rejects,
//               overload shed) under each scheduler. Each point is its
//               fingerprint plus one line of the degradation, adversary,
//               lifecycle and audit counters, which a VMM change can move
//               without moving the event count.
//
// A refactor must leave every FILE as it is; regenerate one only for a
// behaviour change whose reason CHANGES.md states.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/schedulers.h"
#include "experiments/adversary.h"
#include "experiments/chaos.h"
#include "experiments/churn.h"
#include "experiments/cluster.h"
#include "experiments/contention.h"
#include "experiments/paper.h"
#include "experiments/scenario.h"
#include "fingerprint.h"
#include "guest/guest_kernel.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "simcore/trace.h"
#include "workloads/npb.h"
#include "workloads/synthetic.h"

namespace {

using namespace asman;
namespace ex = asman::experiments;
using sim::Cycles;

Cycles ms(std::uint64_t n) { return sim::kDefaultClock.from_ms(n); }
Cycles us(std::uint64_t n) { return sim::kDefaultClock.from_us(n); }

constexpr std::uint64_t kSeed = 1;
constexpr core::SchedulerKind kSchedulers[] = {core::SchedulerKind::kCredit,
                                               core::SchedulerKind::kAsman,
                                               core::SchedulerKind::kCon};
constexpr core::SchedulerKind kAllSchedulers[] = {
    core::SchedulerKind::kCredit, core::SchedulerKind::kCon,
    core::SchedulerKind::kAsman, core::SchedulerKind::kAsmanHw};

/// `threads` threads alternate a jittered compute chunk with a jittered
/// nanosleep (the guest's timer-wait path) for `iterations` rounds.
class SleepyWorkload final : public workloads::Workload {
 public:
  SleepyWorkload(std::uint32_t threads, std::uint64_t iterations,
                 std::uint64_t seed)
      : threads_(threads), iterations_(iterations), seed_(seed) {}

  void deploy(guest::GuestKernel& g) override {
    sim::SplitMix64 seeds(seed_);
    for (std::uint32_t t = 0; t < threads_; ++t) {
      struct State {
        std::uint64_t left;
        bool sleep_next;
        sim::Rng rng;
      };
      auto st = std::make_shared<State>(
          State{iterations_, false, sim::Rng(seeds.next())});
      g.spawn(std::make_unique<workloads::LambdaProgram>([st] {
                if (st->left == 0) return guest::Op::done();
                const bool sleep = st->sleep_next;
                st->sleep_next = !sleep;
                if (sleep) --st->left;
                const double len = st->rng.positive_jitter(
                    static_cast<double>(us(sleep ? 300 : 150).v), 0.3);
                const Cycles c{static_cast<std::uint64_t>(len)};
                return sleep ? guest::Op::sleep(c) : guest::Op::compute(c);
              }),
              t % g.num_vcpus());
    }
  }
  std::string name() const override { return "sleepy"; }

 private:
  std::uint32_t threads_;
  std::uint64_t iterations_;
  std::uint64_t seed_;
};

using Factory = ex::WorkloadFactory;

const std::vector<std::pair<std::string, Factory>>& synthetic() {
  static const std::vector<std::pair<std::string, Factory>> k = {
      {"mutex",
       [](sim::Simulator&, std::uint64_t s) {
         return std::make_unique<workloads::LockHammerWorkload>(
             4, 400, us(120), us(15), s);
       }},
      {"semaphore",
       [](sim::Simulator&, std::uint64_t s) {
         return std::make_unique<workloads::SemaphorePingPongWorkload>(
             2, 600, us(80), s);
       }},
      {"sleep",
       [](sim::Simulator&, std::uint64_t s) {
         return std::make_unique<SleepyWorkload>(4, 400, s);
       }},
      {"barrier", ex::npb_factory(workloads::NpbBenchmark::kLU)},
  };
  return k;
}

/// The benchmark's paper-mix points, in its order and with its labels.
std::vector<std::pair<std::string, ex::Scenario>> paper_mix() {
  std::vector<std::pair<std::string, ex::Scenario>> out;
  const std::pair<const char*, workloads::NpbBenchmark> kNpb[] = {
      {"LU", workloads::NpbBenchmark::kLU},
      {"CG", workloads::NpbBenchmark::kCG},
      {"SP", workloads::NpbBenchmark::kSP},
      {"EP", workloads::NpbBenchmark::kEP}};
  const std::pair<const char*, std::uint32_t> kRates[] = {{"40", 64},
                                                          {"22.2", 32}};
  for (const auto& [bname, b] : kNpb)
    for (const auto& [rname, weight] : kRates)
      for (core::SchedulerKind k :
           {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman})
        out.emplace_back(std::string("single/") + bname + "/" + rname + "/" +
                             core::to_string(k),
                         ex::single_vm_scenario(k, weight, ex::npb_factory(b),
                                                kSeed));
  for (core::SchedulerKind k : kSchedulers) {
    constexpr std::uint64_t kFactoryRounds = 40;
    ex::Scenario sc = ex::multi_vm_scenario(
        k,
        {{"256.bzip2", ex::bzip2_factory(kFactoryRounds)},
         {"176.gcc", ex::gcc_factory(kFactoryRounds)},
         {"SP", ex::npb_factory(workloads::NpbBenchmark::kSP, 4,
                                kFactoryRounds)},
         {"LU", ex::npb_factory(workloads::NpbBenchmark::kLU, 4,
                                kFactoryRounds)}},
        {false, false, true, true}, /*rounds=*/1, kSeed);
    sc.horizon = sc.machine.clock().from_seconds_f(10.0);
    out.emplace_back(std::string("fig11a/") + core::to_string(k),
                     std::move(sc));
  }
  return out;
}

/// A synthetic workload on 2 of 4 PCPUs' worth of VCPUs next to a CPU hog,
/// through the whole stack (run_scenario).
ex::Scenario synthetic_scenario(core::SchedulerKind sched, const Factory& f) {
  ex::Scenario sc;
  sc.machine.num_pcpus = 4;
  sc.scheduler = sched;
  sc.seed = kSeed;
  sc.horizon = ms(1'500);
  ex::VmSpec v0;
  v0.name = "V0";
  v0.weight = 256;
  v0.vcpus = 2;
  v0.workload = f;
  ex::VmSpec v1;
  v1.name = "V1";
  v1.weight = 128;
  v1.vcpus = 4;
  v1.workload = [](sim::Simulator&, std::uint64_t s) {
    return std::make_unique<workloads::CpuHogWorkload>(4, us(200), s);
  };
  sc.vms.push_back(std::move(v0));
  sc.vms.push_back(std::move(v1));
  return sc;
}

/// Every VMM and guest trace record of one guest on a 2-PCPU ASMan host.
std::uint64_t traced_guest(const Factory& f) {
  sim::Simulator s;
  sim::Trace trace;
  hw::MachineConfig m;
  m.num_pcpus = 2;
  core::AdaptiveScheduler hv(s, m, vmm::SchedMode::kNonWorkConserving,
                             &trace);
  const vmm::VmId id = hv.create_vm("V0", 256, 2);
  guest::GuestKernel::Config gc;
  gc.n_vcpus = 2;
  gc.seed = kSeed + 1;
  guest::GuestKernel g(s, hv, id, gc, &trace);
  auto wl = f(s, kSeed + 1);
  wl->deploy(g);
  hv.attach_guest(id, &g);
  hv.start();
  s.run_until(ms(400));
  return testutil::trace_hash(trace);
}

std::string guest_corpus() {
  std::string out;
  for (auto& [name, sc] : paper_mix())
    out += "== " + name + "\n" + testutil::fingerprint(ex::run_scenario(sc));
  for (const auto& [name, f] : synthetic()) {
    if (name == "barrier") continue;  // the paper-mix points cover it
    for (core::SchedulerKind k :
         {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman})
      out += "== synthetic/" + name + "/" + core::to_string(k) + "\n" +
             testutil::fingerprint(ex::run_scenario(synthetic_scenario(k, f)));
  }
  for (const auto& [name, f] : synthetic()) {
    char line[64];
    std::snprintf(line, sizeof line, "trace=%016" PRIx64 "\n",
                  traced_guest(f));
    out += "== trace/" + name + "\n" + line;
  }
  return out;
}

/// `sc` with the invariant auditor attached at stride 1.
ex::Scenario audited(ex::Scenario sc) {
  sc.audit = true;
  sc.audit_stride = 1;
  return sc;
}

/// The benchmark's stress-host points, in its order and with its labels.
std::vector<std::pair<std::string, ex::Scenario>> stress_host() {
  std::vector<std::pair<std::string, ex::Scenario>> out;
  const auto add = [&out](std::string name, ex::Scenario sc) {
    out.emplace_back(std::move(name), audited(std::move(sc)));
  };
  for (core::SchedulerKind k : kSchedulers) {
    const std::string sched = core::to_string(k);
    for (const bool aware : {true, false})
      add(std::string("contention/") + (aware ? "aware/" : "blind/") + sched,
          ex::contention_scenario(k, kSeed, aware));
    for (const ex::ChaosClass c :
         {ex::ChaosClass::kIpiLoss, ex::ChaosClass::kHotplug})
      add(std::string("churn-chaos/") + ex::to_string(c) + "/" + sched,
          ex::churn_chaos_scenario(k, c, kSeed));
    add("adversary-churn-chaos/" + sched,
        ex::adversary_churn_chaos_scenario(
            k, workloads::AttackKind::kTickDodge, ex::ChaosClass::kIpiLoss,
            kSeed));
  }
  return out;
}

std::string stress_corpus() {
  std::string out;
  for (auto& [name, sc] : stress_host()) {
    const ex::RunResult rr = ex::run_scenario(sc);
    out += "== stress/" + name + "\n" + testutil::fingerprint(rr);
    testutil::append(out, "audit checks=%" PRIu64 " violations=%" PRIu64 "\n",
                     rr.audit_checks, rr.audit_violations);
  }
  for (core::SchedulerKind k : kSchedulers)
    for (const std::uint64_t s : {kSeed, kSeed + 1000}) {
      const ex::ClusterRunResult rr =
          ex::run_cluster_scenario(ex::cluster_chaos_scenario(k, 32, 600, s));
      out += "== storm/" + std::string(core::to_string(k)) + "/s" +
             std::to_string(s) + "\n";
      testutil::append(out,
                       "fingerprint=%016" PRIx64 " events=%" PRIu64
                       " vms_lost=%" PRIu64 "\n",
                       rr.fingerprint, rr.events, rr.vms_lost);
    }
  return out;
}

/// The fault, adversary and lifecycle points, with their labels.
std::vector<std::pair<std::string, ex::Scenario>> chaos_points() {
  std::vector<std::pair<std::string, ex::Scenario>> out;
  const auto add = [&out](std::string name, ex::Scenario sc) {
    out.emplace_back(std::move(name), audited(std::move(sc)));
  };
  for (core::SchedulerKind k : kAllSchedulers) {
    const std::string sched = core::to_string(k);
    for (const ex::ChaosClass c : ex::all_chaos_classes())
      add("chaos/" + std::string(ex::to_string(c)) + "/" + sched,
          ex::chaos_scenario(k, c, kSeed));
    for (const workloads::AttackKind a : ex::all_attack_kinds())
      for (const char* level : {"unhardened", "mitigated", "hardened"}) {
        const bool hardened = std::strcmp(level, "hardened") == 0;
        ex::Scenario sc = ex::adversary_scenario(k, a, hardened, kSeed);
        if (std::strcmp(level, "mitigated") == 0)
          ex::apply_mitigated_sampling(sc);
        add("adversary/" + std::string(workloads::to_string(a)) + "/" +
                level + "/" + sched,
            std::move(sc));
      }
    add("saturated-churn/" + sched, ex::saturated_churn_scenario(k, kSeed));
  }
  return out;
}

std::string chaos_corpus() {
  std::string out;
  for (auto& [name, sc] : chaos_points()) {
    const ex::RunResult rr = ex::run_scenario(sc);
    out += "== " + name + "\n" + testutil::fingerprint(rr);
    char line[640];
    std::snprintf(
        line, sizeof line,
        "ipi_retries=%" PRIu64 " gang_ipi_aborts=%" PRIu64
        " watchdog_fires=%" PRIu64 " vcrd_demotions=%" PRIu64
        " stale_vcrd_drops=%" PRIu64 " hypercall_rejects=%" PRIu64
        " ignored_kicks=%" PRIu64 " evacuated=%" PRIu64
        " pcpu_offline=%" PRIu64 " boost_grants=%" PRIu64
        " boost_denials=%" PRIu64 " dodged=%" PRIu64
        " implausible_vcrds=%" PRIu64 " theft=%" PRIu64
        " admission_rejects=%" PRIu64 " creates=%" PRIu64
        " destroys=%" PRIu64 " resizes=%" PRIu64 " sheds=%" PRIu64
        " restores=%" PRIu64 " fairness_min=%a audit checks=%" PRIu64
        " violations=%" PRIu64 "\n",
        rr.ipi_retries, rr.gang_ipi_aborts, rr.gang_watchdog_fires,
        rr.vcrd_demotions, rr.stale_vcrd_drops, rr.hypercall_rejects,
        rr.ignored_kicks, rr.evacuated_vcpus, rr.pcpu_offline_events,
        rr.boost_grants, rr.boost_denials, rr.dodged_samples,
        rr.implausible_vcrds, rr.theft_cycles, rr.admission_rejects,
        rr.vm_creates, rr.vm_destroys, rr.vm_resizes, rr.overload_sheds,
        rr.overload_restores, rr.fairness_min, rr.audit_checks,
        rr.audit_violations);
    out += line;
  }
  return out;
}

/// The slice FILE names by its stem ("guest", "stress", "chaos"), or "" if
/// none.
std::string corpus_for(const std::string& path) {
  std::string stem = path.substr(path.find_last_of('/') + 1);
  stem = stem.substr(0, stem.find('.'));
  if (stem == "guest") return guest_corpus();
  if (stem == "stress") return stress_corpus();
  if (stem == "chaos") return chaos_corpus();
  return "";
}

/// The line numbers and texts of the first difference, or "" if none.
std::string first_difference(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  std::string section;
  for (int n = 1;; ++n) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) return "";
    if (ha && la.rfind("== ", 0) == 0) section = la.substr(3);
    if (ha != hb || la != lb)
      return "line " + std::to_string(n) + " (case " + section +
             ")\n  golden: " + (ha ? la : "<end of file>") +
             "\n  build:  " + (hb ? lb : "<end of output>");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool regenerate =
      argc == 3 && std::strcmp(argv[2], "--regenerate") == 0;
  if (argc != 2 && !regenerate) {
    std::fprintf(stderr, "usage: golden FILE [--regenerate]\n");
    return 2;
  }
  const std::string got = corpus_for(argv[1]);
  if (got.empty()) {
    std::fprintf(stderr,
                 "golden: no slice named by %s (guest.txt, stress.txt, "
                 "chaos.txt)\n",
                 argv[1]);
    return 2;
  }
  if (regenerate) {
    std::ofstream f(argv[1], std::ios::binary);
    f << got;
    if (!f) {
      std::fprintf(stderr, "golden: cannot write %s\n", argv[1]);
      return 2;
    }
    std::printf("golden: wrote %s\n", argv[1]);
    return 0;
  }
  std::ifstream f(argv[1], std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "golden: cannot read %s\n", argv[1]);
    return 2;
  }
  std::stringstream want;
  want << f.rdbuf();
  const std::string diff = first_difference(want.str(), got);
  if (!diff.empty()) {
    std::fprintf(stderr,
                 "golden: behaviour differs from %s at %s\n"
                 "Regenerate (golden FILE --regenerate) only for a "
                 "deliberate behaviour change, with its reason in "
                 "CHANGES.md.\n",
                 argv[1], diff.c_str());
    return 1;
  }
  std::printf("golden: %s matches\n", argv[1]);
  return 0;
}
