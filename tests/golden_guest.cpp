// Golden behaviour corpus, guest-kernel slice.
//
//   golden_guest FILE               compare every case with FILE; exit 1 and
//                                   name the first differing line otherwise
//   golden_guest FILE --regenerate  rewrite FILE from this build
//
// FILE (tests/golden/guest.txt) pins, across versions, what the guest
// kernel does. It holds the exact fingerprint (tests/fingerprint.h) of the
// 19 paper-mix scenarios, built as the benchmark builds them at its default
// simulation seed 1: the §5.2 single-VM NPB points at 40 % and 22.2 %
// online rate under Credit and ASMan, and the Fig 11(a) four-VM mix under
// all three schedulers. It adds full-stack mutex, semaphore and sleep
// scenarios, and the FNV-1a hash of every trace record of a traced guest
// per synchronization path (barrier, mutex, semaphore, sleep). A refactor
// of the guest must leave FILE as it is; regenerate it only for a
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
  for (core::SchedulerKind k :
       {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman,
        core::SchedulerKind::kCon}) {
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

std::string corpus() {
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
    std::fprintf(stderr, "usage: golden_guest FILE [--regenerate]\n");
    return 2;
  }
  const std::string got = corpus();
  if (regenerate) {
    std::ofstream f(argv[1], std::ios::binary);
    f << got;
    if (!f) {
      std::fprintf(stderr, "golden_guest: cannot write %s\n", argv[1]);
      return 2;
    }
    std::printf("golden_guest: wrote %s\n", argv[1]);
    return 0;
  }
  std::ifstream f(argv[1], std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "golden_guest: cannot read %s\n", argv[1]);
    return 2;
  }
  std::stringstream want;
  want << f.rdbuf();
  const std::string diff = first_difference(want.str(), got);
  if (!diff.empty()) {
    std::fprintf(stderr,
                 "golden_guest: behaviour differs from %s at %s\n"
                 "Regenerate (golden_guest FILE --regenerate) only for a "
                 "deliberate behaviour change, with its reason in "
                 "CHANGES.md.\n",
                 argv[1], diff.c_str());
    return 1;
  }
  std::printf("golden_guest: %s matches\n", argv[1]);
  return 0;
}
