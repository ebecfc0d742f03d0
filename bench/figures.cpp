// The paper's evaluation (§5.2 Figs 1, 2, 7-10; §5.3 Figs 11-12) and the
// ASMan ablation, over one sweep.
//
//   figures                  every figure, then the ablation
//   figures fig07 ablation   only those, and only the points they read
//
// Each figure declares the points it reads into one shared Sweep by
// canonical label, so a point several figures read (LU at a rate point,
// an NPB baseline, an ablation row whose knob is at its default) runs
// once. A label names one scenario:
//   "<workload>/<scheduler>/rate<online rate %>"  single VM V1 (§5.2)
//   "fig<panel>/<scheduler>"                      a multi-VM mix (§5.3)
//   "<knob>/<value>"                              an ablation variant
// Every simulated point lands in BENCH_figures.json.
#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "simcore/stats.h"
#include "workloads/npb.h"
#include "workloads/synthetic.h"

using namespace asman;
using namespace asman::bench;

namespace {

using core::SchedulerKind;
using workloads::NpbBenchmark;

constexpr SchedulerKind kCreditAsman[] = {SchedulerKind::kCredit,
                                          SchedulerKind::kAsman};
constexpr ex::RatePoint kFullRate = ex::kRatePoints.front();   // 100 %
constexpr ex::RatePoint kWorstRate = ex::kRatePoints.back();   // 22.2 %

// --- single-VM points (§5.2) -------------------------------------------

std::string point_label(const std::string& workload, SchedulerKind k,
                        double rate) {
  char buf[80];
  std::snprintf(buf, sizeof buf, "%s/%s/rate%.1f", workload.c_str(),
                core::to_string(k), rate * 100.0);
  return buf;
}

std::string npb_label(NpbBenchmark b, SchedulerKind k, double rate) {
  return point_label(workloads::to_string(b), k, rate);
}

/// NPB benchmark `b` alone in V1 at one rate point. LU keeps its wait
/// samples for Figs 2 and 8 (keeping them does not change the run), so
/// every figure reading an LU point reads the same one.
void add_npb(Sweep& s, NpbBenchmark b, SchedulerKind k,
             const ex::RatePoint& rp) {
  ex::Scenario sc = ex::single_vm_scenario(k, rp.weight, ex::npb_factory(b));
  sc.keep_wait_samples = b == NpbBenchmark::kLU;
  s.add(npb_label(b, k, rp.rate), std::move(sc));
}

/// LU at every rate point under `k`.
void add_lu(Sweep& s, SchedulerKind k) {
  for (const ex::RatePoint& rp : ex::kRatePoints)
    add_npb(s, NpbBenchmark::kLU, k, rp);
}

void add_lu_credit_asman(Sweep& s) {
  for (SchedulerKind k : kCreditAsman) add_lu(s, k);
}

const ex::VmResult& lu(const Sweep& s, SchedulerKind k, double rate) {
  return s.get(npb_label(NpbBenchmark::kLU, k, rate)).run.vm("V1");
}

// Figure 1 (+ the §2.2 observations): the motivation experiment.
//
// LU (NPB, 4 threads) runs in VM V1 (4 VCPUs) on the stock Credit
// scheduler, non-work-conserving, while an idle Domain-0 holds half the
// weight; V1's weight sweeps {256,128,64,32} -> VCPU online rates
// {100, 66.7, 40, 22.2}%.
//
//  (a) run time rises much faster than 1/online-rate (Fig 1a);
//  (b) spinlock waits > 2^10 and > 2^20 cycles per 30 s of observation
//      (Fig 1b): totals fall with the online rate (less work executes) but
//      the over-threshold tail explodes;
//  (c) semaphore (blocking) waits stay below 2^16 cycles even at 22.2 %.

std::string semaphores_label() {
  return point_label("semaphores", SchedulerKind::kCredit, kWorstRate.rate);
}

void add_fig01(Sweep& s) {
  add_lu(s, SchedulerKind::kCredit);
  // Semaphore observation at the worst operating point.
  s.add(semaphores_label(),
        ex::single_vm_scenario(
            SchedulerKind::kCredit, kWorstRate.weight,
            [](sim::Simulator&, std::uint64_t seed) {
              return std::make_unique<workloads::SemaphorePingPongWorkload>(
                  /*pairs=*/2, /*exchanges=*/4000,
                  sim::kDefaultClock.from_us(300), seed);
            }));
}

void print_fig01(const Sweep& s) {
  std::printf("\n== Figure 1(a): LU run time vs VCPU online rate (Credit) ==\n");
  ex::TextTable a({"online rate", "run time (s)", "slowdown",
                   "observed rate"});
  double base = 0.0;
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& v1 = lu(s, SchedulerKind::kCredit, rp.rate);
    if (rp.rate == 1.0) base = v1.runtime_seconds;
    a.add_row({ex::fmt_pct(rp.rate), ex::fmt_f(v1.runtime_seconds),
               ex::fmt_f(base > 0 ? v1.runtime_seconds / base : 1.0),
               ex::fmt_pct(v1.observed_online_rate)});
  }
  std::printf("%s", a.str().c_str());

  std::printf(
      "\n== Figure 1(b): spinlock waits per 30 s of virtual time (Credit) ==\n");
  ex::TextTable b({"online rate", ">2^10 cycles", ">2^20 cycles",
                   "max (log2)"});
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& v1 = lu(s, SchedulerKind::kCredit, rp.rate);
    const double scale =
        v1.runtime_seconds > 0 ? 30.0 / v1.runtime_seconds : 0.0;
    b.add_row(
        {ex::fmt_pct(rp.rate),
         ex::fmt_f(static_cast<double>(v1.stats.spin_waits.count_above(10)) *
                       scale,
                   0),
         ex::fmt_f(static_cast<double>(v1.stats.spin_waits.count_above(20)) *
                       scale,
                   0),
         std::to_string(sim::log2_floor(v1.stats.spin_waits.max_value()))});
  }
  std::printf("%s", b.str().c_str());

  const ex::VmResult& v1 = s.get(semaphores_label()).run.vm("V1");
  std::printf(
      "\n== §2.2 observation: semaphore waits at 22.2%% online rate ==\n"
      "  semaphore ops: %llu, max wait: 2^%u cycles (paper: all < 2^16)\n",
      static_cast<unsigned long long>(v1.stats.sem_waits.total()),
      sim::log2_floor(v1.stats.sem_waits.max_value()));
}

// Figure 2: detailed spinlock waiting times under the Credit scheduler.
//
// LU in VM V1 at online rates 100/66.7/40/22.2 %; for each rate the full
// per-acquisition wait distribution is printed (the paper plots them as
// per-spinlock scatter; we print the log2 histogram and dump the raw
// samples to CSV for re-plotting). Expected shape: at 100 % everything is
// below ~2^13; as the rate drops, a heavy tail above 2^20 appears (lock-
// holder preemption) and clusters (locality of synchronization).

void add_fig02(Sweep& s) { add_lu(s, SchedulerKind::kCredit); }

void print_fig02(const Sweep& s) {
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& v1 = lu(s, SchedulerKind::kCredit, rp.rate);
    std::printf(
        "\n== Figure 2: spinlock wait distribution, Credit @ %s online "
        "rate (waits > 2^10: %llu, max 2^%u) ==\n%s",
        ex::fmt_pct(rp.rate).c_str(),
        static_cast<unsigned long long>(v1.stats.spin_waits.count_above(10)),
        sim::log2_floor(v1.stats.spin_waits.max_value()),
        v1.stats.spin_waits.render(10, 28).c_str());
    // Raw samples (>= 2^10) for scatter-style re-plotting.
    std::vector<std::vector<std::string>> rows;
    std::uint64_t idx = 0;
    for (sim::Cycles c : v1.stats.spin_waits.samples()) {
      if (c < sim::pow2_cycles(10)) continue;
      rows.push_back({std::to_string(idx++), std::to_string(c.v)});
    }
    char path[64];
    std::snprintf(path, sizeof path, "fig02_credit_rate%.0f.csv",
                  rp.rate * 100.0);
    ex::write_csv(path, {"index", "wait_cycles"}, rows);
    std::printf("  (%zu samples >= 2^10 written to %s)\n", rows.size(), path);
  }
}

// Figure 7: LU run time under Credit vs ASMan across VCPU online rates.
//
// Expected shape: identical at 100 %; as the online rate drops, Credit
// degrades super-linearly (lock-holder preemption + busy-wait convoys)
// while ASMan detects over-threshold spinlocks, coschedules the VCPUs and
// stays close to the 1/rate ideal.

void print_fig07(const Sweep& s) {
  std::printf("\n== Figure 7: LU run time (s), Credit vs ASMan ==\n");
  ex::TextTable t({"online rate", "Credit", "ASMan", "saving",
                   "ASMan VCRD-HIGH", "ideal (1/rate)"});
  double base = 0.0;
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& c = lu(s, SchedulerKind::kCredit, rp.rate);
    const ex::VmResult& a = lu(s, SchedulerKind::kAsman, rp.rate);
    if (rp.rate == 1.0) base = c.runtime_seconds;
    t.add_row({ex::fmt_pct(rp.rate), ex::fmt_f(c.runtime_seconds),
               ex::fmt_f(a.runtime_seconds),
               ex::fmt_pct(1.0 - a.runtime_seconds / c.runtime_seconds),
               ex::fmt_pct(a.vcrd_high_fraction),
               ex::fmt_f(base / rp.rate)});
  }
  std::printf("%s", t.str().c_str());
}

// Figure 8: detailed spinlock waiting times under ASMan (compare Fig 2).
//
// Same setup as Fig 2 but with the Adaptive Scheduler + Monitoring Module.
// Expected shape: the over-threshold tail largely disappears — a few
// residual spikes remain (the first over-threshold wait of each locality,
// which is what *triggers* coscheduling), but far fewer than under Credit.

void print_fig08(const Sweep& s) {
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& a = lu(s, SchedulerKind::kAsman, rp.rate);
    std::printf(
        "\n== Figure 8: spinlock wait distribution, ASMan @ %s online rate "
        "(waits > 2^10: %llu, max 2^%u, adjusting events: %llu) ==\n%s",
        ex::fmt_pct(rp.rate).c_str(),
        static_cast<unsigned long long>(a.stats.spin_waits.count_above(10)),
        sim::log2_floor(a.stats.spin_waits.max_value()),
        static_cast<unsigned long long>(a.adjusting_events),
        a.stats.spin_waits.render(10, 28).c_str());
  }
  std::printf(
      "\n== Over-threshold (>2^20) wait counts: Credit vs ASMan ==\n");
  ex::TextTable t({"online rate", "Credit", "ASMan", "reduction"});
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const auto cc =
        lu(s, SchedulerKind::kCredit, rp.rate).stats.spin_waits.count_above(20);
    const auto aa =
        lu(s, SchedulerKind::kAsman, rp.rate).stats.spin_waits.count_above(20);
    t.add_row({ex::fmt_pct(rp.rate), std::to_string(cc), std::to_string(aa),
               cc > 0 ? ex::fmt_pct(1.0 - static_cast<double>(aa) /
                                              static_cast<double>(cc))
                      : std::string("-")});
  }
  std::printf("%s", t.str().c_str());
}

// Figure 9: slowdowns of all seven NAS parallel benchmarks.
//
// Slowdown of benchmark B at online rate r = T_sched(B, r) / T_credit(B,
// 100%). Panels (a)-(c): per-benchmark slowdown at 66.7/40/22.2 % under
// Credit and ASMan; panel (d): the per-rate average. Expected shape:
// ASMan <= Credit everywhere; EP (no synchronization) is insensitive to
// the scheduler; the sync-heavy codes (LU, CG, SP) degrade worst under
// Credit; at 22.2 % ASMan recovers a large fraction of the excess
// slowdown.

void add_fig09(Sweep& s) {
  for (NpbBenchmark b : workloads::kAllNpb) {
    // Baseline: Credit at 100 %.
    add_npb(s, b, SchedulerKind::kCredit, kFullRate);
    for (SchedulerKind k : kCreditAsman)
      for (const ex::RatePoint& rp : ex::kRatePoints)
        if (rp.rate != 1.0) add_npb(s, b, k, rp);
  }
}

double runtime_of(const Sweep& s, NpbBenchmark b, SchedulerKind k,
                  double rate) {
  return s.get(npb_label(b, k, rate)).run.vm("V1").runtime_seconds;
}

void print_fig09(const Sweep& s) {
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    if (rp.rate == 1.0) continue;
    std::printf("\n== Figure 9: NPB slowdowns @ %s online rate ==\n",
                ex::fmt_pct(rp.rate).c_str());
    ex::TextTable t({"benchmark", "Credit", "ASMan", "ideal"});
    double sum_c = 0, sum_a = 0;
    for (NpbBenchmark b : workloads::kAllNpb) {
      const double base = runtime_of(s, b, SchedulerKind::kCredit, 1.0);
      const double c = runtime_of(s, b, SchedulerKind::kCredit, rp.rate) / base;
      const double a = runtime_of(s, b, SchedulerKind::kAsman, rp.rate) / base;
      sum_c += c;
      sum_a += a;
      t.add_row({workloads::to_string(b), ex::fmt_f(c), ex::fmt_f(a),
                 ex::fmt_f(1.0 / rp.rate)});
    }
    const double n = static_cast<double>(workloads::kAllNpb.size());
    t.add_row({"average", ex::fmt_f(sum_c / n), ex::fmt_f(sum_a / n),
               ex::fmt_f(1.0 / rp.rate)});
    std::printf("%s", t.str().c_str());
    std::printf("  (Fig 9d) average slowdown saving: %s\n",
                ex::fmt_pct(1.0 - sum_a / sum_c).c_str());
  }
}

// Figure 10: SPECjbb2005 throughput in VM V1, Credit vs ASMan.
//
// Warehouses sweep 1..8 on the 4-VCPU VM at online rates 66.7/40/22.2 %;
// throughput = transactions completed per second of virtual time ("bops").
// The SPECjbb score is the average of the throughputs for warehouse counts
// >= the number of VCPUs (4..8). Expected shape: throughput scales up to 4
// warehouses then flattens; at low online rates ASMan beats Credit
// (shared-structure lock convoys are rescued by coscheduling), by up to
// ~25 % at 22.2 %.

constexpr std::uint32_t kMaxWh = 8;
constexpr double kJbbWindowSeconds = 8.0;

std::string jbb_label(SchedulerKind k, double rate, std::uint32_t wh) {
  return point_label("SPECjbb-wh" + std::to_string(wh), k, rate);
}

void add_fig10(Sweep& s) {
  for (SchedulerKind k : kCreditAsman) {
    for (const ex::RatePoint& rp : ex::kRatePoints) {
      if (rp.rate == 1.0) continue;
      for (std::uint32_t wh = 1; wh <= kMaxWh; ++wh) {
        ex::Scenario sc = ex::single_vm_scenario(k, rp.weight,
                                                 ex::specjbb_factory(wh));
        sc.horizon = sim::kDefaultClock.from_seconds_f(kJbbWindowSeconds);
        s.add(jbb_label(k, rp.rate, wh), std::move(sc));
      }
    }
  }
}

double bops(const Sweep& s, SchedulerKind k, double rate, std::uint32_t wh) {
  const auto& pr = s.get(jbb_label(k, rate, wh));
  const ex::VmResult& v1 = pr.run.vm("V1");
  return static_cast<double>(v1.work_units) / pr.run.elapsed_seconds;
}

void print_fig10(const Sweep& s) {
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    if (rp.rate == 1.0) continue;
    std::printf("\n== Figure 10: SPECjbb throughput (bops) @ %s ==\n",
                ex::fmt_pct(rp.rate).c_str());
    ex::TextTable t({"warehouses", "Credit", "ASMan", "gain"});
    for (std::uint32_t wh = 1; wh <= kMaxWh; ++wh) {
      const double c = bops(s, SchedulerKind::kCredit, rp.rate, wh);
      const double a = bops(s, SchedulerKind::kAsman, rp.rate, wh);
      t.add_row({std::to_string(wh), ex::fmt_f(c, 0), ex::fmt_f(a, 0),
                 ex::fmt_pct(a / c - 1.0)});
    }
    std::printf("%s", t.str().c_str());
  }
  std::printf("\n== Figure 10(d): SPECjbb score (avg bops, warehouses>=4) ==\n");
  ex::TextTable t({"online rate", "Credit", "ASMan", "gain"});
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    if (rp.rate == 1.0) continue;
    double c = 0, a = 0;
    for (std::uint32_t wh = 4; wh <= kMaxWh; ++wh) {
      c += bops(s, SchedulerKind::kCredit, rp.rate, wh);
      a += bops(s, SchedulerKind::kAsman, rp.rate, wh);
    }
    c /= kMaxWh - 3;
    a /= kMaxWh - 3;
    t.add_row({ex::fmt_pct(rp.rate), ex::fmt_f(c, 0), ex::fmt_f(a, 0),
               ex::fmt_pct(a / c - 1.0)});
  }
  std::printf("%s", t.str().c_str());
}

// --- multi-VM mixes (§5.3) -------------------------------------------
//
// Every VM has 4 VCPUs and weight 256 (work-conserving mode); each
// benchmark repeats in rounds and the mean of the first `rounds` round
// times is reported (the paper's protocol). Schedulers: Credit, ASMan,
// CON (static coscheduling — the NPB VMs are manually typed concurrent).

constexpr std::uint64_t kFactoryRounds = 40;  // keep running past `rounds`

constexpr std::array<SchedulerKind, 3> kMixScheds = {
    SchedulerKind::kCredit, SchedulerKind::kAsman, SchedulerKind::kCon};

/// One panel of Fig 11 or 12: the workload of each VM, V1 first.
struct Mix {
  const char* panel;
  std::uint64_t rounds;
  std::vector<std::string> vms;
};

std::string mix_label(const Mix& m, SchedulerKind k) {
  return std::string("fig") + m.panel + "/" + core::to_string(k);
}

void add_mix(Sweep& s, const Mix& m) {
  for (SchedulerKind k : kMixScheds) {
    std::vector<std::pair<std::string, ex::WorkloadFactory>> vms;
    std::vector<bool> concurrent;
    for (const std::string& w : m.vms) {
      const bool bzip2 = w == "256.bzip2";
      const bool gcc = w == "176.gcc";
      vms.emplace_back(
          w, bzip2 ? ex::bzip2_factory(kFactoryRounds)
             : gcc ? ex::gcc_factory(kFactoryRounds)
                   : ex::npb_factory(workloads::npb_from_name(w), 4,
                                     kFactoryRounds));
      concurrent.push_back(!bzip2 && !gcc);
    }
    s.add(mix_label(m, k),
          ex::multi_vm_scenario(k, std::move(vms), concurrent, m.rounds));
  }
}

/// One VM of a panel: its mean round time under each of kMixScheds, and
/// the coefficient of variation of its ASMan rounds.
struct MixRow {
  std::string vm;
  std::array<double, kMixScheds.size()> mean;
  std::string asman_cv;
};

std::vector<MixRow> mix_rows(const Sweep& s, const Mix& m) {
  std::vector<MixRow> rows;
  for (std::size_t i = 0; i < m.vms.size(); ++i) {
    MixRow r{m.vms[i] + " (V" + std::to_string(i + 1) + ")", {}, {}};
    for (std::size_t j = 0; j < kMixScheds.size(); ++j)
      r.mean[j] = s.get(mix_label(m, kMixScheds[j]))
                      .run.vms[i + 1]
                      .mean_round_seconds(m.rounds);
    // Paper protocol (§5.3): the mean is only reported when the rounds'
    // coefficient of variation is below 10 %.
    sim::Summary sum;
    const auto& rs = s.get(mix_label(m, SchedulerKind::kAsman))
                         .run.vms[i + 1]
                         .round_seconds;
    for (std::size_t ri = 0; ri < rs.size() && ri < m.rounds; ++ri)
      sum.add(rs[ri]);
    r.asman_cv = ex::fmt_pct(sum.cv());
    rows.push_back(std::move(r));
  }
  return rows;
}

/// The panel's table: the VM column, one column per scheduler, then
/// `extra`.
ex::TextTable mix_table(std::initializer_list<std::string> extra) {
  std::vector<std::string> head{"workload (VM)"};
  for (SchedulerKind k : kMixScheds) head.push_back(core::to_string(k));
  head.insert(head.end(), extra);
  return ex::TextTable(head);
}

void print_mix(const Mix& m, const ex::TextTable& t) {
  std::printf("\n== Figure %s: mean round time (s, first %llu rounds) ==\n",
              m.panel, static_cast<unsigned long long>(m.rounds));
  std::printf("%s", t.str().c_str());
}

// Figure 11: four VMs running simultaneously.
//
//  (a) mixed tenancy: 256.bzip2, 176.gcc (high-throughput, 4 copies each)
//      + SP, LU (concurrent, 4 threads each);
//  (b) all concurrent: LU, LU, SP, SP.
//
// Expected shape: coscheduling (ASMan/CON) cuts the run time of SP and LU
// sharply; the throughput VMs pay a small penalty, smaller under ASMan
// than under CON (over-coscheduling).
const Mix kFig11[] = {
    {"11(a)", 10, {"256.bzip2", "176.gcc", "SP", "LU"}},
    {"11(b)", 10, {"LU", "LU", "SP", "SP"}},
};

void add_fig11(Sweep& s) {
  for (const Mix& m : kFig11) add_mix(s, m);
}

void print_fig11(const Sweep& s) {
  for (const Mix& m : kFig11) {
    ex::TextTable t = mix_table({"cv (ASMan)"});
    for (const MixRow& r : mix_rows(s, m)) {
      std::vector<std::string> row{r.vm};
      for (double v : r.mean) row.push_back(ex::fmt_f(v));
      row.push_back(r.asman_cv);
      t.add_row(std::move(row));
    }
    print_mix(m, t);
  }
}

// Figure 12: six VMs running simultaneously.
//
//  (a) 4 high-throughput + 2 concurrent: bzip2, bzip2, gcc, gcc, SP, LU;
//  (b) 2 high-throughput + 4 concurrent: bzip2, gcc, SP, SP, LU, LU.
//
// Expected shape (paper §5.3): coscheduling saves up to ~45 % of SP's and
// ~70 % of LU's run time in (a), ~30 %/~60 % in (b); the throughput VMs
// degrade at most ~8 % under ASMan but ~18 % under CON (static
// over-coscheduling steals the extra time load balancing would hand them).
// Six rounds, not ten, keep the Credit runs inside the horizon.
const Mix kFig12[] = {
    {"12(a)", 6, {"256.bzip2", "256.bzip2", "176.gcc", "176.gcc", "SP", "LU"}},
    {"12(b)", 6, {"256.bzip2", "176.gcc", "SP", "SP", "LU", "LU"}},
};

void add_fig12(Sweep& s) {
  for (const Mix& m : kFig12) add_mix(s, m);
}

void print_fig12(const Sweep& s) {
  for (const Mix& m : kFig12) {
    ex::TextTable t =
        mix_table({"ASMan vs Credit", "CON vs Credit", "cv (ASMan)"});
    for (const MixRow& r : mix_rows(s, m)) {
      const auto& [credit, asman, con] = r.mean;  // kMixScheds order
      t.add_row({r.vm, ex::fmt_f(credit), ex::fmt_f(asman), ex::fmt_f(con),
                 ex::fmt_pct(1.0 - asman / credit),
                 ex::fmt_pct(1.0 - con / credit), r.asman_cv});
    }
    print_mix(m, t);
  }
  std::printf(
      "\n(positive saving = coscheduling helped; for the throughput VMs a\n"
      " negative value is their degradation — expected small for ASMan,\n"
      " larger for CON.)\n");
}

// --- ablation (ours; supports the design discussion in DESIGN.md) -----
//
//  1. Over-threshold exponent delta: the paper picks delta = 20. Smaller
//     deltas trigger coscheduling on benign contention (overhead); larger
//     ones miss lock-holder preemption events (under-coverage).
//  2. Learned window vs fixed window: Algorithm 1's Roth-Erev estimator
//     against hand-picked constants.
//  3. IPI latency sensitivity: the coscheduling mechanism's cost knob.
//
// All points run LU at the worst operating point (22.2 % online rate).

/// One row of the ablation table and the point it reads. `tweak` turns LU
/// under ASMan @ 22.2 % into the variant; a row without one reads a shared
/// LU point (its knob is at the default).
struct Variant {
  std::string row;
  std::string label;
  std::function<void(ex::Scenario&)> tweak;
};

ex::Scenario lu_asman() {
  return ex::single_vm_scenario(SchedulerKind::kAsman, kWorstRate.weight,
                                ex::npb_factory(NpbBenchmark::kLU));
}

std::vector<Variant> ablation_variants() {
  const ex::Scenario base = lu_asman();
  const std::string asman =
      npb_label(NpbBenchmark::kLU, SchedulerKind::kAsman, kWorstRate.rate);
  std::vector<Variant> v;
  const auto knob = [&](std::string row, std::string label, bool at_default,
                        std::function<void(ex::Scenario&)> tweak) {
    if (at_default)
      v.push_back({std::move(row), asman, {}});
    else
      v.push_back({std::move(row), std::move(label), std::move(tweak)});
  };
  v.push_back({"Credit (no cosched)",
               npb_label(NpbBenchmark::kLU, SchedulerKind::kCredit,
                         kWorstRate.rate),
               {}});
  for (unsigned delta : {16u, 18u, 20u, 22u, 24u})
    knob("delta = 2^" + std::to_string(delta),
         "delta/" + std::to_string(delta), delta == base.monitor.delta_exp,
         [delta](ex::Scenario& sc) { sc.monitor.delta_exp = delta; });
  v.push_back({"window: learned (Alg 1-2)", asman, {}});
  for (unsigned ms : {10u, 30u, 100u, 300u})
    knob("window: fixed " + std::to_string(ms) + "ms",
         "fixed_window/" + std::to_string(ms) + "ms", false,
         [ms](ex::Scenario& sc) {
           sc.monitor.fixed_window = sim::kDefaultClock.from_ms(ms);
         });
  for (unsigned us : {2u, 50u, 500u})
    knob("IPI latency " + std::to_string(us) + "us",
         "ipi_latency/" + std::to_string(us) + "us",
         us == base.machine.ipi_latency_us,
         [us](ex::Scenario& sc) { sc.machine.ipi_latency_us = us; });
  // Out-of-VM VCRD inference (no guest modification; the paper's §7
  // future work) against the in-guest Monitoring Module.
  knob("out-of-VM monitor (yield rate)", "monitor/out-of-vm", false,
       [](ex::Scenario& sc) { sc.scheduler = SchedulerKind::kAsmanHw; });
  // Relaxed (VMware-style, boost-only) vs strict (co-start/co-stop) gangs.
  knob("relaxed gangs (boost only)", "gang/relaxed", false,
       [](ex::Scenario& sc) {
         sc.strictness = vmm::Hypervisor::Strictness::kRelaxed;
       });
  // Detection-signal ablation: without the remote-runqueue probing of the
  // guest's tick/yield paths, lock-holder preemption goes largely unseen.
  knob("no remote rq probing in guest", "signal/no-remote-probing", false,
       [](ex::Scenario& sc) {
         ex::VmSpec& v1 = sc.vms[1];
         v1.guest.balance_every_ticks = 0;
         v1.guest.yield_balance_every = 0;
       });
  return v;
}

void add_ablation(Sweep& s) {
  add_npb(s, NpbBenchmark::kLU, SchedulerKind::kCredit, kWorstRate);
  add_npb(s, NpbBenchmark::kLU, SchedulerKind::kAsman, kWorstRate);
  for (const Variant& v : ablation_variants()) {
    if (!v.tweak) continue;
    ex::Scenario sc = lu_asman();
    v.tweak(sc);
    s.add(v.label, std::move(sc));
  }
}

void print_ablation(const Sweep& s) {
  std::printf("\n== Ablation: LU @ 22.2%% online rate (ASMan) ==\n");
  ex::TextTable t({"variant", "run time (s)", "adjusting events",
                   "VCRD-HIGH time"});
  for (const Variant& v : ablation_variants()) {
    const ex::VmResult& v1 = s.get(v.label).run.vm("V1");
    t.add_row({v.row, ex::fmt_f(v1.runtime_seconds),
               std::to_string(v1.adjusting_events),
               ex::fmt_pct(v1.vcrd_high_fraction)});
  }
  std::printf("%s", t.str().c_str());
}

// --- the figure table ----------------------------------------------------

struct Figure {
  const char* name;
  void (*add)(Sweep&);
  void (*print)(const Sweep&);
};

constexpr Figure kFigures[] = {
    {"fig01", add_fig01, print_fig01},
    {"fig02", add_fig02, print_fig02},
    {"fig07", add_lu_credit_asman, print_fig07},
    {"fig08", add_lu_credit_asman, print_fig08},
    {"fig09", add_fig09, print_fig09},
    {"fig10", add_fig10, print_fig10},
    {"fig11", add_fig11, print_fig11},
    {"fig12", add_fig12, print_fig12},
    {"ablation", add_ablation, print_ablation},
};

int usage(const char* bad) {
  std::fprintf(stderr, "unknown figure '%s'\nusage: figures [FIGURE]...\n",
               bad);
  std::fprintf(stderr, "  FIGURE is one of:");
  for (const Figure& f : kFigures) std::fprintf(stderr, " %s", f.name);
  std::fprintf(stderr, "\n  (none: every figure, in this order)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::array<bool, std::size(kFigures)> chosen{};
  chosen.fill(argc == 1);
  for (int i = 1; i < argc; ++i) {
    const auto* f = std::find_if(
        std::begin(kFigures), std::end(kFigures),
        [&](const Figure& fig) { return std::strcmp(fig.name, argv[i]) == 0; });
    if (f == std::end(kFigures)) return usage(argv[i]);
    chosen[static_cast<std::size_t>(f - std::begin(kFigures))] = true;
  }
  Sweep sweep;
  for (std::size_t i = 0; i < chosen.size(); ++i)
    if (chosen[i]) kFigures[i].add(sweep);
  return run_bench_main(sweep, "figures", [&chosen](const Sweep& s) {
    for (std::size_t i = 0; i < chosen.size(); ++i)
      if (chosen[i]) kFigures[i].print(s);
  });
}
