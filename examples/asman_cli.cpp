// asman_cli: one front end for every scenario family the simulator ships.
//
//   asman_cli [COMMAND] [--flag=value | --flag value | --switch]...
//
//   run          one single-VM scenario and its report (the default)
//   chaos        fault injection end to end: injected vs degraded ledger
//   churn        runtime VM lifecycle churn, audited live
//   topology     socket-aware vs topology-blind placement
//   contention   pressure-aware vs pressure-blind placement
//   adversary    one attack class at three hardening levels
//   cluster      the multi-host fabric through migrations and a crash
//   timeline     gantt CSV of VCPU online spans + cosched trace lines
//   rates        Credit vs ASMan run time across the online-rate sweep
//   consolidate  four tenants on one work-conserving host (§5.3)
//
// With no command, or a flag first, the command is `run`. Each command
// declares its flags and their defaults in commands() below, and every
// argument is checked before anything runs: an unknown command, flag or
// name, or a malformed number, prints usage on stderr and exits 2.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/schedulers.h"
#include "experiments/adversary.h"
#include "experiments/chaos.h"
#include "experiments/churn.h"
#include "experiments/cluster.h"
#include "experiments/contention.h"
#include "experiments/paper.h"
#include "experiments/tables.h"
#include "experiments/topology.h"
#include "guest/guest_kernel.h"
#include "simcore/trace.h"
#include "workloads/kernbench.h"
#include "workloads/npb.h"
#include "workloads/synthetic.h"

using namespace asman;
namespace ex = asman::experiments;

namespace {

// ------------------------------------------------------------- parsing

/// Strict unsigned parse: the whole value must be digits (no empty string,
/// sign, trailing junk, or overflow). strtoull alone silently maps all of
/// those to 0 — and a run advertised as bit-reproducible per seed must not
/// quietly run seed 0 when handed --seed=42x.
bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  // strtoull accepts a leading '-' by wrapping; reject any non-digit lead.
  if (*s < '0' || *s > '9') return false;
  out = v;
  return true;
}

/// Strict positive seconds ("0.2", "180"): the whole value must parse, and
/// at most 1e6 keeps the cycle count (seconds x clock rate, converted to a
/// 64-bit integer) in range.
bool parse_seconds(const char* s, double& out) {
  if (s == nullptr || ((*s < '0' || *s > '9') && *s != '.')) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || *end != '\0' || !(v > 0.0 && v <= 1e6))
    return false;
  out = v;
  return true;
}

using Names = std::vector<std::string>;

template <typename Range>
Names names_of(const Range& all) {
  Names n;
  for (const auto v : all) n.push_back(to_string(v));
  return n;
}

/// The member of `all` called `name`; the parser has already checked that
/// there is one.
template <typename Range>
auto named(const Range& all, const std::string& name) {
  for (const auto v : all)
    if (name == to_string(v)) return v;
  std::abort();
}

struct SchedName {
  const char* name;
  core::SchedulerKind kind;
};
constexpr SchedName kSchedNames[] = {
    {"credit", core::SchedulerKind::kCredit},
    {"asman", core::SchedulerKind::kAsman},
    {"asman-hw", core::SchedulerKind::kAsmanHw},
    {"con", core::SchedulerKind::kCon}};

core::SchedulerKind sched_of(const std::string& name) {
  for (const SchedName& s : kSchedNames)
    if (name == s.name) return s.kind;
  std::abort();
}

Names sched_names() {
  Names n;
  for (const SchedName& s : kSchedNames) n.push_back(s.name);
  return n;
}
Names timeline_sched_names() { return {"credit", "asman", "con"}; }
Names chaos_names() { return names_of(ex::all_chaos_classes()); }
Names attack_names() { return names_of(workloads::kAllAttacks); }
Names npb_names() { return names_of(workloads::kAllNpb); }
Names run_bench_names() {
  Names n = npb_names();
  n.insert(n.end(), {"jbb", "gcc", "bzip2", "kernbench", "sempp"});
  return n;
}

enum class Kind {
  kSwitch,   // no value; on when given
  kCount,    // unsigned, within [Flag::min, Flag::max]
  kSeed,     // 64-bit unsigned
  kSeconds,  // positive decimal, at most 1e6
  kName,     // one of Flag::names()
};

struct Flag {
  const char* name;
  Kind kind;
  const char* def;  // default value; "" = none (a switch: off)
  const char* help;
  Names (*names)(){nullptr};
  std::uint32_t min{0};
  std::uint32_t max{0xFFFFFFFF};
  /// Switches that decide whether the flag means anything: it acts only
  /// with `only_with` on, and never with `not_with` on ("" = no such
  /// switch). Given where it would be ignored, the command is rejected.
  const char* only_with{""};
  const char* not_with{""};
};

std::string flag_syntax(const Flag& f) {
  std::string s = std::string("--") + f.name;
  switch (f.kind) {
    case Kind::kSwitch:
      return s;
    case Kind::kCount:
      if (f.max != 0xFFFFFFFF)
        return s + "=N (" + std::to_string(f.min) + ".." +
               std::to_string(f.max) + ")";
      return f.min > 0 ? s + "=N (>= " + std::to_string(f.min) + ")"
                       : s + "=N";
    case Kind::kSeed:
      return s + "=N";
    case Kind::kSeconds:
      return s + "=S (0 < S <= 1e6)";
    case Kind::kName:
      return s + "=NAME";
  }
  return s;
}

/// One invocation's flags, each checked against its Flag and defaulted
/// from it.
class Args {
 public:
  const std::string& text(const char* flag) const { return v_.at(flag).text; }
  bool on(const char* flag) const { return !text(flag).empty(); }
  std::uint64_t u64(const char* flag) const { return v_.at(flag).n; }
  std::uint32_t u32(const char* flag) const {
    return static_cast<std::uint32_t>(u64(flag));
  }
  double seconds(const char* flag) const { return v_.at(flag).seconds; }

  /// Checks `text` against `f` and stores it; on failure sets `why`.
  bool set(const Flag& f, const std::string& text, std::string& why) {
    Value v{text, 0, 0.0};
    bool ok = true;
    switch (f.kind) {
      case Kind::kSwitch:
        break;
      case Kind::kCount:
        ok = parse_u64(text.c_str(), v.n) && v.n >= f.min && v.n <= f.max;
        break;
      case Kind::kSeed:
        ok = parse_u64(text.c_str(), v.n);
        break;
      case Kind::kSeconds:
        ok = parse_seconds(text.c_str(), v.seconds);
        break;
      case Kind::kName: {
        const Names names = f.names();
        if (std::find(names.begin(), names.end(), text) == names.end()) {
          why = "unknown name '" + text + "' for --" + f.name + "; one of:";
          for (const std::string& n : names) why += " " + n;
          return false;
        }
        break;
      }
    }
    if (!ok) {
      why = "malformed value '" + text + "' for " + flag_syntax(f);
      return false;
    }
    v_[f.name] = std::move(v);
    return true;
  }

  /// Stores `f` as not given (an empty name, a switch that is off).
  void clear(const Flag& f) { v_[f.name] = Value{"", 0, 0.0}; }

 private:
  struct Value {
    std::string text;
    std::uint64_t n;
    double seconds;
  };
  std::map<std::string, Value> v_;
};

struct Command {
  const char* name;
  const char* summary;
  std::vector<Flag> flags;
  int (*run)(const Args&);
};

const std::vector<Command>& commands();

void print_command_usage(const Command& c, bool with_names) {
  std::fprintf(stderr, "\n  %-12s %s\n", c.name, c.summary);
  for (const Flag& f : c.flags) {
    std::fprintf(stderr, "    %-22s %s", flag_syntax(f).c_str(), f.help);
    if (*f.def != '\0' && f.kind != Kind::kSwitch)
      std::fprintf(stderr, " (default: %s)", f.def);
    std::fprintf(stderr, "\n");
    if (with_names && f.kind == Kind::kName) {
      std::fprintf(stderr, "    %-22s", "");
      for (const std::string& n : f.names())
        std::fprintf(stderr, " %s", n.c_str());
      std::fprintf(stderr, "\n");
    }
  }
}

/// Usage on stderr: every command, or just `only` with its name lists.
int usage(const Command* only) {
  std::fprintf(stderr,
               "usage: asman_cli [COMMAND] [--flag=value | --flag value | "
               "--switch]...\n"
               "COMMAND defaults to run when omitted or when a flag comes "
               "first.\n");
  if (only != nullptr) {
    print_command_usage(*only, /*with_names=*/true);
  } else {
    for (const Command& c : commands())
      print_command_usage(c, /*with_names=*/false);
  }
  return 2;
}

int fail(const Command& c, const std::string& why) {
  std::fprintf(stderr, "asman_cli %s: %s\n", c.name, why.c_str());
  return usage(&c);
}

/// Fills `out` from the command's defaults, then from argv; returns 0 on
/// success, else prints usage and returns 2.
int parse(const Command& c, int argc, char** argv, Args& out) {
  std::string why;
  std::vector<const Flag*> given;
  for (const Flag& f : c.flags) {
    if (*f.def == '\0')
      out.clear(f);
    else if (!out.set(f, f.def, why))
      std::abort();  // a default that fails its own flag's check
  }
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, 2, "--") != 0)
      return fail(c, "unexpected argument '" + arg + "'");
    const std::size_t eq = arg.find('=');
    const std::string name =
        arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    const Flag* f = nullptr;
    for (const Flag& g : c.flags)
      if (name == g.name) f = &g;
    if (f == nullptr) return fail(c, "unknown flag '--" + name + "'");
    std::string value;
    if (f->kind == Kind::kSwitch) {
      if (eq != std::string::npos) return fail(c, arg + ": takes no value");
      value = "on";
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return fail(c, arg + ": needs a value");
    }
    if (!out.set(*f, value, why)) return fail(c, why);
    given.push_back(f);
  }
  const auto on = [&given](const char* sw) {
    return std::any_of(given.begin(), given.end(), [sw](const Flag* g) {
      return std::strcmp(g->name, sw) == 0;
    });
  };
  for (const Flag* f : given) {
    if (*f->only_with != '\0' && !on(f->only_with))
      return fail(c, std::string("--") + f->name + " only applies with --" +
                         f->only_with);
    if (*f->not_with != '\0' && on(f->not_with))
      return fail(c, std::string("--") + f->name + " does not apply with --" +
                         f->not_with);
  }
  return 0;
}

// ------------------------------------------------------ shared output

void print_chaos_classes() {
  std::printf("chaos classes:\n");
  for (const ex::ChaosClass c : ex::all_chaos_classes())
    std::printf("  %s\n", ex::to_string(c));
}

/// The auditor footer under a single-host run's tables (`which` names the
/// run when the command compares two).
void print_audit(const ex::RunResult& r, const char* which) {
  if (r.audit_checks > 0)
    std::printf("auditor%s: %llu checks, %llu violation(s)\n%s", which,
                static_cast<unsigned long long>(r.audit_checks),
                static_cast<unsigned long long>(r.audit_violations),
                r.audit_violations > 0 ? r.audit_summary.c_str() : "");
}

/// Composes --class onto a placement study. The fault plan draws from its
/// own stream so the fleet's seeds are the same with and without faults.
void compose_chaos(ex::Scenario& sc, const Args& a) {
  if (!a.on("class")) return;
  sc.faults.seed = a.u64("seed") ^ 0xC4A05ULL;
  ex::apply_chaos(sc, named(ex::all_chaos_classes(), a.text("class")));
}

const char* fault_label(const Args& a) {
  return a.on("class") ? a.text("class").c_str() : "fault-free";
}

// ----------------------------------------------------------- commands

// Composes one single-VM scenario (idle Dom0 at weight 256 beside V1)
// from flags and prints a one-screen report: run time, online rate, guest
// spinlock/futex/barrier counters, VCRD activity and scheduler counters.
int run_cmd(const Args& a) {
  const core::SchedulerKind sched = sched_of(a.text("sched"));
  const std::uint32_t weight = a.u32("weight");
  const std::string& bench = a.text("bench");
  const std::uint64_t seed = a.u64("seed");
  const bool relaxed = a.on("relaxed");
  const bool samples = a.on("samples");

  ex::WorkloadFactory wl;
  if (bench == "jbb") {
    wl = ex::specjbb_factory(a.u32("warehouses"));
  } else if (bench == "gcc") {
    wl = ex::gcc_factory();
  } else if (bench == "bzip2") {
    wl = ex::bzip2_factory();
  } else if (bench == "kernbench") {
    wl = [](sim::Simulator& s2, std::uint64_t sd) {
      return std::make_unique<workloads::KernbenchWorkload>(
          s2, workloads::KernbenchParams{}, sd);
    };
  } else if (bench == "sempp") {
    wl = [](sim::Simulator&, std::uint64_t s) {
      return std::make_unique<workloads::SemaphorePingPongWorkload>(
          2, 4000, sim::kDefaultClock.from_us(300), s);
    };
  } else {
    wl = ex::npb_factory(workloads::npb_from_name(bench));
  }

  ex::Scenario sc = ex::single_vm_scenario(sched, weight, std::move(wl), seed);
  sc.horizon = sim::kDefaultClock.from_seconds_f(a.seconds("horizon"));
  sc.keep_wait_samples = samples;
  sc.monitor.delta_exp = a.u32("delta");
  if (relaxed) sc.strictness = vmm::Hypervisor::Strictness::kRelaxed;

  const ex::RunResult r = ex::run_scenario(sc);
  const ex::VmResult& v1 = r.vm("V1");
  const guest::GuestStats& gs = v1.stats;
  const auto n = [](std::uint64_t v) { return std::to_string(v); };

  std::printf("%s | %s | weight %u (nominal rate %s) | seed %llu%s\n\n",
              core::to_string(sched), bench.c_str(), weight,
              ex::fmt_pct(8.0 * (static_cast<double>(weight) /
                                 (256.0 + weight)) /
                          4.0)
                  .c_str(),
              static_cast<unsigned long long>(seed),
              relaxed ? " | relaxed gangs" : "");
  ex::TextTable t({"metric", "value"});
  t.add_row({"run time (s)", ex::fmt_f(v1.runtime_seconds)});
  t.add_row({"finished", v1.finished ? "yes" : "no (horizon)"});
  t.add_row({"observed online rate", ex::fmt_pct(v1.observed_online_rate)});
  t.add_row({"work units", n(v1.work_units)});
  t.add_row({"spin acquisitions", n(gs.spin_acquisitions)});
  t.add_row({"contended acquisitions", n(gs.spin_contended)});
  t.add_row({"spin waits > 2^10", n(gs.spin_waits.count_above(10))});
  t.add_row({"spin waits > 2^15", n(gs.spin_waits.count_above(15))});
  t.add_row({"spin waits > 2^20", n(gs.spin_waits.count_above(20))});
  t.add_row({"spin waits > 2^24", n(gs.spin_waits.count_above(24))});
  t.add_row({"max spin wait (log2)",
             std::to_string(sim::log2_floor(gs.spin_waits.max_value()))});
  t.add_row({"max sem wait (log2)",
             std::to_string(sim::log2_floor(gs.sem_waits.max_value()))});
  t.add_row({"futex waits", n(gs.futex_waits)});
  t.add_row({"futex wakes", n(gs.futex_wakes)});
  t.add_row({"barrier arrivals", n(gs.barrier_arrivals)});
  t.add_row({"barrier kernel sleeps", n(gs.barrier_kernel_sleeps)});
  t.add_row({"guest ticks", n(gs.ticks)});
  t.add_row({"guest context switches", n(gs.context_switches)});
  t.add_row({"VCRD windows", n(v1.vcrd_transitions)});
  t.add_row({"VCRD HIGH time", ex::fmt_pct(v1.vcrd_high_fraction)});
  t.add_row({"over-threshold waits", n(v1.over_threshold_events)});
  t.add_row({"adjusting events", n(v1.adjusting_events)});
  t.add_row({"cosched launches", n(r.cosched_events)});
  t.add_row({"IPIs", n(r.ipi_sent)});
  t.add_row({"VCPU migrations", n(r.migrations)});
  t.add_row({"VMM context switches", n(r.context_switches)});
  t.add_row({"PCPU idle time", ex::fmt_pct(r.idle_fraction)});
  t.add_row({"simulated events", n(r.events)});
  std::printf("%s", t.str().c_str());
  if (samples) {
    std::printf("\nspinlock wait histogram (log2 cycles):\n%s",
                gs.spin_waits.render(10, 28).c_str());
  }
  return 0;
}

// Runs the chaos workload (idle Dom0 + a 4-VCPU gang + a CPU hog, plus
// extra hogs via --vms, on a 4-PCPU host) under ASMan with the chosen
// fault class armed, then prints what was injected and how the scheduler
// degraded gracefully instead of deadlocking or asserting.
int chaos_cmd(const Args& a) {
  if (a.on("list")) {
    print_chaos_classes();
    return 0;
  }
  const ex::ChaosClass cls = named(ex::all_chaos_classes(), a.text("class"));
  const std::uint32_t n_vms = a.u32("vms");
  const std::uint64_t seed = a.u64("seed");

  ex::Scenario sc =
      ex::chaos_scenario(core::SchedulerKind::kAsman, cls, seed, n_vms);
  sc.audit = true;  // run with the runtime invariant auditor attached
  const ex::RunResult r = ex::run_scenario(sc);

  std::printf("chaos run: ASMan, %s, %u VMs, seed %llu, %0.2f simulated "
              "seconds\n\n",
              ex::to_string(cls), n_vms,
              static_cast<unsigned long long>(seed), r.elapsed_seconds);

  ex::TextTable injected({"injected fault", "count"});
  injected.add_row({"IPIs dropped", std::to_string(r.ipi_dropped)});
  injected.add_row({"IPIs delayed", std::to_string(r.ipi_delayed)});
  injected.add_row({"IPIs duplicated", std::to_string(r.ipi_duplicated)});
  injected.add_row({"VCRD flaps", std::to_string(r.injected_flaps)});
  injected.add_row({"corrupt hypercalls",
                    std::to_string(r.injected_corrupt_ops)});
  injected.add_row({"silenced VCRD reports",
                    std::to_string(r.silenced_reports)});
  injected.add_row({"PCPU offline events",
                    std::to_string(r.pcpu_offline_events)});
  std::printf("%s\n", injected.str().c_str());

  ex::TextTable degraded({"graceful degradation", "count"});
  degraded.add_row({"IPI retries", std::to_string(r.ipi_retries)});
  degraded.add_row({"gang starts abandoned",
                    std::to_string(r.gang_ipi_aborts)});
  degraded.add_row({"co-stop watchdog fires",
                    std::to_string(r.gang_watchdog_fires)});
  degraded.add_row({"VMs demoted to stock credit",
                    std::to_string(r.vcrd_demotions)});
  degraded.add_row({"stale VCRDs dropped (TTL)",
                    std::to_string(r.stale_vcrd_drops)});
  degraded.add_row({"hypercalls rejected",
                    std::to_string(r.hypercall_rejects)});
  degraded.add_row({"kicks to crashed VCPUs ignored",
                    std::to_string(r.ignored_kicks)});
  degraded.add_row({"VCPUs evacuated off dead PCPUs",
                    std::to_string(r.evacuated_vcpus)});
  std::printf("%s\n", degraded.str().c_str());

  ex::TextTable vms({"VM", "online rate", "lock acquisitions", "demotions",
                     "degraded at end"});
  for (const ex::VmResult& v : r.vms)
    vms.add_row({v.name, ex::fmt_pct(v.observed_online_rate),
                 std::to_string(v.stats.spin_acquisitions),
                 std::to_string(v.demotions), v.degraded ? "yes" : "no"});
  std::printf("%s\n", vms.str().c_str());

  print_audit(r, "");

  if (cls == ex::ChaosClass::kEverything)
    std::printf(
        "\nThe run reaches its horizon with zero invariant violations: "
        "lost\n"
        "IPIs are retried then abandoned, half-arrived gangs are released "
        "by\n"
        "the co-stop watchdog, the flapping guest is demoted to stock "
        "credit\n"
        "treatment (and lifted after a quiet backoff), stale HIGH VCRDs "
        "age\n"
        "out, and the offlined PCPU's VCPUs migrate with credit intact.\n");
  return 0;
}

// Runs the churn scenario (the chaos base host plus an Elastic resize
// target) under ASMan: hot creates arrive throughout the run, some depart
// again, the Elastic VM is resized through 1-4 VCPUs, and the gang
// candidate is destroyed mid-gang — all audited live. --saturated runs the
// admission-saturated arrival storm instead.
int churn_cmd(const Args& a) {
  if (a.on("list")) {
    print_chaos_classes();
    return 0;
  }
  const std::uint64_t seed = a.u64("seed");
  ex::Scenario sc;
  const char* flavor = "fault-free";
  if (a.on("saturated")) {
    sc = ex::saturated_churn_scenario(core::SchedulerKind::kAsman, seed);
    flavor = "saturated";
  } else {
    ex::ChurnConfig cfg;
    cfg.arrivals = a.u32("vms");
    if (a.on("class")) {
      sc = ex::churn_chaos_scenario(
          core::SchedulerKind::kAsman,
          named(ex::all_chaos_classes(), a.text("class")), seed, cfg);
      flavor = fault_label(a);
    } else {
      sc = ex::churn_scenario(core::SchedulerKind::kAsman, seed, cfg);
    }
  }
  sc.audit = true;  // run with the runtime invariant auditor attached
  const ex::RunResult r = ex::run_scenario(sc);

  std::printf("churn run: ASMan, %s, seed %llu, %0.2f simulated seconds\n\n",
              flavor, static_cast<unsigned long long>(seed),
              r.elapsed_seconds);

  ex::TextTable lifecycle({"lifecycle event", "count"});
  lifecycle.add_row({"hot creates", std::to_string(r.vm_creates)});
  lifecycle.add_row({"destroys", std::to_string(r.vm_destroys)});
  lifecycle.add_row({"resizes", std::to_string(r.vm_resizes)});
  lifecycle.add_row({"admission rejects",
                     std::to_string(r.admission_rejects)});
  lifecycle.add_row({"overload sheds", std::to_string(r.overload_sheds)});
  lifecycle.add_row({"overload restores",
                     std::to_string(r.overload_restores)});
  lifecycle.add_row({"hypercalls bounced off tombstones",
                     std::to_string(r.hypercall_rejects)});
  std::printf("%s\n", lifecycle.str().c_str());

  // Every VM that ever existed reports under its stable VmId — destroyed
  // tenants keep their row (runtime up to destruction, online rate over
  // their lifetime) instead of vanishing from the result.
  ex::TextTable vms({"id", "VM", "fate", "runtime (s)", "online rate",
                     "work units"});
  for (const ex::VmResult& v : r.vms) {
    char rt[32];
    std::snprintf(rt, sizeof rt, "%.3f", v.runtime_seconds);
    vms.add_row({std::to_string(v.id), v.name,
                 v.destroyed ? "destroyed" : "alive", rt,
                 ex::fmt_pct(v.observed_online_rate),
                 std::to_string(v.work_units)});
  }
  std::printf("%s\n", vms.str().c_str());

  print_audit(r, "");

  std::printf(
      "\nEvery lifecycle operation above landed at a live scheduling "
      "event:\n"
      "new VMs were minted credits at the next accounting period without\n"
      "touching existing shares, destroyed VMs were drained from every "
      "run\n"
      "queue (the mid-gang destruction aborted its gang cleanly), and "
      "the\n"
      "auditor's shadow state machine followed every transition.\n");
  return 0;
}

// Runs the consolidated fleet twice on the paper's dual-socket host
// (2 sockets x 2 shared-L2 domains x 2 cores) under ASMan, once with
// topology-aware placement and once blind, at the same migration cost
// model: the aware run should trade cross-socket migrations for same-LLC
// ones.
int topology_cmd(const Args& a) {
  if (a.on("list")) {
    print_chaos_classes();
    return 0;
  }
  const std::uint32_t n_vms = a.u32("vms");
  const std::uint64_t seed = a.u64("seed");
  const auto run = [&](bool aware) {
    ex::Scenario sc = ex::topology_scenario(core::SchedulerKind::kAsman,
                                            seed, aware, n_vms);
    compose_chaos(sc, a);
    sc.audit = true;  // run with the runtime invariant auditor attached
    return ex::run_scenario(sc);
  };
  const ex::RunResult aware = run(true);
  const ex::RunResult blind = run(false);

  std::printf("topology run: ASMan on 2 sockets x 2 LLCs x 2 PCPUs, %s, "
              "%u VMs, seed %llu\n\n",
              fault_label(a), n_vms, static_cast<unsigned long long>(seed));

  ex::TextTable costs({"migration cost", "aware", "blind"});
  costs.add_row({"total migrations", std::to_string(aware.migrations),
                 std::to_string(blind.migrations)});
  costs.add_row({"cross-LLC (same socket)",
                 std::to_string(aware.cross_llc_migrations),
                 std::to_string(blind.cross_llc_migrations)});
  costs.add_row({"cross-socket", std::to_string(aware.cross_socket_migrations),
                 std::to_string(blind.cross_socket_migrations)});
  costs.add_row({"warm-cache penalty (cycles)",
                 std::to_string(aware.migration_penalty_cycles),
                 std::to_string(blind.migration_penalty_cycles)});
  costs.add_row({"steals rejected by cost",
                 std::to_string(aware.topology_steal_rejects),
                 std::to_string(blind.topology_steal_rejects)});
  std::printf("%s\n", costs.str().c_str());

  ex::TextTable vms({"VM", "online rate", "cross-LLC", "cross-socket",
                     "penalty (cycles)"});
  for (const ex::VmResult& v : aware.vms)
    vms.add_row({v.name, ex::fmt_pct(v.observed_online_rate),
                 std::to_string(v.cross_llc_migrations),
                 std::to_string(v.cross_socket_migrations),
                 std::to_string(v.migration_penalty_cycles)});
  std::printf("aware run, per VM:\n%s\n", vms.str().c_str());

  print_audit(aware, " (aware run)");

  std::printf(
      "\nBoth runs pay the same warm-cache cost model; only placement\n"
      "differs. The aware run packs gangs into one socket (pairwise\n"
      "distinct PCPUs, nearest-first stealing, penalty-gated steals), so\n"
      "its cross-socket column should undercut the blind baseline's.\n");
  return 0;
}

// Runs the memory-hungry fleet twice on the dual-socket host with finite
// LLC capacity (6 MiB per domain) and socket bandwidth (8 GB/s) under
// ASMan, once pressure-aware and once blind. Both pay the same contention
// physics; only placement, steal gating and the pressure balancer differ.
int contention_cmd(const Args& a) {
  if (a.on("list")) {
    print_chaos_classes();
    return 0;
  }
  const std::uint32_t n_vms = a.u32("vms");
  const std::uint64_t seed = a.u64("seed");
  const auto run = [&](bool aware) {
    ex::Scenario sc = ex::contention_scenario(core::SchedulerKind::kAsman,
                                              seed, aware, n_vms);
    compose_chaos(sc, a);
    sc.audit = true;  // pressure-conservation checked on every period
    return ex::run_scenario(sc);
  };
  const ex::RunResult aware = run(true);
  const ex::RunResult blind = run(false);

  std::printf("contention run: ASMan on 2 sockets x 2 LLCs x 2 PCPUs, "
              "6 MiB LLCs, 8 GB/s sockets, %s, %u VMs, seed %llu\n\n",
              fault_label(a), n_vms, static_cast<unsigned long long>(seed));

  const auto frac = [](const ex::RunResult& r) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.5f",
                  r.pressure_accounted > 0
                      ? static_cast<double>(r.pressure_degraded) /
                            static_cast<double>(r.pressure_accounted)
                      : 0.0);
    return std::string(buf);
  };
  ex::TextTable costs({"memory pressure", "aware", "blind"});
  costs.add_row({"accounted cycles", std::to_string(aware.pressure_accounted),
                 std::to_string(blind.pressure_accounted)});
  costs.add_row({"degraded cycles", std::to_string(aware.pressure_degraded),
                 std::to_string(blind.pressure_degraded)});
  costs.add_row({"degraded fraction", frac(aware), frac(blind)});
  costs.add_row({"engine periods", std::to_string(aware.pressure_periods),
                 std::to_string(blind.pressure_periods)});
  costs.add_row({"steals refused (pressure)",
                 std::to_string(aware.pressure_steal_rejects),
                 std::to_string(blind.pressure_steal_rejects)});
  costs.add_row({"balancer swaps", std::to_string(aware.pressure_rebalances),
                 std::to_string(blind.pressure_rebalances)});
  std::printf("%s\n", costs.str().c_str());

  ex::TextTable vms({"VM", "online rate", "accounted", "degraded"});
  for (const ex::VmResult& v : aware.vms)
    vms.add_row({v.name, ex::fmt_pct(v.observed_online_rate),
                 std::to_string(v.pressure_accounted),
                 std::to_string(v.pressure_degraded)});
  std::printf("aware run, per VM:\n%s\n", vms.str().c_str());

  print_audit(aware, " (aware run)");

  std::printf(
      "\nBoth runs pay the same contention physics; only placement\n"
      "differs. The aware run spreads working sets across LLC domains at\n"
      "boot, refuses steals that deepen an overflow, and swaps the\n"
      "heaviest tenant off a saturated socket (with hysteresis), so its\n"
      "degraded-cycle column should undercut the blind baseline's.\n");
  return 0;
}

// Runs the adversarial host (idle Dom0 + an honest NPB/LU gang + a CPU
// victim + one attacker VM on 4 PCPUs, capped mode) under ASMan at every
// hardening level: the tick-sampled scheduler, randomized sampling, and
// the full defense stack (exact accounting + BOOST rate limiter + VCRD
// plausibility clamp).
int adversary_cmd(const Args& a) {
  if (a.on("list")) {
    std::printf("attack classes:\n");
    for (const workloads::AttackKind k : workloads::kAllAttacks)
      std::printf("  %s\n", workloads::to_string(k));
    return 0;
  }
  const workloads::AttackKind attack =
      named(workloads::kAllAttacks, a.text("class"));
  const std::uint64_t seed = a.u64("seed");

  struct Level {
    const char* name;
    bool hardened;
    bool mitigated;
  };
  const Level levels[] = {{"unhardened", false, false},
                          {"mitigated", false, true},
                          {"hardened", true, false}};

  std::printf("adversary run: ASMan vs %s, seed %llu (fair share %.0f%%, "
              "epsilon %.0f%%)\n\n",
              workloads::to_string(attack),
              static_cast<unsigned long long>(seed),
              100.0 * ex::kAttackerFairShare, 100.0 * ex::kFairnessEpsilon);

  ex::TextTable t({"defense level", "attacker share", "victim share",
                   "stolen Gcycles", "dodged samples", "boost denials",
                   "implausible VCRDs", "audit"});
  for (const Level& lv : levels) {
    ex::Scenario sc = ex::adversary_scenario(core::SchedulerKind::kAsman,
                                             attack, lv.hardened, seed);
    if (lv.mitigated) ex::apply_mitigated_sampling(sc);
    sc.audit = true;
    const ex::RunResult r = ex::run_scenario(sc);
    char stolen[32];
    std::snprintf(stolen, sizeof stolen, "%.2f",
                  static_cast<double>(r.theft_cycles) / 1e9);
    t.add_row({lv.name, ex::fmt_pct(r.vm("Attacker").observed_online_rate),
               ex::fmt_pct(r.vm("Victim").observed_online_rate), stolen,
               std::to_string(r.dodged_samples),
               std::to_string(r.boost_denials),
               std::to_string(r.implausible_vcrds),
               r.audit_violations == 0 ? "clean" : "VIOLATED"});
  }
  std::printf("%s\n", t.str().c_str());

  std::printf(
      "Against tick-sampled accounting the attacker consumes without being\n"
      "charged (stolen cycles, dodged samples). Randomizing the sampling\n"
      "offsets already collapses the dodge; the full defense stack (exact\n"
      "accounting + BOOST rate limiter + VCRD plausibility clamp) pins\n"
      "every attack class within epsilon of its weighted fair share while\n"
      "the honest tenants keep their service.\n");
  return 0;
}

// Boots a 4-host fleet of a dozen tenants, live-migrates a few (pre-copy
// -> stop-and-copy -> commit), retires one, hot-admits another and crashes
// a host mid-run; its VMs come back on the survivors carrying their last
// heartbeat credit. --chaos runs the 8-host storm instead: seeded churn
// with two host crashes, a degraded window and a link-loss window. Set
// ASMAN_AUDIT=1 to attach the auditors. Exits 1 when a VM is lost or an
// invariant is violated.
int cluster_cmd(const Args& a) {
  const std::uint64_t seed = a.u64("seed");
  ex::ClusterScenario sc =
      a.on("chaos") ? ex::cluster_chaos_scenario(core::SchedulerKind::kAsman,
                                                 8, a.u32("vms"), seed)
                    : ex::cluster_scenario(core::SchedulerKind::kAsman, seed);
  const ex::ClusterRunResult rr = ex::run_cluster_scenario(sc);

  std::printf("%s: %u hosts, seed %llu\n", sc.name.c_str(), sc.hosts,
              static_cast<unsigned long long>(seed));
  std::printf("  events                %llu\n",
              static_cast<unsigned long long>(rr.events));
  std::printf("  migrations            %llu started, %llu committed, "
              "%llu aborted, %llu retried\n",
              static_cast<unsigned long long>(rr.migrations_started),
              static_cast<unsigned long long>(rr.migrations_committed),
              static_cast<unsigned long long>(rr.migrations_aborted),
              static_cast<unsigned long long>(rr.migrations_retried));
  std::printf("  pre-copy rounds       %llu (%llu link failures, "
              "%llu timeouts)\n",
              static_cast<unsigned long long>(rr.precopy_rounds),
              static_cast<unsigned long long>(rr.link_failures),
              static_cast<unsigned long long>(rr.phase_timeouts));
  std::printf("  host crashes          %llu (%llu VMs replaced, %llu lost, "
              "%llu partial copies tombstoned)\n",
              static_cast<unsigned long long>(rr.host_crashes),
              static_cast<unsigned long long>(rr.vms_replaced),
              static_cast<unsigned long long>(rr.vms_lost),
              static_cast<unsigned long long>(rr.tombstoned_copies));
  std::printf("  resident at horizon   %llu VMs (%llu heartbeats)\n",
              static_cast<unsigned long long>(rr.vms_resident),
              static_cast<unsigned long long>(rr.heartbeats));
  std::printf("  credit ledger         residual %lld, crash drift %lld\n",
              rr.residual_credit, rr.crash_credit_delta);
  std::printf("  fingerprint           %016llx\n",
              static_cast<unsigned long long>(rr.fingerprint));
  if (rr.audit_checks > 0) {
    std::printf("  audit                 %llu checks, %llu violations\n%s",
                static_cast<unsigned long long>(rr.audit_checks),
                static_cast<unsigned long long>(rr.audit_violations),
                rr.audit_summary.c_str());
  }
  return rr.vms_lost == 0 && rr.audit_violations == 0 ? 0 : 1;
}

// Runs LU in a 4-VCPU VM beside an idle Dom0 with a trace attached, writes
// schedule_timeline.csv (vcpu, online_ms, offline_ms: V1's VCPU online
// spans) in the working directory, and prints the first coscheduling
// trace records.
int timeline_cmd(const Args& a) {
  const core::SchedulerKind kind = sched_of(a.text("sched"));
  const double seconds = a.seconds("seconds");

  sim::Simulator s;
  sim::Trace trace;
  const hw::MachineConfig mach = experiments::paper_machine();
  auto hv = core::make_scheduler(kind, s, mach,
                                 vmm::SchedMode::kNonWorkConserving, &trace);

  const vmm::VmId dom0 = hv->create_vm("V0", 256, 8);
  guest::IdleGuest idle(s, *hv, dom0, 8);
  hv->attach_guest(dom0, &idle);

  const vmm::VmId v1 = hv->create_vm("V1", 32, 4, vmm::VmType::kConcurrent);
  guest::GuestKernel guest_kernel(s, *hv, v1, {.n_vcpus = 4, .seed = 7});
  core::MonitoringModule monitor(s, *hv, v1, {});
  if (kind == core::SchedulerKind::kAsman)
    guest_kernel.set_observer(&monitor);
  auto wl = workloads::make_npb(s, workloads::NpbBenchmark::kLU, 7);
  wl->deploy(guest_kernel);
  hv->attach_guest(v1, &guest_kernel);

  hv->start();
  trace.clear();
  s.run_until(sim::kDefaultClock.from_seconds_f(seconds));

  // Reconstruct online spans of V1's VCPUs from the sched trace.
  const sim::ClockDomain clock = mach.clock();
  std::map<std::uint32_t, double> online_at;
  std::vector<std::vector<std::string>> rows;
  for (const sim::TraceRecord& rec : trace.records()) {
    if (rec.vm != v1) continue;
    const double t_ms = clock.to_ms(rec.at);
    if (rec.kind == sim::TraceKind::kVcpuOnline) {
      online_at[rec.vcpu] = t_ms;
    } else if (rec.kind == sim::TraceKind::kVcpuOffline &&
               online_at.count(rec.vcpu) != 0) {
      rows.push_back({"v1." + std::to_string(rec.vcpu),
                      experiments::fmt_f(online_at[rec.vcpu], 3),
                      experiments::fmt_f(t_ms, 3)});
      online_at.erase(rec.vcpu);
    }
  }
  experiments::write_csv("schedule_timeline.csv",
                         {"vcpu", "online_ms", "offline_ms"}, rows);

  const auto cosched = trace.filter(sim::TraceCat::kCosched);
  std::printf(
      "%s, %.1fs of virtual time: %zu online spans of V1's VCPUs written\n"
      "to schedule_timeline.csv; %zu coscheduling trace events, %llu\n"
      "cosched launches, %llu IPIs, VCRD HIGH %.1f%% of the time.\n",
      core::to_string(kind), seconds, rows.size(), cosched.size(),
      static_cast<unsigned long long>(hv->cosched_events()),
      static_cast<unsigned long long>(hv->ipi_bus().sent()),
      100.0 * (hv->vm(v1).vcrd_high_time +
               (hv->vm(v1).vcrd == vmm::Vcrd::kHigh
                    ? s.now() - hv->vm(v1).vcrd_high_since
                    : sim::Cycles{0}))
                  .ratio(s.now()));
  std::printf("\nfirst cosched trace lines:\n");
  for (std::size_t i = 0; i < cosched.size() && i < 8; ++i)
    std::printf("  %s\n", sim::format_record(cosched[i]).c_str());
  return 0;
}

// The EC2-style entitlement study (§5.2: a "1 compute unit" VM on a
// modern host sees a ~30% VCPU online rate): for each online rate, the
// Credit/ASMan run times, their excess over the 1/rate ideal and the
// monitoring activity.
int rates_cmd(const Args& a) {
  const workloads::NpbBenchmark bench =
      workloads::npb_from_name(a.text("bench"));
  std::printf("benchmark %s: online-rate sweep (weights 256/128/64/32)\n\n",
              workloads::to_string(bench));

  double base = 0.0;
  ex::TextTable t({"rate", "Credit (s)", "ASMan (s)", "Credit excess",
                   "ASMan excess", "adjusting events"});
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::RunResult credit = ex::run_scenario(ex::single_vm_scenario(
        core::SchedulerKind::kCredit, rp.weight, ex::npb_factory(bench)));
    const ex::RunResult asman = ex::run_scenario(ex::single_vm_scenario(
        core::SchedulerKind::kAsman, rp.weight, ex::npb_factory(bench)));
    const double c = credit.vm("V1").runtime_seconds;
    const double t_a = asman.vm("V1").runtime_seconds;
    if (rp.rate == 1.0) base = c;
    const double ideal = base / rp.rate;
    t.add_row({ex::fmt_pct(rp.rate), ex::fmt_f(c), ex::fmt_f(t_a),
               ex::fmt_pct(c / ideal - 1.0), ex::fmt_pct(t_a / ideal - 1.0),
               std::to_string(asman.vm("V1").adjusting_events)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "\"excess\" is run time beyond the 1/rate ideal: it is the price of\n"
      "virtualization-disrupted synchronization, and what ASMan removes.\n");
  return 0;
}

// The §5.3 motif: two batch tenants (SPEC-CPU-style throughput jobs) next
// to two parallel (OpenMP-style) tenants on one work-conserving host,
// under each scheduler. Gang scheduling rescues the parallel tenants; ASMan
// does it without statically taxing the batch tenants.
int consolidate_cmd(const Args& a) {
  const std::uint64_t rounds = a.u64("rounds");

  const std::vector<std::pair<std::string, ex::WorkloadFactory>> tenants{
      {"batch:bzip2", ex::bzip2_factory(rounds * 4)},
      {"batch:gcc", ex::gcc_factory(rounds * 4)},
      {"parallel:SP",
       ex::npb_factory(workloads::NpbBenchmark::kSP, 4, rounds * 4)},
      {"parallel:LU",
       ex::npb_factory(workloads::NpbBenchmark::kLU, 4, rounds * 4)},
  };
  const std::vector<bool> concurrent{false, false, true, true};

  std::printf("4 tenants x 4 VCPUs on 8 PCPUs, work-conserving, "
              "mean of first %llu rounds\n\n",
              static_cast<unsigned long long>(rounds));

  ex::TextTable table({"tenant", "Credit (s)", "ASMan (s)", "CON (s)"});
  std::vector<std::vector<double>> cells(tenants.size());
  for (core::SchedulerKind k :
       {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman,
        core::SchedulerKind::kCon}) {
    auto vms = tenants;
    ex::Scenario sc = ex::multi_vm_scenario(k, std::move(vms), concurrent,
                                            rounds);
    const ex::RunResult r = ex::run_scenario(sc);
    for (std::size_t i = 0; i < tenants.size(); ++i)
      cells[i].push_back(r.vms[i + 1].mean_round_seconds(rounds));
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    table.add_row({tenants[i].first, ex::fmt_f(cells[i][0]),
                   ex::fmt_f(cells[i][1]), ex::fmt_f(cells[i][2])});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Reading: the parallel tenants should speed up under ASMan/CON; the\n"
      "batch tenants lose least under ASMan, which only coschedules while\n"
      "a tenant's VCRD is HIGH.\n");
  return 0;
}

// ------------------------------------------------------ command table

Flag seed_flag(const char* def) {
  return {"seed", Kind::kSeed, def, "scenario seed (bit-reproducible)"};
}
Flag class_flag(const char* def, const char* help) {
  return {"class", Kind::kName, def, help, chaos_names};
}
Flag vms_flag(const char* def, std::uint32_t min, const char* help) {
  return {"vms", Kind::kCount, def, help, nullptr, min};
}
Flag only_with(Flag f, const char* sw) {
  f.only_with = sw;
  return f;
}
Flag not_with(Flag f, const char* sw) {
  f.not_with = sw;
  return f;
}
const Flag kListChaos{"list", Kind::kSwitch, "",
                      "print the chaos classes and exit"};

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"run",
       "one single-VM scenario: run time, spin waits, VCRD and scheduler "
       "counters",
       {{"sched", Kind::kName, "asman", "scheduler", sched_names},
        {"weight", Kind::kCount, "32", "V1's weight (Dom0 fixed at 256)"},
        {"bench", Kind::kName, "LU", "workload in V1", run_bench_names},
        {"warehouses", Kind::kCount, "4", "SPECjbb warehouses (--bench jbb)"},
        seed_flag("1"),
        {"horizon", Kind::kSeconds, "180", "simulated seconds at most"},
        {"relaxed", Kind::kSwitch, "", "VMware-style relaxed gangs"},
        // The threshold is 1 << delta in 64-bit cycles.
        {"delta", Kind::kCount, "20", "over-threshold exponent", nullptr, 0,
         63},
        {"samples", Kind::kSwitch, "", "print the spinlock wait histogram"}},
       run_cmd},
      {"chaos",
       "fault injection under ASMan: injected faults vs graceful degradation",
       {class_flag("everything", "fault class to arm"),
        vms_flag("3", 3, "total VMs on the host"), seed_flag("42"),
        kListChaos},
       chaos_cmd},
      {"churn",
       "runtime VM lifecycle churn under ASMan, audited live",
       {not_with(class_flag("", "compose a chaos class onto the churn"),
                 "saturated"),
        not_with(vms_flag("6", 1, "hot arrivals over the run"), "saturated"),
        seed_flag("42"),
        kListChaos,
        {"saturated", Kind::kSwitch, "",
         "run the admission-saturated arrival storm instead"}},
       churn_cmd},
      {"topology",
       "topology-aware vs blind placement on the paper's dual-socket host",
       {class_flag("", "compose a chaos class on top"),
        vms_flag("4", 3, "total VMs on the host"), seed_flag("42"),
        kListChaos},
       topology_cmd},
      {"contention",
       "pressure-aware vs blind placement on a memory-constrained host",
       {class_flag("", "compose a chaos class on top"),
        vms_flag("6", 4, "total VMs on the host"), seed_flag("42"),
        kListChaos},
       contention_cmd},
      {"adversary",
       "one attack class against ASMan at three hardening levels",
       {{"class", Kind::kName, "tick-dodge", "attack class", attack_names},
        seed_flag("42"),
        {"list", Kind::kSwitch, "", "print the attack classes and exit"}},
       adversary_cmd},
      {"cluster",
       "the 4-host fabric through live migrations and a host crash",
       {only_with(vms_flag("48", 1, "tenants in the --chaos storm"), "chaos"),
        seed_flag("42"),
        {"chaos", Kind::kSwitch, "",
         "run the 8-host migration and crash storm instead"}},
       cluster_cmd},
      {"timeline",
       "LU gantt CSV (schedule_timeline.csv) + first cosched trace lines",
       {{"sched", Kind::kName, "asman", "scheduler", timeline_sched_names},
        {"seconds", Kind::kSeconds, "1.0", "simulated seconds"}},
       timeline_cmd},
      {"rates",
       "Credit vs ASMan run time across the online-rate sweep",
       {{"bench", Kind::kName, "CG", "NPB benchmark", npb_names}},
       rates_cmd},
      {"consolidate",
       "two batch + two parallel tenants on one host, per scheduler",
       {{"rounds", Kind::kCount, "4", "rounds averaged per tenant", nullptr,
         1}},
       consolidate_cmd},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = &commands().front();  // run
  int first = 1;
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) {
    cmd = nullptr;
    for (const Command& c : commands())
      if (std::strcmp(argv[1], c.name) == 0) cmd = &c;
    if (cmd == nullptr) {
      std::fprintf(stderr, "asman_cli: unknown command '%s'\n", argv[1]);
      return usage(nullptr);
    }
    first = 2;
  }
  Args args;
  if (parse(*cmd, argc - first, argv + first, args) != 0) return 2;
  return cmd->run(args);
}
