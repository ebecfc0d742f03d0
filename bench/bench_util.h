// Shared plumbing for the sweep bench binaries (`figures` and the stress
// benches).
//
// A bench declares a sweep of scenarios by label, executes them in
// parallel on a thread pool (each simulation is single-threaded and
// deterministic), writes BENCH_<name>.json with the per-point simulation
// CPU time and finally prints its tables. BasicSweep is generic over the
// scenario type: ex::Scenario runs through run_scenario (Sweep, the
// single-host benches), ex::ClusterScenario through run_cluster_scenario
// (bench_cluster).
#pragma once

#include <cstdio>
// asman-lint: allow(determinism) -- host CPU clock measures the harness, not the simulation
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "experiments/cluster.h"
#include "experiments/paper.h"
#include "experiments/tables.h"
#include "simcore/thread_pool.h"

namespace asman::bench {

namespace ex = asman::experiments;

/// The runner for each scenario type a sweep can hold.
inline ex::RunResult run_point(const ex::Scenario& sc) {
  return ex::run_scenario(sc);
}
inline ex::ClusterRunResult run_point(const ex::ClusterScenario& sc) {
  return ex::run_cluster_scenario(sc);
}

template <typename Sc>
struct BasicPointResult {
  decltype(run_point(std::declval<const Sc&>())) run;
  double cpu_seconds{0};
};

/// Runs `fn` and returns the CPU time the calling thread spent in it, in
/// seconds. Points run in parallel on a thread pool, so wall time would
/// also count the time a point waits for a core; per-thread CPU time does
/// not. The measurement never feeds back into any simulation (each run is
/// a pure function of its scenario + seed), so determinism is not at stake
/// -- this helper is the one sanctioned host-clock site in the bench
/// harness.
inline double cpu_seconds_of(const std::function<void()>& fn) {
  const auto now = [] {
    timespec ts{};
    // asman-lint: allow(determinism) -- host CPU clock measures the harness, not the simulation
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  const double t0 = now();
  fn();
  return now() - t0;
}

template <typename Sc>
class BasicSweep {
 public:
  using PointResult = BasicPointResult<Sc>;

  /// Declares a point. A label names exactly one scenario, so several
  /// tables can read one point: adding a label that is already declared
  /// keeps the first scenario and does nothing.
  void add(std::string label, Sc scenario) {
    if (contains(label)) return;
    labels_.push_back(label);
    scenarios_.emplace(std::move(label), std::move(scenario));
  }

  bool contains(const std::string& label) const {
    return scenarios_.count(label) != 0;
  }

  /// Run every scenario (parallel) and memoize results.
  void execute() {
    std::vector<std::string> todo;
    for (const auto& l : labels_)
      if (!results_.count(l)) todo.push_back(l);
    std::fprintf(stderr, "[sweep] running %zu simulations...\n", todo.size());
    sim::ThreadPool pool;
    std::vector<PointResult> out(todo.size());
    pool.parallel_for(todo.size(), [&](std::size_t i) {
      out[i].cpu_seconds = cpu_seconds_of(
          [&] { out[i].run = run_point(scenarios_.at(todo[i])); });
    });
    std::uint64_t audited = 0;
    std::uint64_t audit_checks = 0;
    for (std::size_t i = 0; i < todo.size(); ++i) {
      if (out[i].run.audit_checks > 0) {
        ++audited;
        audit_checks += out[i].run.audit_checks;
      }
      if (out[i].run.audit_violations > 0)
        std::fprintf(stderr, "[audit] %s: %llu violation(s)\n%s",
                     todo[i].c_str(),
                     static_cast<unsigned long long>(
                         out[i].run.audit_violations),
                     out[i].run.audit_summary.c_str());
      results_.emplace(todo[i], std::move(out[i]));
    }
    if (audited > 0)
      std::fprintf(stderr,
                   "[audit] %llu invariant checks across %llu audited runs\n",
                   static_cast<unsigned long long>(audit_checks),
                   static_cast<unsigned long long>(audited));
    std::fprintf(stderr, "[sweep] done.\n");
  }

  /// Total invariant violations across all executed points (0 unless the
  /// runs were audited, e.g. via the ASMAN_AUDIT environment variable).
  std::uint64_t audit_violations() const {
    std::uint64_t n = 0;
    for (const auto& [label, pr] : results_) n += pr.run.audit_violations;
    return n;
  }

  const PointResult& get(const std::string& label) const {
    return results_.at(label);
  }

  /// Declared point labels, in declaration order.
  const std::vector<std::string>& labels() const { return labels_; }

  /// The scenario a label was declared with (for seed/scheduler metadata).
  const Sc& scenario(const std::string& label) const {
    return scenarios_.at(label);
  }

  bool executed(const std::string& label) const {
    return results_.count(label) != 0;
  }

 private:
  std::vector<std::string> labels_;
  std::map<std::string, Sc> scenarios_;
  std::map<std::string, PointResult> results_;
};

using Sweep = BasicSweep<ex::Scenario>;

/// Peak resident set size of this process in bytes (getrusage; 0 when the
/// platform reports nothing useful).
std::uint64_t peak_rss_bytes();

/// The stress benches take no arguments. When the command line has any,
/// prints usage on stderr and returns true; main then exits 2 before it
/// simulates anything.
bool unexpected_arguments(int argc, char** argv);

/// Writes BENCH_<name>.json next to the binary's working directory: one
/// record per executed point carrying label, scheduler, seed, simulated
/// events, CPU seconds, events/sec and ns/event, plus the process-wide
/// peak RSS. Machine-readable so the perf trajectory can be tracked run
/// over run (bench/baselines/ holds committed baselines). Returns the
/// path written, or an empty string on I/O failure.
template <typename Sc>
std::string write_bench_json(const BasicSweep<Sc>& sweep,
                             const std::string& name);

/// Standard bench body: execute the sweep, write BENCH_<name>.json, print
/// the tables. Returns 1 when an audited point violated an invariant,
/// else 0.
template <typename Sc>
int run_bench_main(
    BasicSweep<Sc>& sweep, const std::string& name,
    const std::type_identity_t<std::function<void(const BasicSweep<Sc>&)>>&
        print_tables);

}  // namespace asman::bench
