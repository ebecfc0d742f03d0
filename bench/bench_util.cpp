#include "bench_util.h"

#include <sys/resource.h>

#include <cinttypes>

namespace asman::bench {

std::uint64_t peak_rss_bytes() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
}

bool unexpected_arguments(int argc, char** argv) {
  if (argc <= 1) return false;
  std::fprintf(stderr,
               "unexpected argument '%s'\n"
               "usage: %s\n"
               "  (no arguments: runs the sweep, writes BENCH_<name>.json and "
               "prints the tables)\n",
               argv[1], argv[0]);
  return true;
}

template <typename Sc>
std::string write_bench_json(const BasicSweep<Sc>& sweep,
                             const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
    return {};
  }
  std::fprintf(out, "{\n  \"bench\": \"%s\",\n", name.c_str());
  std::fprintf(out, "  \"peak_rss_bytes\": %" PRIu64 ",\n", peak_rss_bytes());
  std::fprintf(out, "  \"points\": [");
  bool first = true;
  for (const std::string& label : sweep.labels()) {
    if (!sweep.executed(label)) continue;
    const Sc& sc = sweep.scenario(label);
    const BasicPointResult<Sc>& pr = sweep.get(label);
    const double cpu = pr.cpu_seconds;
    const double events = static_cast<double>(pr.run.events);
    const double eps = cpu > 0 ? events / cpu : 0.0;
    const double nspe = events > 0 ? cpu * 1e9 / events : 0.0;
    std::fprintf(out,
                 "%s\n    {\"label\": \"%s\", \"scheduler\": \"%s\", "
                 "\"seed\": %" PRIu64 ", \"events\": %" PRIu64
                 ", \"cpu_seconds\": %.6f, \"events_per_sec\": %.1f, "
                 "\"ns_per_event\": %.2f}",
                 first ? "" : ",", label.c_str(),
                 core::to_string(sc.scheduler), sc.seed, pr.run.events, cpu,
                 eps, nspe);
    first = false;
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  return path;
}

template <typename Sc>
int run_bench_main(
    BasicSweep<Sc>& sweep, const std::string& name,
    const std::type_identity_t<std::function<void(const BasicSweep<Sc>&)>>&
        print_tables) {
  sweep.execute();
  const std::string json = write_bench_json(sweep, name);
  if (!json.empty())
    std::fprintf(stderr, "[bench] wrote %s\n", json.c_str());
  print_tables(sweep);
  // With ASMAN_AUDIT=1 in the environment every simulation ran with the
  // invariant auditor attached (see run_scenario); surface the verdict and
  // fail the binary so CI treats violations as errors.
  const std::uint64_t violations = sweep.audit_violations();
  if (violations > 0) {
    std::fprintf(stderr, "[audit] %llu invariant violation(s) -- see above\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}

template std::string write_bench_json(const Sweep&, const std::string&);
template int run_bench_main(Sweep&, const std::string&,
                            const std::function<void(const Sweep&)>&);

using ClusterSweep = BasicSweep<ex::ClusterScenario>;
template std::string write_bench_json(const ClusterSweep&, const std::string&);
template int run_bench_main(ClusterSweep&, const std::string&,
                            const std::function<void(const ClusterSweep&)>&);

}  // namespace asman::bench
