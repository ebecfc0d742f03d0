// Exact run fingerprints shared by the determinism suite and the golden
// behaviour corpus (tests/golden/): a RunResult serialized with integers in
// decimal and doubles in %a (hex float), so equal text is bit-equality,
// and a 64-bit FNV-1a hash of a formatted trace.
#pragma once

#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/schedulers.h"
#include "experiments/scenario.h"
#include "simcore/trace.h"

namespace asman::testutil {

inline void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

/// Exact serialization of a RunResult: integers in decimal, doubles in %a
/// (hex float) so equality is bit-equality, not round-off coincidence.
inline std::string fingerprint(const experiments::RunResult& rr) {
  std::string fp;
  append(fp, "sched=%s\n", core::to_string(rr.scheduler));
  append(fp, "elapsed=%a events=%" PRIu64 " migrations=%" PRIu64 "\n",
         rr.elapsed_seconds, rr.events, rr.migrations);
  append(fp, "cosched=%" PRIu64 " ipi=%" PRIu64 " ctx=%" PRIu64 " idle=%a\n",
         rr.cosched_events, rr.ipi_sent, rr.context_switches,
         rr.idle_fraction);
  append(fp, "xllc=%" PRIu64 " xsock=%" PRIu64 " penalty=%" PRIu64
             " srej=%" PRIu64 "\n",
         rr.cross_llc_migrations, rr.cross_socket_migrations,
         rr.migration_penalty_cycles, rr.topology_steal_rejects);
  for (const experiments::VmResult& v : rr.vms) {
    append(fp, "%s[%s] fin=%d rt=%a online=%a vcrd=%" PRIu64
               " high=%a work=%" PRIu64 " otl=%" PRIu64 " adj=%" PRIu64
               " xllc=%" PRIu64 " xsock=%" PRIu64 " pen=%" PRIu64 "\n",
           v.name.c_str(), v.workload_name.c_str(), v.finished ? 1 : 0,
           v.runtime_seconds, v.observed_online_rate, v.vcrd_transitions,
           v.vcrd_high_fraction, v.work_units, v.over_threshold_events,
           v.adjusting_events, v.cross_llc_migrations,
           v.cross_socket_migrations, v.migration_penalty_cycles);
    for (double r : v.round_seconds) append(fp, "  round=%a\n", r);
  }
  return fp;
}

/// FNV-1a over every record of `trace`, one format_record() line each.
inline std::uint64_t trace_hash(const sim::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const sim::TraceRecord& r : trace.records()) {
    for (const char c : sim::format_record(r) + '\n') {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace asman::testutil
