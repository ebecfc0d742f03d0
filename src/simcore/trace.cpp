#include "simcore/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace asman::sim {

namespace {

struct KindRow { TraceCat cat; const char* text; };

const KindRow& row(TraceKind k) {
  static constexpr KindRow kRows[] = {
#define ASMAN_TRACE_KIND_ROW(kind, cat, text) {TraceCat::cat, text},
      ASMAN_TRACE_KINDS(ASMAN_TRACE_KIND_ROW)
#undef ASMAN_TRACE_KIND_ROW
  };
  return kRows[static_cast<std::size_t>(k)];
}

}  // namespace

const char* trace_cat_name(TraceCat c) {
  constexpr const char* kNames[] = {"sched", "credit", "cosched",
                                    "guest", "lock",   "monitor"};
  return kNames[static_cast<std::size_t>(c)];
}

TraceCat trace_cat(TraceKind k) { return row(k).cat; }

std::string format_record(const TraceRecord& r) {
  char head[40];
  std::snprintf(head, sizeof head, "[%12llu] %-8s ",
                static_cast<unsigned long long>(r.at.v),
                trace_cat_name(trace_cat(r.kind)));
  std::string out = head;
  for (const char* p = row(r.kind).text; *p != '\0'; ++p) {
    if (*p != '%') {
      out += *p;
      continue;
    }
    const char f = *++p;
    const std::int64_t v = f == 'v' ? r.vm : f == 'c' ? r.vcpu
                         : f == 'p' ? r.pcpu : f == 'a' ? r.a : r.b;
    if (p[1] == '{') {  // %a{n0,n1,...}: the name of enum value v
      const char* end = std::strchr(p, '}');
      const char* name = p + 2;
      for (std::int64_t i = 0; i < v && name < end; ++i)
        name = std::find(name, end, ',') + 1;
      p = end;
      if (v >= 0 && name < end) {
        out.append(name, std::find(name, end, ','));
        continue;
      }
    }
    out += std::to_string(v);
  }
  return out;
}

std::vector<TraceRecord> Trace::filter(TraceCat cat) const {
  std::vector<TraceRecord> out;
  for (const auto& r : records_)
    if (trace_cat(r.kind) == cat) out.push_back(r);
  return out;
}

std::string Trace::dump(std::size_t max_lines) const {
  std::string out;
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (n++ >= max_lines) {
      out += "  ... (truncated)\n";
      break;
    }
    out += "  " + format_record(r) + '\n';
  }
  return out;
}

}  // namespace asman::sim
