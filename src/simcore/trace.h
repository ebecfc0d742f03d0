// Typed trace records, in the manner of Xen's xentrace: components append
// fixed-size POD records (time, kind, vm, vcpu, pcpu, a, b) to an attached
// `Trace`, and one formatter, `format_record()`, turns them into text
// offline. With no `Trace` attached an emitting site costs a branch per
// call: `note_trace` checks the pointer, no more.
//
// Each kind is one row of ASMAN_TRACE_KINDS: its category and its text. In
// the text %v %c %p %a %b print the vm, vcpu, pcpu, a and b fields, and
// %a{n0,n1,...} prints enum value a by name.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "simcore/time.h"

namespace asman::sim {

enum class TraceCat : std::uint8_t {
  kSched,    // VMM scheduling decisions
  kCredit,   // credit accounting
  kCosched,  // coscheduling / IPI activity
  kGuest,    // guest kernel events
  kLock,     // spinlock acquire/release
  kMonitor,  // monitoring module / VCRD
};

const char* trace_cat_name(TraceCat c);

// X(kind, category, text); loads travel as milli-VCPUs per PCPU.
#define ASMAN_TRACE_KINDS(X)                                                   \
  X(kVcpuOnline, kSched, "v%v.%c online on P%p")                               \
  X(kVcpuOffline, kSched, "v%v.%c offline from P%p")                           \
  X(kSameSocketMigration, kSched,                                              \
    "v%v.%c same-socket migration P%p->P%a penalty=%b")                        \
  X(kCrossSocketMigration, kSched,                                             \
    "v%v.%c cross-socket migration P%p->P%a penalty=%b")                       \
  X(kPcpuOfflineRefused, kSched, "P%p offline refused (last online PCPU)")     \
  X(kPcpuOffline, kSched, "P%p offline")                                       \
  X(kPcpuOnline, kSched, "P%p online")                                         \
  X(kVcpuCrashed, kSched, "v%v.%c crashed")                                    \
  X(kVmOutOfBounds, kSched, "VM rejected: n_vcpus %a outside bounds spec")     \
  X(kCreateAdmissionReject, kSched,                                            \
    "admission reject: new VM (+%c VCPUs, load %a/%b mVCPU/PCPU)")             \
  X(kVmCreated, kSched, "vm%v hot-created (%a VCPUs, weight %b)")              \
  X(kVmDestroyed, kSched, "vm%v destroyed")                                    \
  X(kResizeAdmissionReject, kSched,                                            \
    "admission reject: resize vm%v to %c VCPUs (load %a/%b mVCPU/PCPU)")       \
  X(kVmResized, kSched, "vm%v resized %a -> %b VCPUs")                         \
  X(kVmPaused, kSched, "vm%v paused")                                          \
  X(kVmResumed, kSched, "vm%v resumed")                                        \
  X(kVmMigratedOut, kSched, "vm%v migrated out")                               \
  X(kVmMigratedIn, kSched, "vm%v migrated in")                                 \
  X(kHostHalted, kSched, "host halted")                                        \
  X(kFootprintConfigError, kSched, "footprint config error (ConfigError %a)")  \
  X(kPressureRebalance, kSched, "vm%v rebalanced to socket %a (pressure)")     \
  X(kAccounting, kCredit, "accounting done")                                   \
  X(kWatchdogRelease, kCosched, "vm%v gang watchdog: partial gang released")   \
  X(kGangStartAbandoned, kCosched,                                             \
    "vm%v gang start abandoned for this slot (v%v.%c unreachable)")            \
  X(kIpiRetry, kCosched, "IPI retry %a for v%v.%c")                            \
  X(kCoStop, kCosched, "vm%v co-stop")                                         \
  X(kCoschedLaunch, kCosched, "launch vm%v from P%p (%a{weak,strong})")        \
  X(kCoschedBoost, kCosched, "v%v.%c cosched-boosted on P%p")                  \
  X(kVmRelocated, kCosched, "vm%v relocated")                                  \
  X(kVmDemoted, kMonitor,                                                      \
    "vm%v demoted (%a{VCRD flap rate limit,gang watchdog streak})")            \
  X(kBoostRateLimit, kMonitor, "vm%v BOOST rate limit hit (abuse suspected)")  \
  X(kDegradedLifted, kMonitor, "vm%v degraded state lifted")                   \
  X(kVcrdStale, kMonitor, "vm%v VCRD stale -> LOW (TTL)")                      \
  X(kVcrdOpRejected, kMonitor, "do_vcrd_op rejected (vm=%v vcrd=%a)")          \
  X(kVcrdHighRejected, kMonitor,                                               \
    "vm%v VCRD HIGH claim rejected (%a recent yields < %b)")                   \
  X(kVcrdSet, kMonitor, "vm%v VCRD -> %a{LOW,HIGH}")                           \
  X(kOverloadShed, kMonitor,                                                   \
    "overload shed: cosched off (load %a/%b mVCPU/PCPU)")                      \
  X(kOverloadRestored, kMonitor,                                               \
    "overload restored: cosched on (load %a/%b mVCPU/PCPU)")                   \
  X(kGuestHalt, kGuest, "v%v.%c halt")                                         \
  X(kThreadDone, kGuest, "v%v.%c t%a done")                                    \
  X(kLockSpin, kLock, "v%v.%c t%a spins on lock %b")                           \
  X(kLockAcquired, kLock, "v%v.%c t%a acquired lock %b")

enum class TraceKind : std::uint8_t {
#define ASMAN_TRACE_KIND_ENUM(kind, cat, text) kind,
  ASMAN_TRACE_KINDS(ASMAN_TRACE_KIND_ENUM)
#undef ASMAN_TRACE_KIND_ENUM
};

TraceCat trace_cat(TraceKind k);

/// One trace event. Fields its kind's text does not print stay zero.
struct TraceRecord {
  Cycles at;
  TraceKind kind;
  std::uint32_t vm;
  std::uint32_t vcpu;
  std::uint32_t pcpu;
  std::int64_t a;
  std::int64_t b;
};
static_assert(std::is_trivially_copyable_v<TraceRecord>);

inline std::int64_t to_milli(double x) { return std::llround(x * 1000.0); }

/// One line: "[<at>] <category> <text with the record's fields>".
std::string format_record(const TraceRecord& r);

class Trace {
 public:
  void emit(const TraceRecord& r) { records_.push_back(r); }

  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// Records of one category, in emission order.
  std::vector<TraceRecord> filter(TraceCat cat) const;

  std::string dump(std::size_t max_lines = 200) const;

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace asman::sim
