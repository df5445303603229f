#ifndef AUTOGLOBE_OBS_OBSERVABILITY_H_
#define AUTOGLOBE_OBS_OBSERVABILITY_H_

#include <cstddef>

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace autoglobe::obs {

/// Opt-in switches for the per-run observability surfaces. The
/// metrics registry is always on (registration-time cost only, plain
/// single-writer updates on the hot path); tracing and decision
/// auditing allocate real memory and are off by default so capacity
/// sweeps running hundreds of 80-hour simulations pay nothing.
struct ObservabilityConfig {
  /// Capture typed trace events into a bounded ring buffer.
  bool enable_tracing = false;
  /// Ring capacity; at the default tick rate one 80-hour run emits
  /// ~5k kernel events per simulated day, so 1<<16 retains days of
  /// history.
  size_t trace_capacity = 1 << 16;
  /// Record a DecisionAudit for every controller trigger.
  bool enable_audit = false;
  /// Decisions retained before the oldest are evicted.
  size_t audit_capacity = 256;
};

}  // namespace autoglobe::obs

#endif  // AUTOGLOBE_OBS_OBSERVABILITY_H_
