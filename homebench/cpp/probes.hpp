// Layer probes on a twin home: a standalone home built like a fleet home,
// so per-home layer costs the fleet keeps private (telemetry export, the
// registry snapshot, checkpoint capture, a reconcile round) can be timed
// without touching the measured fleet.
#pragma once

#include <cstdint>

namespace hb {

struct TwinProbe {
  double events_per_frame = 0.0;
  double ns_per_event = 0.0;
  double metrics_export_poll_us = 0.0;
  double snapshot_us = 0.0;
  double instruments = 0.0;
  double insert_ns = 0.0;
  double capture_us = 0.0;
  double reconcile_round_us = 0.0;
  double dispatch_p50_ns = 0.0;
  double dispatch_p99_ns = 0.0;
};

/// Builds a three-device home from `seed` (apps running or not, as in the
/// fleet being probed), warms it up and times each layer call.
TwinProbe probe_twin_home(std::uint64_t seed, bool apps);

}  // namespace hb
