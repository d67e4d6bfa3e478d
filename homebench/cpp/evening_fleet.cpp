// evening-fleet: a fleet of homes with their natural app mix, stepped
// barrier by barrier by live::LiveFleet with no operator attached — the
// simulated home-second of Figure 5 traffic.
#include <memory>

#include "live/fleet.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace hb {
namespace {

constexpr std::size_t kHomes = 16;
constexpr hw::Timestamp kWarm = 5 * hw::kSecond;
/// Work counts and peak RSS are read at the first barrier at or past this
/// virtual time, so neither depends on how far a run gets in its seconds
/// (hwdb tables keep growing with virtual time).
constexpr hw::Timestamp kCountAt = kWarm + 10 * hw::kSecond;

double export_rows(const std::map<std::string, double>& s) {
  return scalar(s, "homework.metrics_export.rows_exported") +
         scalar(s, "homework.event_export.flow_rows") +
         scalar(s, "homework.event_export.lease_rows") +
         scalar(s, "homework.event_export.link_rows");
}

}  // namespace

Outcome run_evening_fleet(const Args& args) {
  using namespace hw;
  Outcome out;
  live::LiveConfig config;
  config.homes = kHomes;
  config.threads = 1;
  config.seed = args.seed;
  config.devices_per_home = 3;
  config.run_apps = true;

  std::unique_ptr<telemetry::MetricRegistry> registry;
  std::unique_ptr<live::LiveFleet> fleet;
  const double setup_s = timed_setups(kSetups, [&] {
    fleet.reset();
    registry = std::make_unique<telemetry::MetricRegistry>();
    fleet = std::make_unique<live::LiveFleet>(config, *registry);
    fleet->start();
    fleet->advance_to(kWarm);
  });

  const double barrier_s =
      static_cast<double>(config.barrier_interval) / static_cast<double>(kSecond);
  const Timestamp t_start = fleet->now();
  const auto first = fleet->scalars();
  std::vector<double> step_us;
  std::vector<double> traced_step_us;
  std::vector<double> scalars_us;
  bool counted = false;
  double rss_mb = 0.0;

  const auto slices = run_slices(
      args, step_us,
      [&] {
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan span(Layer::Live);
          fleet->step();
        }
        const double us = static_cast<double>(now_ns() - t0) * 1e-3;
        (Tracer::get().on() ? traced_step_us : step_us).push_back(us);
        if (!counted && fleet->now() >= kCountAt) {
          counted = true;
          rss_mb = peak_rss_mb();
          const auto s = fleet->scalars();
          out.counts["barriers"] = static_cast<std::uint64_t>(
              (fleet->now() - t_start) / config.barrier_interval);
          out.counts["frames"] =
              static_cast<std::uint64_t>(scalar(s, "sim.link.tx_frames"));
          out.counts["packet_ins"] =
              static_cast<std::uint64_t>(scalar(s, "nox.controller.packet_ins"));
          out.counts["flow_mods"] =
              static_cast<std::uint64_t>(scalar(s, "nox.controller.flow_mods"));
          out.counts["hwdb_rows"] =
              static_cast<std::uint64_t>(scalar(s, "hwdb.database.inserts"));
          out.counts["setups"] = static_cast<std::uint64_t>(
              scalar(s, "homework.forwarding.flows_installed"));
        }
      },
      [&](const SliceStats& st) {
        if (!st.traced) return;
        const std::int64_t t0 = now_ns();
        const std::size_t series = fleet->scalars().size();
        if (series > 0) scalars_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      });

  std::vector<double> home_s;
  std::uint64_t barriers = 0;
  for (const auto& sl : slices) {
    home_s.push_back(static_cast<double>(sl.units) * kHomes * barrier_s);
    barriers += sl.units;
  }
  out.attempted = barriers;
  out.check(counted, "run ended before the work-count point");

  // Correctness: leases, fail-safe, exactly-once hwdb inserts.
  const auto last = fleet->scalars();
  std::size_t unbound_homes = 0;
  for (std::uint32_t h = 0; h < kHomes; ++h) {
    const live::LiveHomeStatus st = fleet->status(h);
    if (st.devices_bound != st.devices || st.devices == 0) ++unbound_homes;
  }
  out.check(unbound_homes == 0, std::to_string(unbound_homes) +
                                    " homes have a device without a lease");
  out.check(scalar(last, "openflow.datapath.fail_safe") == 0.0 &&
                scalar(last, "openflow.datapath.failsafe_entries") == 0.0,
            "a datapath entered fail-safe");
  out.check(scalar(last, "hwdb.database.insert_errors") == 0.0 &&
                scalar(last, "hwdb.database.inserts") == export_rows(last),
            "hwdb inserts differ from rows exported (not exactly once)");

  if (!args.trace) {
    out.add("home_s_per_s", median_rate(slices, home_s, false), "1/s");
    out.add("frames_per_s",
            median_rate_of(slices, home_s,
                           scalar(last, "sim.link.tx_frames") -
                               scalar(first, "sim.link.tx_frames")),
            "1/s");
    out.add("op_p50_us", latency_percentile(step_us, 0.50), "us");
    out.add("op_p99_us", latency_percentile(step_us, 0.99), "us");
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mb", rss_mb, "MiB");
    return out;
  }

  double traced_wall = 0.0;
  for (const auto& sl : slices) traced_wall += sl.traced ? sl.wall_s : 0.0;
  const double vsec = static_cast<double>(fleet->now() - t_start) /
                      static_cast<double>(kSecond);
  const double hits = scalar(last, "openflow.datapath.microflow_hits") -
                      scalar(first, "openflow.datapath.microflow_hits");
  const double misses = scalar(last, "openflow.datapath.microflow_misses") -
                        scalar(first, "openflow.datapath.microflow_misses");
  const double setups = scalar(last, "homework.forwarding.flows_installed") -
                        scalar(first, "homework.forwarding.flows_installed");
  const double frames = scalar(last, "sim.link.tx_frames") -
                        scalar(first, "sim.link.tx_frames");
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const TwinProbe twin = probe_twin_home(args.seed, /*apps=*/true);

  out.add("sim.events_per_frame", twin.events_per_frame, "count");
  out.add("sim.ns_per_event", twin.ns_per_event, "ns");
  out.add("openflow.microflow_hit_ratio", ratio(hits, hits + misses), "ratio");
  out.add("openflow.flow_mods_per_setup",
          ratio(scalar(last, "nox.controller.flow_mods") -
                    scalar(first, "nox.controller.flow_mods"),
                setups),
          "count");
  out.add("openflow.flow_table_entries",
          scalar(last, "openflow.flow_table.entries") / kHomes, "count");
  out.add("nox.dispatch_p50_ns", twin.dispatch_p50_ns, "ns");
  out.add("nox.dispatch_p99_ns", twin.dispatch_p99_ns, "ns");
  out.add("nox.packet_ins_per_setup",
          ratio(scalar(last, "nox.controller.packet_ins") -
                    scalar(first, "nox.controller.packet_ins"),
                setups),
          "count");
  out.add("homework.export_rows_per_home_s",
          ratio(export_rows(last) - export_rows(first), kHomes * vsec), "count");
  out.add("homework.metrics_export_poll_us", twin.metrics_export_poll_us, "us");
  out.add("telemetry.snapshot_us", twin.snapshot_us, "us");
  out.add("telemetry.instruments_per_home", twin.instruments, "count");
  out.add("telemetry.scalars_us", mean(scalars_us), "us");
  out.add("hwdb.inserts_per_frame",
          ratio(scalar(last, "hwdb.database.inserts") -
                    scalar(first, "hwdb.database.inserts"),
                frames),
          "count");
  out.add("hwdb.insert_ns", twin.insert_ns, "ns");
  out.add("live.barrier_us", median(traced_step_us), "us");
  out.add("live.self_share",
          ratio(Tracer::get().self_seconds(Layer::Live), traced_wall), "ratio");
  out.add("reconcile.round_us", twin.reconcile_round_us, "us");
  out.add("snapshot.capture_us", twin.capture_us, "us");
  out.add("trace.overhead",
          ratio(median_rate(slices, home_s, false),
                median_rate(slices, home_s, true)) -
              1.0,
          "ratio");
  return out;
}

}  // namespace hb
