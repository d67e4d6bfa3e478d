// fastpath-stream: one home of eight wired devices streaming at high rate
// through the router's L3 path to the upstream — half minimum-size UDP, half
// MTU-size TCP bulk — while the Figure 1 bandwidth monitor reads hwdb once
// per virtual second. Nearly every frame is a microflow hit with set-field
// rewrites, so the datapath, the packet parser and frame copies dominate.
// Each stream reconnects (fresh source port) about once per virtual second,
// as a bulk transfer opens new connections; those first packets are the flow
// setups whose latency this workload reports. One home keeps the world
// small, and a setup's host time then covers only its own home's work.
#include <memory>

#include "probes.hpp"
#include "ui/bandwidth_monitor.hpp"
#include "util/rand.hpp"
#include "workload/scenario.hpp"
#include "workloads.hpp"

namespace hb {
namespace {

using hw::Duration;
using hw::Timestamp;

constexpr std::size_t kHomes = 1;
constexpr std::size_t kDevices = 8;
/// One frame per stream per tick: 2000 frames/s per device.
constexpr Duration kTick = 500;
/// Mean connection lifetime.
constexpr Duration kConnLife = hw::kSecond;
constexpr Duration kUnit = 10 * hw::kMillisecond;
constexpr Duration kWarm = 2 * hw::kSecond;
constexpr Duration kCountAfter = 2 * hw::kSecond;
constexpr std::size_t kUdpPayload = 22;    // 64-byte frame
constexpr std::size_t kTcpPayload = 1360;  // 1414-byte frame

const hw::Ipv4Address kServices[] = {
    {93, 184, 216, 34}, {212, 58, 233, 1}, {45, 57, 3, 1}, {91, 189, 91, 38}};

struct Stream {
  hw::sim::Host* host = nullptr;
  bool tcp = false;
  hw::Ipv4Address dst;
  std::uint16_t dport = 0;
  std::uint16_t sport_base = 0;
  std::uint16_t conn = 0;
  Timestamp next_conn = 0;
  bool open = false;
};

struct Home {
  hw::telemetry::MetricRegistry registry;
  std::unique_ptr<hw::workload::HomeScenario> scenario;
  std::unique_ptr<hw::ui::BandwidthMonitor> monitor;
  std::vector<std::unique_ptr<IngressTimer>> ingress;
  std::unique_ptr<SetupTimer> uplink_out;
  SetupTimer::Pending pending;
  std::vector<Stream> streams;
  /// Draws each connection's lifetime.
  std::unique_ptr<hw::Rng> rng;
  std::unique_ptr<hw::sim::PeriodicTimer> ticker;
  std::uint64_t generated = 0;
  double upstream_base = 0.0;
};

struct World {
  std::vector<std::unique_ptr<Home>> homes;
  IngressStats ingress;
  ChannelCapture channel;
  std::vector<double> setup_us;
  Timestamp now = 0;
};

void tick(Home& home) {
  const Timestamp now = home.scenario->loop().now();
  for (Stream& s : home.streams) {
    if (now >= s.next_conn) {
      // New connection: fresh source port; its first packet is a setup.
      // Lifetimes vary (0.5-1.5 s) so renewals drift across every phase of
      // the home's once-a-second telemetry work rather than sitting at one.
      s.next_conn += kConnLife / 2 + static_cast<Duration>(home.rng->uniform(kConnLife));
      s.conn = static_cast<std::uint16_t>((s.conn + 1) % 1000);
      s.open = false;
      const std::uint16_t sport = s.sport_base + s.conn;
      home.pending[flow_key(s.tcp ? 6 : 17, sport, s.dport)] = now_ns();
    }
    const std::uint16_t sport = s.sport_base + s.conn;
    bool sent = false;
    if (!s.tcp) {
      sent = s.host->send_udp(s.dst, sport, s.dport, kUdpPayload);
    } else if (!s.open) {
      sent = s.host->send_tcp(s.dst, sport, s.dport, hw::net::TcpFlags::kSyn, 0);
      s.open = true;
    } else {
      sent = s.host->send_tcp(s.dst, sport, s.dport,
                              hw::net::TcpFlags::kAck | hw::net::TcpFlags::kPsh,
                              kTcpPayload);
    }
    if (sent) ++home.generated;
  }
}

std::unique_ptr<Home> build_home(World& w, std::size_t index,
                                 std::uint64_t seed) {
  using namespace hw;
  auto home = std::make_unique<Home>();
  telemetry::ScopedMetricRegistry scoped(home->registry);
  std::uint64_t mix = seed * 1000003u + index;
  workload::HomeScenario::Config sc;
  sc.seed = splitmix64(mix);
  sc.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  home->scenario = std::make_unique<workload::HomeScenario>(sc, home->registry);
  home->scenario->start();
  for (std::size_t d = 0; d < kDevices; ++d) {
    home->scenario->add_device({"dev" + std::to_string(d),
                                workload::DeviceKind::Laptop, std::nullopt});
  }
  auto& router = home->scenario->router();
  auto& dp = router.datapath();

  // Shims on the public seams: timing sinks in front of every ingress, the
  // setup timer behind the uplink port, taps on the controller channel.
  for (auto& dev : home->scenario->devices()) {
    home->ingress.push_back(std::make_unique<IngressTimer>(
        dp.ingress(dev.attachment.port), dp, w.ingress));
    dev.attachment.link->a_to_b().connect(home->ingress.back().get());
  }
  const std::uint16_t uplink = router.config().uplink_port;
  home->ingress.push_back(
      std::make_unique<IngressTimer>(dp.ingress(uplink), dp, w.ingress));
  router.upstream().connect(home->ingress.back().get());
  home->uplink_out = std::make_unique<SetupTimer>(&router.upstream(),
                                                  home->pending, w.setup_us);
  for (const ofp::PhyPort& port : dp.port_descriptions()) {
    if (port.port_no == uplink) {
      dp.add_port(uplink, port.name, port.hw_addr, home->uplink_out.get());
    }
  }
  ChannelCapture* capture = &w.channel;
  const auto tap = [capture](const Bytes& m) {
    if (Tracer::get().on()) capture->tap(m);
  };
  router.connection().datapath_end().set_tap(tap);
  router.connection().controller_end().set_tap(tap);

  home->scenario->start_dhcp_all();
  (void)home->scenario->wait_all_bound(10 * kSecond);
  home->monitor = std::make_unique<ui::BandwidthMonitor>(
      router.db(), ui::BandwidthMonitor::Config{});

  home->rng = std::make_unique<Rng>(sc.seed ^ 0x5eed);
  Rng& rng = *home->rng;
  const Timestamp start = home->scenario->loop().now();
  auto& devices = home->scenario->devices();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    Stream s;
    s.host = devices[d].host.get();
    s.tcp = d % 2 == 1;
    s.dst = kServices[rng.uniform(std::size(kServices))];
    s.dport = static_cast<std::uint16_t>(s.tcp ? 5001 : 5004 + rng.uniform(4));
    s.sport_base = static_cast<std::uint16_t>(20000 + d * 1000);
    s.next_conn = start + static_cast<Duration>(rng.uniform(kConnLife));
    home->streams.push_back(s);
  }
  home->upstream_base =
      static_cast<double>(router.upstream().stats().frames_in);
  Home* hp = home.get();
  home->ticker = std::make_unique<sim::PeriodicTimer>(
      home->scenario->loop(), kTick, [hp] { tick(*hp); });
  home->ticker->start();
  return home;
}

/// Advances every home to virtual time `t`.
void advance(World& w, Timestamp t) {
  for (auto& home : w.homes) {
    ScopedSpan span(Layer::Sim);
    home->scenario->loop().run_until(t);
  }
  w.now = t;
}

/// Every home's scalar series, summed.
std::map<std::string, double> scalars(const World& w) {
  std::map<std::string, double> out;
  for (const auto& home : w.homes) {
    for (const auto& [name, value] : home->registry.scalars()) out[name] += value;
  }
  return out;
}

double sum_scalar(const World& w, const std::string& name) {
  return scalar(scalars(w), name);
}

std::uint64_t events(const World& w) {
  std::uint64_t total = 0;
  for (const auto& home : w.homes) total += home->scenario->loop().executed();
  return total;
}

}  // namespace

Outcome run_fastpath_stream(const Args& args) {
  using namespace hw;
  Outcome out;
  std::unique_ptr<World> world;
  const double setup_s = timed_setups(kSetups, [&] {
    world.reset();
    world = std::make_unique<World>();
    Timestamp t = 0;
    for (std::size_t h = 0; h < kHomes; ++h) {
      world->homes.push_back(build_home(*world, h, args.seed));
      t = std::max(t, world->homes.back()->scenario->loop().now());
    }
    advance(*world, t + kWarm);
  });
  World& w = *world;
  w.setup_us.clear();

  const Timestamp t_start = w.now;
  const std::uint64_t events0 = events(w);
  const auto s0 = scalars(w);

  std::uint64_t events_prev = events0;
  std::vector<double> events_per_slice;
  std::vector<double> query_us;
  bool counted = false;
  double rss_mb = 0.0;
  const auto slices = run_slices(
      args, w.setup_us,
      [&] {
        advance(w, w.now + kUnit);
        if (!counted && w.now >= t_start + kCountAfter) {
          counted = true;
          rss_mb = peak_rss_mb();
          out.counts["frames"] =
              static_cast<std::uint64_t>(sum_scalar(w, "sim.link.tx_frames"));
          out.counts["packet_ins"] = static_cast<std::uint64_t>(
              sum_scalar(w, "nox.controller.packet_ins"));
          out.counts["flow_mods"] = static_cast<std::uint64_t>(
              sum_scalar(w, "nox.controller.flow_mods"));
          out.counts["hwdb_rows"] = static_cast<std::uint64_t>(
              sum_scalar(w, "hwdb.database.inserts"));
          out.counts["sim_events"] = events(w);
          std::uint64_t generated = 0;
          for (const auto& home : w.homes) generated += home->generated;
          out.counts["generated"] = generated;
        }
      },
      [&](const SliceStats& st) {
        const std::uint64_t ev = events(w);
        events_per_slice.push_back(static_cast<double>(ev - events_prev));
        events_prev = ev;
        if (st.traced) {
          // The Figure 1 monitor's CQL, timed on each home.
          for (auto& home : w.homes) {
            const std::int64_t t0 = now_ns();
            home->monitor->refresh();
            query_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
          }
        }
      });
  out.check(counted, "run ended before the work-count point");
  const double vsec =
      static_cast<double>(w.now - t_start) / static_cast<double>(kSecond);
  const double setups = static_cast<double>(w.setup_us.size());
  const std::vector<double> setup_us = w.setup_us;
  const auto s1 = scalars(w);
  const auto delta = [&](const std::string& name) {
    return scalar(s1, name) - scalar(s0, name);
  };

  // Stop the streams, drain, then check: every frame sent reached the
  // upstream, nothing was dropped, every connection's setup completed, and
  // the monitor shows a non-zero rate for every device.
  for (auto& home : w.homes) home->ticker->stop();
  advance(w, w.now + 500 * kMillisecond);
  std::uint64_t generated = 0;
  for (auto& home : w.homes) {
    auto& router = home->scenario->router();
    generated += home->generated;
    const double received =
        static_cast<double>(router.upstream().stats().frames_in) -
        home->upstream_base;
    out.check(received == static_cast<double>(home->generated),
              "upstream received " + std::to_string(received) + " of " +
                  std::to_string(home->generated) + " frames sent");
    out.check(scalar(home->registry.scalars(), "sim.link.dropped_frames") == 0.0,
              "a device link dropped frames");
    out.check(home->pending.empty(),
              std::to_string(home->pending.size()) +
                  " connection setups never completed");
    home->monitor->refresh();
    for (auto& dev : home->scenario->devices()) {
      const std::string mac = dev.host->mac().to_string();
      double rate = 0.0;
      for (const auto& d : home->monitor->devices()) {
        if (d.device == mac) rate = d.total_bytes_per_sec;
      }
      out.check(rate > 0.0, "monitor shows no traffic for " + mac);
    }
  }
  out.attempted = generated;
  out.check(setups > 0.0, "no connection setups measured");

  std::vector<double> home_s;
  for (const auto& sl : slices) {
    home_s.push_back(static_cast<double>(sl.units) * kHomes *
                     static_cast<double>(kUnit) / static_cast<double>(kSecond));
  }
  if (!args.trace) {
    out.add("home_s_per_s", median_rate(slices, home_s, false), "1/s");
    out.add("frames_per_s", median_rate_of(slices, home_s, delta("sim.link.tx_frames")),
            "1/s");
    out.add("op_p50_us", latency_percentile(setup_us, 0.50), "us");
    out.add("op_p99_us", latency_percentile(setup_us, 0.99), "us");
    out.add("setup_s", setup_s, "s");
    out.add("peak_rss_mb", rss_mb, "MiB");
    return out;
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  double traced_wall = 0.0;
  double traced_events = 0.0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (!slices[i].traced) continue;
    traced_wall += slices[i].wall_s;
    traced_events += events_per_slice[i];
  }
  telemetry::HistogramState dispatch;
  telemetry::HistogramState insert;
  for (const auto& home : w.homes) {
    dispatch.merge(histogram(home->registry, "nox.controller.packet_in_dispatch_ns"));
    insert.merge(histogram(home->registry, "hwdb.database.insert_ns"));
  }
  const double hits = delta("openflow.datapath.microflow_hits");
  const double misses = delta("openflow.datapath.microflow_misses");
  const double frames = delta("sim.link.tx_frames");
  std::size_t samples = 0;
  const std::int64_t snap0 = now_ns();
  for (int i = 0; i < 20; ++i) samples += w.homes[0]->registry.snapshot().size();
  const double snapshot_us = static_cast<double>(now_ns() - snap0) * 1e-3 / 20;

  out.add("sim.events_per_frame",
          ratio(static_cast<double>(events(w) - events0), frames), "count");
  out.add("sim.ns_per_event", ratio(traced_wall * 1e9, traced_events), "ns");
  out.add("sim.self_share",
          ratio(Tracer::get().self_seconds(Layer::Sim), traced_wall), "ratio");
  out.add("net.parse_ns", parse_ns(w.ingress.captured), "ns");
  out.add("openflow.datapath_hit_ns", w.ingress.hit.mean_ns(), "ns");
  out.add("openflow.datapath_miss_ns", w.ingress.miss.mean_ns(), "ns");
  out.add("openflow.microflow_hit_ratio", ratio(hits, hits + misses), "ratio");
  out.add("openflow.codec_ns_per_msg", codec_ns_per_msg(w.channel.messages), "ns");
  out.add("openflow.channel_bytes_per_setup",
          ratio(delta("openflow.channel.tx_bytes"), setups), "bytes");
  out.add("openflow.flow_mods_per_setup",
          ratio(delta("openflow.datapath.flow_mods"), setups), "count");
  out.add("openflow.flow_table_entries",
          scalar(s1, "openflow.flow_table.entries") / kHomes, "count");
  out.add("openflow.self_share",
          ratio(Tracer::get().self_seconds(Layer::Openflow), traced_wall),
          "ratio");
  out.add("nox.dispatch_p50_ns", dispatch.percentile(0.50), "ns");
  out.add("nox.dispatch_p99_ns", dispatch.percentile(0.99), "ns");
  out.add("nox.packet_ins_per_setup",
          ratio(delta("nox.controller.packet_ins"), setups), "count");
  out.add("homework.export_rows_per_home_s",
          ratio(delta("homework.metrics_export.rows_exported") +
                    delta("homework.event_export.flow_rows"),
                kHomes * vsec),
          "count");
  // MetricsExport::poll() on a twin home, so the measured home is untouched.
  out.add("homework.metrics_export_poll_us",
          probe_twin_home(args.seed, /*apps=*/true).metrics_export_poll_us, "us");
  out.add("telemetry.snapshot_us", samples > 0 ? snapshot_us : 0.0, "us");
  out.add("telemetry.instruments_per_home",
          static_cast<double>(w.homes[0]->registry.instrument_count()), "count");
  out.add("hwdb.inserts_per_frame", ratio(delta("hwdb.database.inserts"), frames),
          "count");
  out.add("hwdb.insert_ns", insert.mean(), "ns");
  out.add("hwdb.query_us", mean(query_us), "us");
  out.add("trace.overhead",
          ratio(median_rate(slices, home_s, false),
                median_rate(slices, home_s, true)) -
              1.0,
          "ratio");
  return out;
}

}  // namespace hb
