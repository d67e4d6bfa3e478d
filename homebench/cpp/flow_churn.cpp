// flow-churn: one nox::Controller loop serving many home datapaths over
// framed ofp::StreamConnection channels, with the DHCP, DNS and Forwarding
// components (the way bench/ctrl_fanout builds it). Every home's first
// device opens brand-new flows (fresh destination ports) to its second
// device on a seeded open-loop Poisson schedule in virtual time; flows idle
// out after two seconds, so the tables hold a steady size and flow-removed
// traffic flows too. Every flow leaves the fast path: packet-in, framing,
// OpenFlow codec, controller dispatch, Forwarding, FlowMod, table insert.
#include <deque>
#include <memory>

#include "homework/device_registry.hpp"
#include "homework/dhcp_server.hpp"
#include "homework/dns_proxy.hpp"
#include "homework/forwarding.hpp"
#include "nox/controller.hpp"
#include "openflow/stream_channel.hpp"
#include "policy/engine.hpp"
#include "sim/host.hpp"
#include "util/rand.hpp"
#include "workloads.hpp"

namespace hb {
namespace {

using hw::Duration;
using hw::Timestamp;

constexpr std::size_t kHomes = 16;
constexpr double kFlowsPerHomePerSec = 20.0;
constexpr std::uint16_t kIdleTimeout = 2;  // seconds
constexpr Duration kUnit = 10 * hw::kMillisecond;
/// Destination ports cycle through [kFirstPort, kFirstPort + kPorts); a port
/// comes round again long after its flow idled out.
constexpr std::uint32_t kFirstPort = 1024;
constexpr std::uint32_t kPorts = 60000;
static_assert(kFirstPort + kPorts + kHomes <= 65536);
constexpr Duration kWarm = 3 * hw::kSecond;
constexpr Duration kCountAfter = 2 * hw::kSecond;

struct Home {
  std::uint64_t dpid = 0;
  /// Unique per home, and above every destination port a flow uses, so a
  /// forward FlowMod (tp_src == sport) tells its home apart from the reverse
  /// ones (tp_dst == sport).
  std::uint16_t sport = 0;
  std::unique_ptr<hw::Rng> rng;
  std::unique_ptr<hw::ofp::Datapath> datapath;
  std::unique_ptr<hw::ofp::StreamConnection> conn;
  std::vector<std::unique_ptr<hw::sim::Host>> hosts;
  std::vector<std::unique_ptr<hw::sim::DuplexLink>> links;
  std::vector<std::unique_ptr<IngressTimer>> ingress;
  std::vector<std::unique_ptr<SetupTimer>> egress;
  SetupTimer::Pending pending;
  std::uint32_t next_flow = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t landed = 0;     // forward FlowMods for this home's flows
  std::uint64_t misrouted = 0;  // forwarding FlowMods for another home's flows
};

struct World {
  hw::telemetry::MetricRegistry registry;
  hw::sim::EventLoop loop;
  std::unique_ptr<hw::homework::DeviceRegistry> devices;
  std::unique_ptr<hw::policy::PolicyEngine> policy;
  std::unique_ptr<hw::nox::Controller> controller;
  std::deque<Home> homes;
  IngressStats ingress;
  ChannelCapture channel;
  std::vector<double> setup_us;
  bool generating = true;
};

void arrive(World& w, Home& home) {
  if (!w.generating) return;
  const auto dport =
      static_cast<std::uint16_t>(kFirstPort + home.next_flow++ % kPorts);
  hw::sim::Host* sender = home.hosts.front().get();
  const hw::Ipv4Address peer = home.hosts.back()->ip().value();
  home.pending[flow_key(17, home.sport, dport)] = now_ns();
  ++home.scheduled;
  (void)sender->send_udp(peer, home.sport, dport, 64);
  const auto gap = static_cast<Duration>(
      home.rng->exponential(static_cast<double>(hw::kSecond) /
                            kFlowsPerHomePerSec)) + 1;
  World* wp = &w;
  Home* hp = &home;
  w.loop.schedule(gap, [wp, hp] { arrive(*wp, *hp); });
}

std::unique_ptr<World> build(std::uint64_t seed) {
  using namespace hw;
  auto w = std::make_unique<World>();
  telemetry::ScopedMetricRegistry scoped(w->registry);
  w->devices = std::make_unique<homework::DeviceRegistry>(
      homework::DeviceRegistry::AdmissionDefault::PermitAll);
  sim::EventLoop* loop = &w->loop;
  w->policy = std::make_unique<policy::PolicyEngine>([loop] { return loop->now(); });
  w->controller = std::make_unique<nox::Controller>(w->loop, w->registry);
  w->controller->add_component(std::make_unique<homework::DhcpServer>(
      homework::DhcpServer::Config{}, *w->devices));
  w->controller->add_component(std::make_unique<homework::DnsProxy>(
      homework::DnsProxy::Config{}, *w->devices, *w->policy));
  homework::Forwarding::Config fwd;
  fwd.flow_idle_timeout = kIdleTimeout;
  w->controller->add_component(
      std::make_unique<homework::Forwarding>(fwd, *w->devices, *w->policy));
  w->controller->start();

  ChannelCapture* capture = &w->channel;
  const auto tap = [capture](const Bytes& m) {
    if (Tracer::get().on()) capture->tap(m);
  };
  for (std::size_t h = 0; h < kHomes; ++h) {
    w->homes.emplace_back();
    Home& home = w->homes.back();
    home.dpid = h + 1;
    home.sport = static_cast<std::uint16_t>(kFirstPort + kPorts + h);
    std::uint64_t mix = seed * 1000003u + h;
    home.rng = std::make_unique<Rng>(splitmix64(mix));
    ofp::Datapath::Config dp_config;
    dp_config.datapath_id = home.dpid;
    home.datapath = std::make_unique<ofp::Datapath>(w->loop, dp_config, w->registry);
    home.conn = std::make_unique<ofp::StreamConnection>(
        w->loop, ofp::StreamConnection::Config{}, home.rng.get());
    for (std::size_t i = 0; i < 2; ++i) {
      sim::Host::Config host_config;
      host_config.name = "dev" + std::to_string(i);
      host_config.mac = MacAddress::from_index(1 + static_cast<std::uint32_t>(i));
      home.hosts.push_back(std::make_unique<sim::Host>(w->loop, host_config, *home.rng));
      home.links.push_back(std::make_unique<sim::DuplexLink>(
          w->loop, sim::LinkChannel::Config{}, home.rng.get()));
      sim::DuplexLink& link = *home.links.back();
      const auto port = static_cast<std::uint16_t>(2 + i);
      home.egress.push_back(
          std::make_unique<SetupTimer>(&link.b_to_a(), home.pending, w->setup_us));
      home.datapath->add_port(port, "port" + std::to_string(port),
                              MacAddress::from_index(0xfff000u + port),
                              home.egress.back().get());
      link.b_to_a().connect(home.hosts.back().get());
      home.ingress.push_back(std::make_unique<IngressTimer>(
          home.datapath->ingress(port), *home.datapath, w->ingress));
      link.a_to_b().connect(home.ingress.back().get());
      home.hosts.back()->attach_uplink(&link.a_to_b());
    }
    home.conn->datapath_end().set_tap(tap);
    home.conn->controller_end().set_tap(tap);
    home.datapath->connect(home.conn->datapath_end());
    w->controller->connect_datapath(home.conn->controller_end());
    Home* hp = &home;
    home.datapath->set_flow_mod_observer([hp](const ofp::FlowMod& mod) {
      if (mod.command != ofp::FlowModCommand::Add || mod.priority != 0x8000) return;
      if (mod.match.tp_src == hp->sport) {
        ++hp->landed;
      } else if (mod.match.tp_dst != hp->sport) {
        ++hp->misrouted;
      }
    });
  }

  // Bind every device (staggered inside each home), then start each home's
  // arrival chain at a seeded offset.
  for (Home& home : w->homes) {
    for (std::size_t i = 0; i < home.hosts.size(); ++i) {
      sim::Host* host = home.hosts[i].get();
      w->loop.schedule_at(10 * kMillisecond +
                              static_cast<Duration>(i + 1) * 50 * kMillisecond,
                          [host] { host->start_dhcp(); });
    }
    World* wp = w.get();
    Home* hp = &home;
    w->loop.schedule_at(kSecond + static_cast<Duration>(home.rng->uniform(kSecond)),
                        [wp, hp] { arrive(*wp, *hp); });
  }
  w->loop.run_until(kWarm);
  return w;
}

}  // namespace

Outcome run_flow_churn(const Args& args) {
  using namespace hw;
  Outcome out;
  std::unique_ptr<World> world;
  const double setup_s = timed_setups(kSetups, [&] {
    world.reset();
    world = build(args.seed);
  });
  World& w = *world;
  for (const Home& home : w.homes) {
    for (const auto& host : home.hosts) {
      out.check(host->ip().has_value(), "a device failed to bind");
    }
  }
  w.setup_us.clear();

  const Timestamp t_start = w.loop.now();
  const auto s0 = w.registry.scalars();
  const std::uint64_t events0 = w.loop.executed();
  std::uint64_t scheduled0 = 0;
  for (const Home& home : w.homes) scheduled0 += home.scheduled;
  std::uint64_t events_prev = events0;
  std::vector<double> events_per_slice;
  bool counted = false;
  double rss_mb = 0.0;
  const auto slices = run_slices(
      args, w.setup_us,
      [&] {
        {
          ScopedSpan span(Layer::Sim);
          w.loop.run_until(w.loop.now() + kUnit);
        }
        if (!counted && w.loop.now() >= t_start + kCountAfter) {
          counted = true;
          rss_mb = peak_rss_mb();
          const auto s = w.registry.scalars();
          out.counts["frames"] =
              static_cast<std::uint64_t>(scalar(s, "sim.link.tx_frames"));
          out.counts["packet_ins"] =
              static_cast<std::uint64_t>(scalar(s, "nox.controller.packet_ins"));
          out.counts["flow_mods"] =
              static_cast<std::uint64_t>(scalar(s, "nox.controller.flow_mods"));
          out.counts["flow_removed"] =
              static_cast<std::uint64_t>(scalar(s, "nox.controller.flow_removed"));
          out.counts["sim_events"] = w.loop.executed();
          std::uint64_t scheduled = 0;
          for (const Home& home : w.homes) scheduled += home.scheduled;
          out.counts["setups_scheduled"] = scheduled;
        }
      },
      [&](const SliceStats&) {
        events_per_slice.push_back(static_cast<double>(w.loop.executed() - events_prev));
        events_prev = w.loop.executed();
      });
  out.check(counted, "run ended before the work-count point");
  const std::vector<double> setup_us = w.setup_us;
  const auto s1 = w.registry.scalars();

  // Stop arrivals and drain: every scheduled setup must complete, with its
  // FlowMod on its own home's datapath and nowhere else.
  w.generating = false;
  w.loop.run_until(w.loop.now() + 500 * kMillisecond);
  std::uint64_t scheduled = 0;
  std::uint64_t incomplete = 0;
  std::uint64_t misrouted = 0;
  std::uint64_t landed = 0;
  std::uint64_t failsafe = 0;
  for (const Home& home : w.homes) {
    scheduled += home.scheduled;
    incomplete += home.pending.size();
    misrouted += home.misrouted;
    landed += home.landed;
    failsafe += home.datapath->stats().failsafe_entries;
  }
  out.attempted = scheduled - scheduled0;
  out.check(incomplete == 0,
            std::to_string(incomplete) + " scheduled setups never completed");
  out.check(misrouted == 0,
            std::to_string(misrouted) + " FlowMods landed on the wrong datapath");
  out.check(landed == scheduled,
            std::to_string(landed) + " forward FlowMods for " +
                std::to_string(scheduled) + " setups");
  out.check(failsafe == 0, "a datapath entered fail-safe");

  const double setups = static_cast<double>(setup_us.size());
  std::vector<double> home_s;
  for (const auto& sl : slices) {
    home_s.push_back(static_cast<double>(sl.units) * kHomes *
                     static_cast<double>(kUnit) / static_cast<double>(kSecond));
  }
  if (!args.trace) {
    out.add("home_s_per_s", median_rate(slices, home_s, false), "1/s");
    out.add("frames_per_s",
            median_rate_of(slices, home_s,
                           scalar(s1, "sim.link.tx_frames") -
                               scalar(s0, "sim.link.tx_frames")),
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
  const auto d = [&](const std::string& name) {
    return scalar(s1, name) - scalar(s0, name);
  };
  double traced_wall = 0.0;
  double traced_events = 0.0;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (!slices[i].traced) continue;
    traced_wall += slices[i].wall_s;
    traced_events += events_per_slice[i];
  }
  const auto dispatch = histogram(w.registry, "nox.controller.packet_in_dispatch_ns");
  std::size_t samples = 0;
  const std::int64_t snap0 = now_ns();
  for (int i = 0; i < 5; ++i) samples += w.registry.snapshot().size();
  const double snapshot_us = static_cast<double>(now_ns() - snap0) * 1e-3 / 5;
  const double hits = d("openflow.datapath.microflow_hits");
  const double misses = d("openflow.datapath.microflow_misses");

  out.add("sim.events_per_frame",
          ratio(static_cast<double>(w.loop.executed() - events0),
                d("sim.link.tx_frames")),
          "count");
  out.add("sim.ns_per_event", ratio(traced_wall * 1e9, traced_events), "ns");
  out.add("sim.self_share",
          ratio(Tracer::get().self_seconds(Layer::Sim), traced_wall), "ratio");
  out.add("net.parse_ns", parse_ns(w.ingress.captured), "ns");
  out.add("openflow.datapath_hit_ns", w.ingress.hit.mean_ns(), "ns");
  out.add("openflow.datapath_miss_ns", w.ingress.miss.mean_ns(), "ns");
  out.add("openflow.microflow_hit_ratio", ratio(hits, hits + misses), "ratio");
  out.add("openflow.codec_ns_per_msg", codec_ns_per_msg(w.channel.messages), "ns");
  out.add("openflow.channel_bytes_per_setup",
          ratio(d("openflow.channel.tx_bytes"), setups), "bytes");
  out.add("openflow.flow_mods_per_setup",
          ratio(d("openflow.datapath.flow_mods"), setups), "count");
  out.add("openflow.flow_table_entries",
          scalar(s1, "openflow.flow_table.entries") / kHomes, "count");
  out.add("openflow.self_share",
          ratio(Tracer::get().self_seconds(Layer::Openflow), traced_wall),
          "ratio");
  out.add("nox.dispatch_p50_ns", dispatch.percentile(0.50), "ns");
  out.add("nox.dispatch_p99_ns", dispatch.percentile(0.99), "ns");
  out.add("nox.packet_ins_per_setup",
          ratio(d("nox.controller.packet_ins"), setups), "count");
  out.add("telemetry.snapshot_us", samples > 0 ? snapshot_us : 0.0, "us");
  out.add("trace.overhead",
          ratio(median_rate(slices, home_s, false),
                median_rate(slices, home_s, true)) -
              1.0,
          "ratio");
  return out;
}

}  // namespace hb
