// Stream-framed secure channel: framer reassembly/split/reject behavior,
// the InProc-vs-Stream differential (same scenario, bit-identical telemetry
// and identical delivered message sequences), and liveness over a stalled
// stream with resync through the framed channel after reconnect.
#include "openflow/stream_channel.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "openflow/messages.hpp"
#include "sim/host.hpp"
#include "telemetry/metrics.hpp"

namespace hw::ofp {
namespace {

Bytes wire(std::uint32_t xid) { return encode({xid, Hello{}}); }

std::vector<Bytes> collect(StreamFramer& framer,
                           std::span<const std::uint8_t> data) {
  std::vector<Bytes> out;
  framer.feed(data, [&out](const Bytes& frame) { out.push_back(frame); });
  return out;
}

TEST(StreamFramer, SplitsCoalescedReads) {
  StreamFramer framer;
  Bytes stream = wire(1);
  const Bytes second = wire(2);
  stream.insert(stream.end(), second.begin(), second.end());

  const auto frames = collect(framer, stream);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], wire(1));
  EXPECT_EQ(frames[1], wire(2));
  EXPECT_EQ(framer.stats().frames_ok, 2u);
  EXPECT_EQ(framer.stats().frames_coalesced, 2u);
  EXPECT_EQ(framer.stats().frames_partial, 0u);
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(StreamFramer, ReassemblesByteByByte) {
  StreamFramer framer;
  const Bytes msg = encode({9, EchoRequest{{1, 2, 3, 4}}});
  std::vector<Bytes> frames;
  for (const std::uint8_t byte : msg) {
    framer.feed(std::span<const std::uint8_t>(&byte, 1),
                [&frames](const Bytes& f) { frames.push_back(f); });
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], msg);
  EXPECT_EQ(framer.stats().frames_partial, 1u);
  EXPECT_EQ(framer.stats().frames_coalesced, 0u);
}

TEST(StreamFramer, ForeignVersionSkippedWholeKeepsAlignment) {
  StreamFramer framer;
  Bytes stream = wire(1);
  stream[0] = 0x04;  // OF 1.3 HELLO: well-framed, wrong version
  const Bytes valid = wire(2);
  stream.insert(stream.end(), valid.begin(), valid.end());

  const auto frames = collect(framer, stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], valid);
  EXPECT_EQ(framer.stats().frames_bad, 1u);
  EXPECT_EQ(framer.stats().frames_ok, 1u);
}

TEST(StreamFramer, GarbagePrefixScansToNextValidHeader) {
  StreamFramer framer;
  Bytes stream(37, 0x00);  // version 0, length 0: unconditionally rejected
  const Bytes valid = wire(3);
  stream.insert(stream.end(), valid.begin(), valid.end());

  const auto frames = collect(framer, stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], valid);
  // One contiguous scan run counts once, however many bytes it shed.
  EXPECT_EQ(framer.stats().frames_bad, 1u);
  EXPECT_EQ(framer.buffered(), 0u);
}

TEST(StreamFramer, OversizedHeaderRejectedWithoutSwallowingTheStream) {
  StreamFramer framer({/*max_frame=*/64});
  Bytes stream = {kWireVersion, 0, 0xff, 0xff, 0, 0, 0, 1};  // claims 65535
  const Bytes valid = wire(4);
  stream.insert(stream.end(), valid.begin(), valid.end());

  const auto frames = collect(framer, stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], valid);
  EXPECT_GE(framer.stats().frames_bad, 1u);
}

TEST(StreamFramer, ResetDropsPartialFrame) {
  StreamFramer framer;
  const Bytes msg = encode({5, EchoRequest{{7, 7, 7}}});
  const auto none = collect(
      framer, std::span<const std::uint8_t>(msg.data(), msg.size() - 2));
  EXPECT_TRUE(none.empty());
  EXPECT_GT(framer.buffered(), 0u);

  framer.reset();  // reconnect: fresh stream
  EXPECT_EQ(framer.buffered(), 0u);
  const auto frames = collect(framer, msg);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], msg);
}

// ---------------------------------------------------------------------------
// Differential: the same seeded fig5-style scenario over InProcConnection and
// over the framed stream channel must produce bit-identical non-histogram
// telemetry (transport-specific series aside) and identical delivered
// message sequences in both directions.

struct ScenarioResult {
  std::map<std::string, double> scalars;
  std::vector<Bytes> to_controller;
  std::vector<Bytes> to_datapath;
  bool bound = false;
};

ScenarioResult run_scenario(homework::HomeworkRouter::Config::Transport t) {
  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scoped(registry);
  sim::EventLoop loop;
  Rng rng(2011);

  homework::HomeworkRouter::Config cfg;
  cfg.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  cfg.transport = t;
  homework::HomeworkRouter router(loop, rng, cfg, registry);

  ScenarioResult out;
  router.connection().controller_end().set_tap(
      [&out](const Bytes& m) { out.to_controller.push_back(m); });
  router.connection().datapath_end().set_tap(
      [&out](const Bytes& m) { out.to_datapath.push_back(m); });

  sim::Host::Config hc;
  hc.name = "a";
  hc.mac = MacAddress::from_index(1);
  sim::Host a(loop, hc, rng);
  hc.name = "b";
  hc.mac = MacAddress::from_index(2);
  sim::Host b(loop, hc, rng);
  router.attach_device(a, std::nullopt);
  router.attach_device(b, std::nullopt);
  router.start();

  a.start_dhcp();
  loop.run_for(kSecond);
  b.start_dhcp();
  loop.run_for(kSecond);
  if (a.ip() && b.ip()) {
    out.bound = true;
    (void)a.send_udp(b.ip().value(), 40000, 7, 64);  // local flow setup
    loop.run_for(kSecond);
    (void)a.ping(cfg.router_ip, 1);
    loop.run_for(kSecond);
  }
  out.scalars = registry.scalars();
  return out;
}

/// Strips series only one transport produces (the stream pipe and framer
/// instruments); everything else must match exactly.
std::map<std::string, double> comparable(
    const std::map<std::string, double>& in) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : in) {
    if (name.rfind("sim.stream.", 0) == 0) continue;
    if (name.rfind("openflow.channel.frames_", 0) == 0) continue;
    // Meta-telemetry: these count telemetry series/rows themselves, and the
    // stream transport legitimately registers extra series (the pipe and
    // framer instruments above), so the export row counts differ by exactly
    // that series delta. Everything they summarize is compared directly.
    if (name == "homework.metrics_export.rows_exported") continue;
    if (name == "hwdb.database.inserts") continue;
    out.emplace(name, value);
  }
  return out;
}

TEST(StreamDifferential, SameScenarioSameTelemetrySameMessageSequences) {
  using Transport = homework::HomeworkRouter::Config::Transport;
  const ScenarioResult inproc = run_scenario(Transport::InProc);
  const ScenarioResult stream = run_scenario(Transport::Stream);

  ASSERT_TRUE(inproc.bound);
  ASSERT_TRUE(stream.bound);
  EXPECT_EQ(inproc.to_controller, stream.to_controller);
  EXPECT_EQ(inproc.to_datapath, stream.to_datapath);
  EXPECT_GT(stream.to_controller.size(), 4u);  // HELLO/FEATURES + traffic
  const auto lhs = comparable(inproc.scalars);
  const auto rhs = comparable(stream.scalars);
  for (const auto& [name, value] : lhs) {
    const auto it = rhs.find(name);
    if (it == rhs.end()) {
      ADD_FAILURE() << "stream run missing series " << name;
    } else {
      EXPECT_EQ(value, it->second) << "series " << name;
    }
  }
  for (const auto& [name, value] : rhs) {
    EXPECT_EQ(lhs.count(name), 1u)
        << "inproc run missing series " << name << " = " << value;
  }
  // The stream run really did go through the framer.
  EXPECT_GT(stream.scalars.at("openflow.channel.frames_ok"), 0.0);
  EXPECT_EQ(stream.scalars.at("openflow.channel.frames_bad"), 0.0);
}

// ---------------------------------------------------------------------------
// Liveness under partial delivery: a stalled stream (bytes in flight frozen,
// possibly mid-frame under a tiny read ceiling) must cross the miss
// threshold, and a reconnect must resync the datapath through the framed
// channel.

TEST(StreamLiveness, StalledStreamGoesDeadThenResyncsAfterReconnect) {
  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scoped(registry);
  sim::EventLoop loop;
  Rng rng(7);

  homework::HomeworkRouter::Config cfg;
  cfg.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  cfg.transport = homework::HomeworkRouter::Config::Transport::Stream;
  cfg.channel_mtu = 5;  // every message arrives in partial reads
  cfg.liveness.probe_interval = kSecond;
  cfg.liveness.max_misses = 2;
  homework::HomeworkRouter router(loop, rng, cfg, registry);
  int resynced = 0;
  router.controller().on_resynced([&resynced](nox::DatapathId) { ++resynced; });

  sim::Host::Config hc;
  hc.name = "a";
  hc.mac = MacAddress::from_index(1);
  sim::Host a(loop, hc, rng);
  router.attach_device(a, std::nullopt);
  router.start();
  a.start_dhcp();
  loop.run_for(2 * kSecond);
  ASSERT_TRUE(a.ip().has_value());

  auto& conn = dynamic_cast<StreamConnection&>(router.connection());
  EXPECT_GT(conn.controller_channel().framer().stats().frames_partial, 0u)
      << "tiny mtu must force reassembly from partial reads";

  std::vector<nox::DatapathId> dead;
  router.liveness().on_dead([&dead](nox::DatapathId d) { dead.push_back(d); });

  conn.link().stall();  // half-open: sends queue, nothing delivered
  loop.run_for(5 * kSecond);
  ASSERT_EQ(dead.size(), 1u) << "stalled stream must cross the miss threshold";
  EXPECT_EQ(dead[0], router.datapath().id());

  // Reconnect: the cut drops the frozen in-flight bytes (mid-frame), both
  // framers reset, and the liveness recovery runs a reconcile round through
  // the framed channel. The stall left the table intact, so the round reads
  // it back and correctly re-sends nothing.
  conn.link().unstall();
  conn.disconnect();
  conn.reconnect();
  EXPECT_GT(conn.link().stats().cut_bytes, 0u)
      << "the stall left bytes in flight for the cut to drop";
  loop.run_for(5 * kSecond);

  const nox::LivenessMonitor::PeerState* peer =
      router.liveness().peer(router.datapath().id());
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->alive);
  EXPECT_EQ(resynced, 1)
      << "recovery must finish a barrier-confirmed re-sync through the "
         "framed channel";
  EXPECT_GT(router.datapath().table().size(), 0u);
  EXPECT_TRUE(router.reconciler()->verify_converged(router.datapath().id(),
                                                    router.datapath().table()));
}

}  // namespace
}  // namespace hw::ofp
