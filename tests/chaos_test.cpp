// Deterministic chaos suite: the fig5 scenario (full router + devices +
// hwdb measurement plane) run under a scripted FaultPlan — lossy device
// links, an hwdb drop/duplicate burst, a controller-channel outage and a
// datapath cold restart — asserting the platform recovers:
//   * no device ever holds a duplicate DHCP lease,
//   * the flow table is re-synced (barrier-confirmed) after the outage and
//     the restart,
//   * every retried hwdb insert is applied exactly once,
//   * the telemetry counters tell a self-consistent recovery story,
// and that the whole run is deterministic: the same (seed, plan) yields an
// identical counter/gauge snapshot on a second run. Histogram series are
// excluded from the determinism diff — they time wall-clock nanoseconds
// (telemetry::ScopedTimer) and legitimately differ between runs.
//
// CHAOS_SEED overrides the default seed so CI can sweep a fixed seed list.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "hwdb/udp_transport.hpp"
#include "sim/fault_injector.hpp"
#include "telemetry/metrics.hpp"

namespace hw::homework {
namespace {

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("CHAOS_SEED")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v != 0) return v;
  }
  return 11;
}

/// Counter/gauge view of the process registry (histograms excluded: they
/// hold wall-clock latencies and are non-deterministic by construction).
std::map<std::string, double> scalar_snapshot() {
  return telemetry::MetricRegistry::instance().scalars();
}

struct ChaosResult {
  std::map<std::string, double> telemetry;  // live counters/gauges at t=30s
  std::vector<std::string> leases;          // "mac ip" per device, sorted
  std::set<std::int64_t> acked;             // insert seqs acked to the client
  std::multiset<std::int64_t> applied;      // insert seqs present in the db
  hwdb::rpc::RpcClientStats rpc_client;
  hwdb::rpc::ServerStats rpc_server;
  hwdb::rpc::RpcLinkStats rpc_link;
  sim::FaultInjectorStats faults;
  nox::ControllerStats controller;
  ofp::DatapathStats datapath;
  DhcpServerStats dhcp;
  std::size_t flow_entries = 0;
  bool fail_safe_at_end = true;
  int resync_confirmations = 0;  // barrier-confirmed re-syncs observed
  /// Canonical "match|priority|actions|cookie" rows of the final table that
  /// carry a desired-state cookie, sorted.
  std::vector<std::string> desired_rows;
  /// The same rows as a bare controller's replay would install them: every
  /// component's flow intents, cookie = desired_cookie(key), sorted.
  std::vector<std::string> intent_rows;
};

std::string flow_row(const ofp::Match& match, std::uint16_t priority,
                     const ofp::ActionList& actions, std::uint64_t cookie) {
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(cookie));
  return match.to_string() + "|" + std::to_string(priority) + "|" +
         ofp::to_string(actions) + "|" + hex;
}

/// Renders flow intents the way replay_flow_setup would install them, keyed
/// by intent key (a later contribution of a key wins, as its Add would).
struct IntentRows final : nox::FlowIntentSink {
  std::map<std::string, std::string> by_key;
  void add(nox::FlowIntent intent) override {
    by_key[intent.key] = flow_row(intent.match, intent.priority,
                                  intent.actions, nox::desired_cookie(intent.key));
  }
};

/// One full scripted run. Everything (router, hosts, faults, rpc) is local,
/// so its instruments detach on return and back-to-back runs see clean
/// registry state for the series this scenario drives.
ChaosResult run_scenario(std::uint64_t seed) {
  sim::EventLoop loop;
  Rng rng(seed);

  HomeworkRouter::Config config;
  config.admission = DeviceRegistry::AdmissionDefault::PermitAll;
  config.liveness.probe_interval = kSecond;
  config.liveness.max_misses = 2;
  config.datapath.controller_dead_interval = 2 * kSecond;
  HomeworkRouter router(loop, rng, config);

  ChaosResult result;
  router.controller().on_resynced(
      [&](nox::DatapathId) { ++result.resync_confirmations; });
  router.start();

  // Three devices: d1 binds before any fault, d2 mid link-loss window, d3
  // during the controller outage (its packet-ins are denied until recovery).
  std::vector<std::unique_ptr<sim::Host>> hosts;
  std::vector<HomeworkRouter::Attachment> attachments;
  for (int i = 0; i < 3; ++i) {
    sim::Host::Config hc;
    hc.name = "dev" + std::to_string(i + 1);
    hc.mac = MacAddress::from_index(static_cast<std::uint32_t>(i + 1));
    hosts.push_back(std::make_unique<sim::Host>(loop, hc, rng));
    attachments.push_back(router.attach_device(*hosts.back(), std::nullopt));
  }

  // The measurement plane under test: a reliable RPC client inserting a
  // monotone sequence while the link drops/duplicates datagrams.
  EXPECT_TRUE(router.db()
                  .create_table(hwdb::Schema("Chaos",
                                             {{"seq", hwdb::ColumnType::Int}}),
                                256)
                  .ok())
      << "Chaos table";
  hwdb::rpc::InProcRpcLink rpc_link(loop, router.db());
  hwdb::rpc::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.timeout = 100 * kMillisecond;
  policy.backoff_base = 50 * kMillisecond;
  policy.backoff_cap = 400 * kMillisecond;
  hwdb::rpc::RpcClient& rpc = rpc_link.make_client(policy);

  sim::FaultInjector faults(loop);
  router.attach_faults(faults);
  faults.set_hwdb_fault([&](const sim::DatagramFault& f, Rng* frng) {
    rpc_link.set_fault(f, frng);
  });
  for (std::size_t i = 0; i < attachments.size(); ++i) {
    faults.add_link("dev" + std::to_string(i + 1), *attachments[i].link);
  }

  sim::FaultPlan plan;
  plan.seed = seed;
  plan.windows.push_back({sim::FaultKind::LinkLoss, 2 * kSecond, 6 * kSecond,
                          "*", 0.3, {}});
  plan.windows.push_back({sim::FaultKind::HwdbFault, 5 * kSecond, 7 * kSecond,
                          "*", 0.0,
                          {0.35, 0.25, 2 * kMillisecond}});
  plan.windows.push_back({sim::FaultKind::ControllerOutage, 10 * kSecond,
                          4 * kSecond, "*", 0.0, {}});
  plan.windows.push_back({sim::FaultKind::DatapathRestart, 20 * kSecond, 0,
                          "*", 0.0, {}});
  faults.arm(plan);

  // Workload schedule, all on the virtual clock.
  loop.schedule_at(500 * kMillisecond, [&] { hosts[0]->start_dhcp(); });
  loop.schedule_at(2500 * kMillisecond, [&] { hosts[1]->start_dhcp(); });
  loop.schedule_at(10500 * kMillisecond, [&] { hosts[2]->start_dhcp(); });
  // Lossy-window DHCP can exhaust the client's retry budget; re-kick any
  // unbound device after the outage clears and again after the restart has
  // been re-synced — exactly what a real client's INIT state does.
  for (const Timestamp at : {15 * kSecond, 24 * kSecond}) {
    loop.schedule_at(at, [&] {
      for (auto& host : hosts) {
        if (!host->ip()) host->start_dhcp();
      }
    });
  }

  std::int64_t next_seq = 0;
  sim::PeriodicTimer inserter(loop, 250 * kMillisecond, [&] {
    if (loop.now() > 25 * kSecond) return;
    const std::int64_t seq = next_seq++;
    rpc.insert("Chaos", {hwdb::Value{seq}}, [&result, seq](const auto& resp) {
      if (resp.ok) result.acked.insert(seq);
    });
  });
  loop.schedule_at(kSecond, [&] { inserter.start(); });

  loop.run_until(30 * kSecond);

  // Harvest while everything is alive.
  result.telemetry = scalar_snapshot();
  for (const auto& host : hosts) {
    result.leases.push_back(host->mac().to_string() + " " +
                            (host->ip() ? host->ip()->to_string() : "-"));
  }
  if (auto rs = router.db().query("SELECT seq FROM Chaos"); rs.ok()) {
    for (const auto& row : rs.value().rows) {
      result.applied.insert(row[0].as_int());
    }
  }
  result.rpc_client = rpc.stats();
  result.rpc_server = rpc_link.server().stats();
  result.rpc_link = rpc_link.stats();
  result.faults = faults.stats();
  result.controller = router.controller().stats();
  result.datapath = router.datapath().stats();
  result.dhcp = router.dhcp().stats();
  result.flow_entries = router.datapath().table().size();
  result.fail_safe_at_end = router.datapath().fail_safe();
  router.datapath().table().for_each([&result](const ofp::FlowEntry& e) {
    if (!nox::is_desired_cookie(e.cookie)) return;
    result.desired_rows.push_back(
        flow_row(e.match, e.priority, e.actions, e.cookie));
  });
  std::sort(result.desired_rows.begin(), result.desired_rows.end());
  IntentRows intents;
  router.controller().collect_flow_intents(router.datapath().id(), intents);
  for (const auto& [key, row] : intents.by_key) result.intent_rows.push_back(row);
  std::sort(result.intent_rows.begin(), result.intent_rows.end());
  EXPECT_TRUE(router.reconciler()->verify_converged(
      router.datapath().id(), router.datapath().table()))
      << "final table diverged from desired state (seed " << seed << ")";
  return result;
}

/// Every device ends bound with no two devices sharing an address, and the
/// hwdb writes landed exactly once: no sequence number twice, and every
/// insert the client saw acked present.
void expect_leases_and_inserts_sound(const ChaosResult& r, std::uint64_t seed) {
  std::set<std::string> ips;
  for (const auto& lease : r.leases) {
    const std::string ip = lease.substr(lease.find(' ') + 1);
    EXPECT_NE(ip, "-") << "unbound device: " << lease << " (seed " << seed
                       << ")";
    EXPECT_TRUE(ips.insert(ip).second)
        << "duplicate DHCP lease " << ip << " (seed " << seed << ")";
  }
  std::set<std::int64_t> distinct(r.applied.begin(), r.applied.end());
  EXPECT_EQ(distinct.size(), r.applied.size())
      << "a retried insert was applied twice (seed " << seed << ")";
  for (const std::int64_t seq : r.acked) {
    EXPECT_TRUE(distinct.count(seq)) << "acked seq " << seq << " missing";
  }
  EXPECT_FALSE(r.acked.empty());
}

TEST(ChaosSoak, SurvivesLossyHomeNetworkAndRecovers) {
  const std::uint64_t seed = chaos_seed();
  const ChaosResult r = run_scenario(seed);

  // The plan ran to completion and closed every window.
  EXPECT_EQ(r.faults.windows_started, 4u) << "seed " << seed;
  EXPECT_EQ(r.faults.windows_ended, 4u);
  EXPECT_EQ(r.faults.active, 0);
  EXPECT_EQ(r.faults.link_faults, 2u * 3u);  // loss applied per direction
  EXPECT_EQ(r.faults.controller_outages, 1u);
  EXPECT_EQ(r.faults.hwdb_faults, 1u);
  EXPECT_EQ(r.faults.datapath_restarts, 1u);

  expect_leases_and_inserts_sound(r, seed);
  // Retransmissions happened (lossy window) yet never double-allocated.
  EXPECT_GT(r.dhcp.retransmits + r.rpc_server.dup_suppressed, 0u);

  // The drop burst forced retries; suppression only ever happens when a
  // datagram was re-sent (client retry) or duplicated by the link.
  EXPECT_GT(r.rpc_client.retries, 0u);
  EXPECT_LE(r.rpc_server.dup_suppressed,
            r.rpc_client.retries + r.rpc_link.fault_duplicated);

  // Controller-channel recovery: the outage tripped the watchdog and the
  // restart re-sent HELLO; both ended in a barrier-confirmed re-sync that
  // re-installed the modules' flows.
  EXPECT_GE(r.controller.reconnects, 2u) << "seed " << seed;
  EXPECT_GE(r.controller.resynced_flows, 3u);
  EXPECT_GE(r.resync_confirmations, 2);
  EXPECT_GE(r.flow_entries, 3u) << "flow table not re-populated after restart";

  // The datapath spent the outage in fail-safe and left it on recovery.
  EXPECT_GE(r.datapath.failsafe_entries, 1u);
  EXPECT_EQ(r.datapath.restarts, 1u);
  EXPECT_FALSE(r.fail_safe_at_end);

  // Spot-check the telemetry export view agrees with the struct snapshots
  // (same numbers an external UI reads back over hwdb RPC).
  EXPECT_EQ(r.telemetry.at("sim.fault.windows_started"), 4.0);
  EXPECT_EQ(r.telemetry.at("sim.fault.active"), 0.0);
  EXPECT_EQ(r.telemetry.at("hwdb.rpc.retries"),
            static_cast<double>(r.rpc_client.retries));
  EXPECT_EQ(r.telemetry.at("hwdb.rpc.dup_suppressed"),
            static_cast<double>(r.rpc_server.dup_suppressed));
  EXPECT_EQ(r.telemetry.at("nox.channel.reconnects"),
            static_cast<double>(r.controller.reconnects));
  EXPECT_EQ(r.telemetry.at("nox.channel.resynced_flows"),
            static_cast<double>(r.controller.resynced_flows));
}

TEST(ChaosSoak, IdenticalSeedReplaysIdentically) {
  const std::uint64_t seed = chaos_seed();
  const ChaosResult a = run_scenario(seed);
  const ChaosResult b = run_scenario(seed);

  // Same seed + same plan → the exact same failure history: every counter
  // and gauge lands on the same value, down to the last retry.
  EXPECT_EQ(a.telemetry, b.telemetry) << "seed " << seed;
  EXPECT_EQ(a.leases, b.leases);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.rpc_client.retries, b.rpc_client.retries);
  EXPECT_EQ(a.rpc_server.dup_suppressed, b.rpc_server.dup_suppressed);
  EXPECT_EQ(a.resync_confirmations, b.resync_confirmations);
}

TEST(ChaosDifferential, ReplayAndReconcileConvergeToIdenticalState) {
  // Under the fault plan the reconciler must land the table exactly where a
  // bare controller's blind replay would put it: the desired-cookie rows
  // (match, priority, actions AND cookie) equal every component's flow
  // intents as replay_flow_setup would install them. Replay itself is not
  // run — collect_flow_intents is the exact set it sends.
  const std::uint64_t seed = chaos_seed();
  const ChaosResult r = run_scenario(seed);

  EXPECT_FALSE(r.intent_rows.empty());
  EXPECT_EQ(r.desired_rows, r.intent_rows) << "seed " << seed;
  EXPECT_FALSE(r.fail_safe_at_end);
  expect_leases_and_inserts_sound(r, seed);

  // Recovery ran through barrier-confirmed re-syncs, each re-sending only
  // the delta: the outage heals a surviving table and only the cold
  // restart rebuilds, so the re-sent flows stay below two full replays.
  EXPECT_GE(r.resync_confirmations, 2);
  EXPECT_LT(r.controller.resynced_flows, 2 * r.intent_rows.size())
      << "seed " << seed;
}

}  // namespace
}  // namespace hw::homework
