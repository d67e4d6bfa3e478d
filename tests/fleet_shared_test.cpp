// Shared-controller fleet: N home datapaths over framed stream channels into
// one controller event loop per shard, with per-dpid state keeping homes that
// reuse identical MACs and RFC1918 addresses fully isolated.
#include "fleet/shared.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace hw::fleet {
namespace {

SharedFleetConfig base_config() {
  SharedFleetConfig cfg;
  cfg.homes = 8;
  cfg.threads = 1;
  cfg.seed = 2011;
  cfg.duration = 4 * kSecond;
  cfg.devices_per_home = 2;
  return cfg;
}

TEST(SharedFleet, HomesBindAndInstallFlowsThroughOneController) {
  SharedFleetRunner runner(base_config());
  const SharedFleetResult r = runner.run();

  ASSERT_EQ(r.homes.size(), 8u);
  EXPECT_EQ(r.homes_ok, 8u) << "every home must fully bind";
  for (std::size_t i = 0; i < r.homes.size(); ++i) {
    const SharedHomeStatus& home = r.homes[i];
    EXPECT_EQ(home.home_id, i);
    EXPECT_EQ(home.dpid, i + 1);
    EXPECT_EQ(home.devices_bound, 2u) << "home " << i;
    EXPECT_TRUE(home.all_bound) << "home " << i;
    EXPECT_GT(home.flow_entries, 0u) << "home " << i;
  }

  // The shared controller saw every home's DHCP exchange, installed per-home
  // forwarding rules, and all of it travelled through the stream framer.
  EXPECT_EQ(r.scalar_totals.at("homework.dhcp.acks"), 16.0);
  EXPECT_GT(r.scalar_totals.at("homework.forwarding.flows_installed"), 0.0);
  EXPECT_GT(r.scalar_totals.at("openflow.channel.rx_messages"), 0.0);
  EXPECT_GT(r.scalar_totals.at("openflow.channel.frames_ok"), 0.0);
  EXPECT_EQ(r.scalar_totals.at("openflow.channel.frames_bad"), 0.0);
}

TEST(SharedFleet, IdenticalAddressesInEveryHomeStayIsolated) {
  // Every home attaches devices with the SAME MACs, which then hold the SAME
  // 192.168.1.x leases; only datapath-id keying keeps the controller's
  // registry, DHCP scopes and flow rules from colliding. If any layer still
  // assumed a single home, binds or flow installs would go missing.
  SharedFleetConfig cfg = base_config();
  cfg.homes = 4;
  SharedFleetRunner runner(cfg);
  const SharedFleetResult r = runner.run();

  ASSERT_EQ(r.homes.size(), 4u);
  EXPECT_EQ(r.homes_ok, 4u);
  for (const SharedHomeStatus& home : r.homes) {
    EXPECT_EQ(home.flow_entries, r.homes.front().flow_entries)
        << "home " << home.home_id << " diverged from its identical twins";
    EXPECT_GT(home.flow_entries, 3u)
        << "home " << home.home_id
        << " holds only the module table setup, no traffic rules";
  }
}

struct Fingerprint {
  std::map<std::string, double> totals;
  std::vector<std::tuple<std::size_t, std::uint64_t, std::size_t, std::size_t,
                         bool>>
      per_home;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const SharedFleetResult& r) {
  Fingerprint fp;
  fp.totals = r.scalar_totals;
  for (const SharedHomeStatus& h : r.homes) {
    fp.per_home.emplace_back(h.home_id, h.dpid, h.devices_bound,
                             h.flow_entries, h.all_bound);
  }
  return fp;
}

TEST(SharedFleet, MergedTelemetryBitIdenticalAcrossWorkerPoolSizes) {
  SharedFleetConfig cfg = base_config();
  cfg.threads = 1;
  const Fingerprint one = fingerprint(SharedFleetRunner(cfg).run());
  cfg.threads = 2;
  const Fingerprint two = fingerprint(SharedFleetRunner(cfg).run());
  cfg.threads = 8;
  const Fingerprint eight = fingerprint(SharedFleetRunner(cfg).run());

  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one.per_home.size(), 8u);
}

TEST(SharedFleet, ReconcileFingerprintBitIdenticalAcrossThreadsUnderRestarts) {
  // The divergence workload: every odd home cold-restarts mid-run and rejoins
  // through a reconcile round. The reconcile.* counters are per-home
  // deterministic, so the merged fingerprint — including rounds, delta and
  // convergence counts — must be bit-identical at any worker-pool size.
  SharedFleetConfig cfg = base_config();
  cfg.duration = 5 * kSecond;
  cfg.restart_odd_homes = true;
  cfg.threads = 1;
  const SharedFleetResult base = SharedFleetRunner(cfg).run();
  const Fingerprint one = fingerprint(base);
  cfg.threads = 2;
  const Fingerprint two = fingerprint(SharedFleetRunner(cfg).run());
  cfg.threads = 8;
  const Fingerprint eight = fingerprint(SharedFleetRunner(cfg).run());

  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);

  // Every home — restarted or not — ends converged on its desired state.
  EXPECT_EQ(base.homes_ok, 8u);
  for (const SharedHomeStatus& home : base.homes) {
    EXPECT_TRUE(home.converged) << "home " << home.home_id;
  }
  // The reconciler really drove the recovery: join rounds for all 8 homes,
  // a rebuild round per restarted odd home (service flows re-added as
  // deltas) and a converged zero-delta round per admin-resynced even home.
  EXPECT_GE(base.scalar_totals.at("reconcile.rounds"), 16.0);
  EXPECT_GT(base.scalar_totals.at("reconcile.deltas_added"), 0.0);
  EXPECT_GE(base.scalar_totals.at("reconcile.converged_rounds"), 4.0);
}

TEST(SharedFleet, RestartedAndIntactHomesConvergeToIdenticalState) {
  // Same fleet, same seeds: odd homes cold-restart mid-run and rebuild
  // their tables through a reconcile round, even homes get an admin re-sync
  // over an intact table. Every home must end converged — its desired-cookie
  // rows equal exactly the component intents a bare controller's replay
  // would install — and hold the same leases as its identical twins.
  SharedFleetConfig cfg = base_config();
  cfg.homes = 4;
  cfg.duration = 5 * kSecond;
  cfg.restart_odd_homes = true;
  cfg.collect_state = true;
  const SharedFleetResult r = SharedFleetRunner(cfg).run();

  ASSERT_EQ(r.homes.size(), 4u);
  EXPECT_EQ(r.homes_ok, 4u);
  for (const SharedHomeStatus& home : r.homes) {
    EXPECT_TRUE(home.converged) << "home " << home.home_id;
    EXPECT_FALSE(home.leases.empty()) << "home " << home.home_id;
    EXPECT_EQ(home.leases, r.homes.front().leases)
        << "home " << home.home_id << " diverged from its identical twins";
  }
  // The restarted odd homes re-send their service flows as re-sync deltas;
  // the intact even homes re-send nothing. So the re-syncs re-send fewer
  // flows than the run's rounds added in total (every home's join round
  // added its full service set).
  EXPECT_GT(r.scalar_totals.at("nox.channel.resynced_flows"), 0.0);
  EXPECT_LT(r.scalar_totals.at("nox.channel.resynced_flows"),
            r.scalar_totals.at("reconcile.deltas_added"));
}

TEST(SharedFleet, FramedChannelsReassembleUnderTinyMtu) {
  // A 5-byte read ceiling means no OpenFlow message ever arrives whole; the
  // framers must reassemble every handshake and packet-in from partials.
  SharedFleetConfig cfg = base_config();
  cfg.homes = 2;
  cfg.channel_mtu = 5;
  const SharedFleetResult r = SharedFleetRunner(cfg).run();

  EXPECT_EQ(r.homes_ok, 2u);
  EXPECT_GT(r.scalar_totals.at("openflow.channel.frames_partial"), 0.0);
  EXPECT_EQ(r.scalar_totals.at("openflow.channel.frames_bad"), 0.0);
}

}  // namespace
}  // namespace hw::fleet
