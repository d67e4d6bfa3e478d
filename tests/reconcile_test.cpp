// Goal-state reconciliation suite: the pure delta computation (rule-by-rule
// and property-hammered on randomized desired/actual pairs — applying a
// delta and recomputing yields an empty delta, and applying twice equals
// applying once), the DesiredStore 'DSTA' snapshot layer, the policy
// lowering into compiled drop flows, and the full reconciler driven inside
// a live HomeworkRouter: control-API writes land in desired state, state
// fixups heal registry/lease divergence, and warm restart converges in a
// single round.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "nox/component.hpp"
#include "policy/compiler.hpp"
#include "reconcile/actual_state.hpp"
#include "reconcile/desired_state.hpp"
#include "reconcile/reconciler.hpp"
#include "router_fixture.hpp"
#include "snapshot/codec.hpp"
#include "telemetry/metrics.hpp"
#include "util/rand.hpp"

namespace hw::reconcile {
namespace {

DesiredFlow make_flow(const std::string& key, std::uint16_t tp_dst,
                      std::uint16_t priority = 0x8000,
                      std::uint16_t idle = 0, std::uint16_t hard = 0) {
  DesiredFlow f;
  f.key = key;
  f.match = ofp::Match::any();
  f.match.with_dl_type(0x0800).with_nw_proto(17).with_tp_dst(tp_dst);
  f.priority = priority;
  f.actions = ofp::send_to_controller();
  f.idle_timeout = idle;
  f.hard_timeout = hard;
  return f;
}

ActualFlow as_actual(const DesiredFlow& f) {
  ActualFlow a;
  a.match = f.match;
  a.priority = f.priority;
  a.cookie = f.cookie();
  a.actions = f.actions;
  a.idle_timeout = f.idle_timeout;
  a.hard_timeout = f.hard_timeout;
  return a;
}

// ---------------------------------------------------------------------------
// compute_flow_delta: one test per rule.

TEST(FlowDelta, EmptyOnIdenticalStates) {
  DesiredState desired;
  desired.put_flow(make_flow("a", 53));
  desired.put_flow(make_flow("b", 67));
  std::vector<ActualFlow> actual;
  for (const auto& [key, f] : desired.flows) actual.push_back(as_actual(f));

  const FlowDelta delta = compute_flow_delta(desired, actual);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.noop, 2u);
}

TEST(FlowDelta, MissingDesiredFlowIsAnAdd) {
  DesiredState desired;
  desired.put_flow(make_flow("a", 53));
  const FlowDelta delta = compute_flow_delta(desired, {});
  ASSERT_EQ(delta.add.size(), 1u);
  EXPECT_EQ(delta.add[0].key, "a");
  EXPECT_TRUE(delta.modify.empty());
  EXPECT_TRUE(delta.del.empty());
}

TEST(FlowDelta, ActionDriftWithEqualTimeoutsIsAModify) {
  DesiredState desired;
  desired.put_flow(make_flow("a", 53));
  ActualFlow drifted = as_actual(desired.flows.at("a"));
  drifted.actions = ofp::output_to(3);  // wrong actions, same timeouts

  const FlowDelta delta = compute_flow_delta(desired, {drifted});
  ASSERT_EQ(delta.modify.size(), 1u);
  EXPECT_EQ(delta.modify[0].key, "a");
  EXPECT_TRUE(delta.add.empty());
  EXPECT_TRUE(delta.del.empty());
}

TEST(FlowDelta, CookieDriftAloneIsAModify) {
  // A row matching the desired pattern but carrying a foreign cookie is
  // claimed and re-tagged: Modify updates actions+cookie in place.
  DesiredState desired;
  desired.put_flow(make_flow("a", 53));
  ActualFlow drifted = as_actual(desired.flows.at("a"));
  drifted.cookie = 0;  // a reactive install that happens to share the pattern

  const FlowDelta delta = compute_flow_delta(desired, {drifted});
  ASSERT_EQ(delta.modify.size(), 1u);
  EXPECT_TRUE(delta.del.empty());
}

TEST(FlowDelta, TimeoutDriftForcesDeleteThenAdd) {
  // FlowTable's Modify semantics never touch timeouts, so a timeout
  // divergence cannot be healed in place.
  DesiredState desired;
  desired.put_flow(make_flow("a", 53, 0x8000, /*idle=*/30));
  ActualFlow drifted = as_actual(desired.flows.at("a"));
  drifted.idle_timeout = 0;

  const FlowDelta delta = compute_flow_delta(desired, {drifted});
  ASSERT_EQ(delta.del.size(), 1u);
  ASSERT_EQ(delta.add.size(), 1u);
  EXPECT_TRUE(delta.modify.empty());
  EXPECT_TRUE(drifted.match.same_pattern(delta.del[0].match));
}

TEST(FlowDelta, OrphanedDesiredCookieRowIsDeleted) {
  DesiredState desired;  // empty: nothing should carry our cookie tag
  ActualFlow orphan = as_actual(make_flow("stale", 99));
  ASSERT_TRUE(nox::is_desired_cookie(orphan.cookie));

  const FlowDelta delta = compute_flow_delta(desired, {orphan});
  ASSERT_EQ(delta.del.size(), 1u);
  EXPECT_TRUE(delta.add.empty());
}

TEST(FlowDelta, ReactiveFlowsAreNeverTouched) {
  // Foreign cookies — including 0, the reactive flow-setup namespace — are
  // someone else's rows; the reconciler owns only its own cookie space.
  DesiredState desired;
  desired.put_flow(make_flow("a", 53));
  ActualFlow reactive;
  reactive.match = ofp::Match::any();
  reactive.match.with_dl_src(MacAddress::from_index(9));
  reactive.priority = 0x8000;
  reactive.cookie = 0;
  reactive.actions = ofp::output_to(2);
  reactive.idle_timeout = 60;

  const FlowDelta delta = compute_flow_delta(desired, {reactive});
  ASSERT_EQ(delta.add.size(), 1u);  // the missing desired flow
  EXPECT_TRUE(delta.del.empty());
  EXPECT_TRUE(delta.modify.empty());
}

// ---------------------------------------------------------------------------
// Property tests: randomized desired/actual pairs. ActualState::apply mirrors
// the datapath's strict-mod semantics, so "apply the delta, recompute, get
// nothing" is exactly the idempotence contract the reconciler leans on.

DesiredState random_desired(Rng& rng, std::size_t n) {
  DesiredState desired;
  for (std::size_t i = 0; i < n; ++i) {
    DesiredFlow f = make_flow(
        "k" + std::to_string(i),
        static_cast<std::uint16_t>(1000 + i),
        static_cast<std::uint16_t>(0x8000 + rng.uniform(16)),
        static_cast<std::uint16_t>(rng.chance(0.3) ? rng.uniform(120) : 0),
        static_cast<std::uint16_t>(rng.chance(0.2) ? rng.uniform(600) : 0));
    if (rng.chance(0.5)) {
      f.actions = ofp::output_to(static_cast<std::uint16_t>(1 + rng.uniform(4)));
    }
    desired.put_flow(std::move(f));
  }
  return desired;
}

/// Mutates a faithful mirror of `desired` into a divergent actual table:
/// rows dropped, actions drifted, timeouts drifted, stale desired-cookie
/// rows and untouchable reactive rows mixed in.
std::vector<ActualFlow> random_divergence(const DesiredState& desired,
                                          Rng& rng) {
  std::vector<ActualFlow> actual;
  for (const auto& [key, f] : desired.flows) {
    if (rng.chance(0.25)) continue;  // missing → Add
    ActualFlow a = as_actual(f);
    if (rng.chance(0.25)) a.actions = ofp::output_to(7);   // drift → Modify
    if (rng.chance(0.2)) a.idle_timeout ^= 1;              // drift → Del+Add
    if (rng.chance(0.1)) a.cookie ^= 0xff;                 // drift → Modify
    actual.push_back(std::move(a));
  }
  const std::size_t strays = rng.uniform(4);
  for (std::size_t i = 0; i < strays; ++i) {
    // Stale desired-owned rows from a previous policy generation.
    actual.push_back(as_actual(
        make_flow("stale" + std::to_string(i),
                  static_cast<std::uint16_t>(5000 + i))));
  }
  const std::size_t reactive = rng.uniform(4);
  for (std::size_t i = 0; i < reactive; ++i) {
    ActualFlow r;
    r.match = ofp::Match::any();
    r.match.with_dl_src(
        MacAddress::from_index(static_cast<std::uint32_t>(0x100 + i)));
    r.cookie = 0;
    r.actions = ofp::output_to(1);
    r.idle_timeout = 60;
    actual.push_back(std::move(r));
  }
  return actual;
}

TEST(FlowDeltaProperty, ApplyThenRecomputeIsEmpty) {
  Rng rng(2011);
  for (int iter = 0; iter < 200; ++iter) {
    const DesiredState desired = random_desired(rng, 1 + rng.uniform(12));
    const std::vector<ActualFlow> divergent = random_divergence(desired, rng);
    const std::size_t reactive_before = static_cast<std::size_t>(
        std::count_if(divergent.begin(), divergent.end(), [](const ActualFlow& f) {
          return !nox::is_desired_cookie(f.cookie);
        }));

    const FlowDelta delta = compute_flow_delta(desired, divergent);

    ActualState mirror;
    std::vector<ofp::FlowStatsEntry> entries;
    for (const ActualFlow& f : divergent) {
      ofp::FlowStatsEntry e;
      e.match = f.match;
      e.priority = f.priority;
      e.cookie = f.cookie;
      e.actions = f.actions;
      e.idle_timeout = f.idle_timeout;
      e.hard_timeout = f.hard_timeout;
      entries.push_back(std::move(e));
    }
    mirror.refresh(entries);
    mirror.apply(delta);

    const FlowDelta after = compute_flow_delta(desired, mirror.flows());
    EXPECT_TRUE(after.empty())
        << "iter " << iter << ": +" << after.add.size() << " ~"
        << after.modify.size() << " -" << after.del.size();
    EXPECT_EQ(after.noop, desired.flows.size()) << "iter " << iter;

    // Reactive rows rode through untouched.
    const std::size_t reactive_after = static_cast<std::size_t>(
        std::count_if(mirror.flows().begin(), mirror.flows().end(),
                      [](const ActualFlow& f) {
                        return !nox::is_desired_cookie(f.cookie);
                      }));
    EXPECT_EQ(reactive_after, reactive_before) << "iter " << iter;
  }
}

TEST(FlowDeltaProperty, ApplyingTwiceEqualsApplyingOnce) {
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    const DesiredState desired = random_desired(rng, 1 + rng.uniform(10));
    const std::vector<ActualFlow> divergent = random_divergence(desired, rng);
    const FlowDelta delta = compute_flow_delta(desired, divergent);

    ActualState once;
    ActualState twice;
    std::vector<ofp::FlowStatsEntry> entries;
    for (const ActualFlow& f : divergent) {
      ofp::FlowStatsEntry e;
      e.match = f.match;
      e.priority = f.priority;
      e.cookie = f.cookie;
      e.actions = f.actions;
      e.idle_timeout = f.idle_timeout;
      e.hard_timeout = f.hard_timeout;
      entries.push_back(std::move(e));
    }
    once.refresh(entries);
    twice.refresh(entries);
    once.apply(delta);
    twice.apply(delta);
    twice.apply(delta);

    auto canon = [](const std::vector<ActualFlow>& flows) {
      std::multiset<std::string> rows;
      for (const ActualFlow& f : flows) {
        rows.insert(f.match.to_string() + "|" + std::to_string(f.priority) +
                    "|" + ofp::to_string(f.actions) + "|" +
                    std::to_string(f.cookie) + "|" +
                    std::to_string(f.idle_timeout) + "|" +
                    std::to_string(f.hard_timeout));
      }
      return rows;
    };
    EXPECT_EQ(canon(once.flows()), canon(twice.flows())) << "iter " << iter;
  }
}

TEST(FlowDeltaProperty, DeltaIsMinimal) {
  // Every emitted mod is justified: no Add for a row already present and
  // equal, no Delete for a row the desired state still wants unchanged.
  Rng rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    const DesiredState desired = random_desired(rng, 1 + rng.uniform(10));
    const std::vector<ActualFlow> divergent = random_divergence(desired, rng);
    const FlowDelta delta = compute_flow_delta(desired, divergent);

    for (const DesiredFlow& add : delta.add) {
      for (const ActualFlow& a : divergent) {
        const bool same = a.match.same_pattern(add.match) &&
                          a.priority == add.priority;
        if (!same) continue;
        // Claimed rows only land in `add` when timeouts diverge.
        EXPECT_TRUE(a.idle_timeout != add.idle_timeout ||
                    a.hard_timeout != add.hard_timeout)
            << "iter " << iter << ": gratuitous re-add of " << add.key;
      }
    }
    for (const Deletion& del : delta.del) {
      for (const auto& [key, want] : desired.flows) {
        const bool same = want.match.same_pattern(del.match) &&
                          want.priority == del.priority;
        if (!same) continue;
        // A delete aimed at a still-desired pattern must be the first half
        // of a timeout-heal; the matching add must exist.
        const bool readded = std::any_of(
            delta.add.begin(), delta.add.end(), [&](const DesiredFlow& a) {
              return a.key == key;
            });
        EXPECT_TRUE(readded) << "iter " << iter << ": delete without re-add";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// DesiredStore snapshot layer ('DSTA').

TEST(DesiredStoreSnapshot, RoundTripsFlowsAndIntents) {
  DesiredStore store;
  DesiredState& s1 = store.state(1);
  s1.put_flow(make_flow("dhcp:intercept", 67, 0xffff));
  s1.put_flow(make_flow("policy:block:src:aa", 9, 0x9100));
  DeviceIntent& d = s1.device("02:00:00:00:00:01");
  d.admission = DeviceIntent::Admission::Permitted;
  d.tags = {"kids", "console"};
  d.lease_ip = Ipv4Address{192, 168, 1, 100};
  d.rate_limit_bps = 2'000'000;
  store.state(7).device("02:00:00:00:00:02").admission =
      DeviceIntent::Admission::Denied;

  snapshot::Writer w;
  store.save(w);
  const Bytes image = std::move(w).finish();
  auto reader = snapshot::Reader::parse(image);
  ASSERT_TRUE(reader.ok()) << reader.error().message;

  DesiredStore restored;
  restored.state(3).put_flow(make_flow("junk", 1));  // must be replaced
  ASSERT_TRUE(restored.restore(reader.value()).ok());

  ASSERT_EQ(restored.size(), 2u);
  ASSERT_NE(restored.find(1), nullptr);
  EXPECT_EQ(restored.find(3), nullptr);
  EXPECT_TRUE(*restored.find(1) == *store.find(1));
  EXPECT_TRUE(*restored.find(7) == *store.find(7));
  const DeviceIntent& rd = restored.state(1).devices.at("02:00:00:00:00:01");
  EXPECT_EQ(rd.lease_ip, (Ipv4Address{192, 168, 1, 100}));
  EXPECT_EQ(rd.tags, (std::vector<std::string>{"kids", "console"}));
  EXPECT_EQ(rd.rate_limit_bps, 2'000'000u);
}

TEST(DesiredStoreSnapshot, MissingChunkLeavesStateAlone) {
  snapshot::Writer w;
  w.begin_chunk(snapshot::tag("ZZZZ")).u64(1);
  w.end_chunk();
  const Bytes image = std::move(w).finish();
  auto reader = snapshot::Reader::parse(image);
  ASSERT_TRUE(reader.ok());

  DesiredStore store;
  store.state(1).put_flow(make_flow("keep", 53));
  ASSERT_TRUE(store.restore(reader.value()).ok());
  ASSERT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(1)->flows.count("keep"), 1u);
}

// ---------------------------------------------------------------------------
// Policy lowering → compiled drop flows.

TEST(CompileBlockFlows, LeasedDeviceBlocksByAddress) {
  policy::LoweredStatement s;
  s.verb = policy::LoweredStatement::Verb::BlockNetwork;
  s.mac = "02:00:00:00:00:01";
  s.ip = Ipv4Address{192, 168, 1, 100};

  const auto flows = compile_block_flows(s);
  ASSERT_EQ(flows.size(), 2u);
  for (const DesiredFlow& f : flows) {
    EXPECT_TRUE(f.actions.empty()) << "block flows must drop";
    EXPECT_EQ(f.priority, 0x9100);
    EXPECT_EQ(f.match.dl_type, 0x0800);
    EXPECT_TRUE(nox::is_desired_cookie(f.cookie()));
  }
  EXPECT_EQ(flows[0].key, "policy:block:src:" + s.mac);
  EXPECT_EQ(flows[1].key, "policy:block:dst:" + s.mac);
  EXPECT_EQ(flows[0].match.nw_src, s.ip);
  EXPECT_EQ(flows[1].match.nw_dst, s.ip);
}

TEST(CompileBlockFlows, UnleasedDeviceFallsBackToMacMatch) {
  policy::LoweredStatement s;
  s.verb = policy::LoweredStatement::Verb::BlockNetwork;
  s.mac = MacAddress::from_index(5).to_string();

  const auto flows = compile_block_flows(s);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_TRUE(flows[0].actions.empty());
  EXPECT_EQ(flows[0].match.dl_src, MacAddress::from_index(5));
  EXPECT_EQ(flows[1].match.dl_dst, MacAddress::from_index(5));
  EXPECT_EQ(flows[0].match.dl_type, 0);  // all ethertypes, not just IP
}

// ---------------------------------------------------------------------------
// Live reconciler inside a HomeworkRouter.

struct ReconcileFixture : homework::testing::RouterFixture {
  ReconcileFixture() : RouterFixture(config()) {}
  static homework::HomeworkRouter::Config config() {
    homework::HomeworkRouter::Config c;
    c.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
    return c;  // resync defaults to Reconcile
  }
  nox::DatapathId dpid() { return router.datapath().id(); }
};

TEST_F(ReconcileFixture, BootConvergesServiceFlowsThroughADeltaRound) {
  loop.run_for(kSecond);
  Reconciler* rec = router.reconciler();
  ASSERT_NE(rec, nullptr);

  // The join round installed the module service flows as desired deltas.
  const RoundReport* report = rec->last_report(dpid());
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(rec->verify_converged(dpid(), router.datapath().table()));

  // Every service flow in the table carries the desired cookie tag.
  std::size_t tagged = 0;
  router.datapath().table().for_each([&](const ofp::FlowEntry& e) {
    if (nox::is_desired_cookie(e.cookie)) ++tagged;
  });
  EXPECT_GE(tagged, 4u);  // dhcp intercept, dns query/answer, arp

  // A follow-up round over a converged table is a pure noop.
  const double rounds_before =
      telemetry::MetricRegistry::current().total("reconcile.rounds").value_or(0);
  rec->request_round(dpid());
  loop.run_for(kSecond);
  EXPECT_GT(telemetry::MetricRegistry::current()
                .total("reconcile.rounds")
                .value_or(0),
            rounds_before);
  const RoundReport* after = rec->last_report(dpid());
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(after->converged);
  EXPECT_EQ(after->added + after->modified + after->deleted, 0u);
}

TEST_F(ReconcileFixture, ControlApiDecisionLandsInDesiredStateAndRegistry) {
  sim::Host& host = make_device("laptop");
  host.start_dhcp();
  loop.run_for(kSecond);

  homework::HttpRequest req;
  req.method = "POST";
  req.path = "/api/devices/" + host.mac().to_string() + "/deny";
  ASSERT_EQ(router.control_api().handle(req).status, 200);
  loop.run_for(kSecond);

  const DesiredState* state = router.desired_store()->find(dpid());
  ASSERT_NE(state, nullptr);
  const auto it = state->devices.find(host.mac().to_string());
  ASSERT_NE(it, state->devices.end());
  EXPECT_EQ(it->second.admission, DeviceIntent::Admission::Denied);
  EXPECT_TRUE(
      router.reconciler()->verify_converged(dpid(), router.datapath().table()));
}

TEST_F(ReconcileFixture, AdmissionFixupHealsRegistryDivergence) {
  sim::Host& host = admitted_device("laptop");

  // Declare the device denied in desired state WITHOUT going through the
  // registry — pure divergence between goal and controller state.
  router.desired_store()->state(dpid()).device(host.mac().to_string())
      .admission = DeviceIntent::Admission::Denied;
  const double fixups_before = telemetry::MetricRegistry::current()
                                   .total("reconcile.registry_fixups")
                                   .value_or(0);
  router.reconciler()->request_round(dpid());
  loop.run_for(kSecond);

  const homework::DeviceRecord* rec = router.registry().find(host.mac());
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->state, homework::DeviceState::Denied);
  EXPECT_GT(telemetry::MetricRegistry::current()
                .total("reconcile.registry_fixups")
                .value_or(0),
            fixups_before);
  const RoundReport* report = router.reconciler()->last_report(dpid());
  ASSERT_NE(report, nullptr);
  EXPECT_GE(report->registry_fixups, 1u);
}

TEST_F(ReconcileFixture, BlockPolicyCompilesToProactiveDropFlows) {
  sim::Host& host = admitted_device("console");
  policy::PolicyDocument p;
  p.id = "grounded";
  p.who.macs = {host.mac().to_string()};
  p.block_network = true;
  router.policy().install(std::move(p));
  loop.run_for(kSecond);

  // The policy change recompiled desired state and the round installed the
  // drop pair (IP-based: the console holds a lease).
  const DesiredState* state = router.desired_store()->find(dpid());
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->flows.count("policy:block:src:" + host.mac().to_string()),
            1u);
  std::size_t drops = 0;
  router.datapath().table().for_each([&](const ofp::FlowEntry& e) {
    if (nox::is_desired_cookie(e.cookie) && e.actions.empty()) ++drops;
  });
  EXPECT_GE(drops, 2u);

  // Uninstall: the next round deletes exactly the orphaned drop rows.
  router.policy().uninstall("grounded");
  loop.run_for(kSecond);
  drops = 0;
  router.datapath().table().for_each([&](const ofp::FlowEntry& e) {
    if (nox::is_desired_cookie(e.cookie) && e.actions.empty()) ++drops;
  });
  EXPECT_EQ(drops, 0u);
  EXPECT_TRUE(
      router.reconciler()->verify_converged(dpid(), router.datapath().table()));
}

TEST_F(ReconcileFixture, WarmRestartConvergesInASingleRound) {
  sim::Host& a = admitted_device("a");
  sim::Host& b = admitted_device("b");
  ASSERT_TRUE(a.ip() && b.ip());
  (void)a.send_udp(*b.ip(), 40000, 7, 64);  // reactive flows in the table
  loop.run_for(kSecond);

  (void)router.snapshots().capture();
  const double rounds_before =
      telemetry::MetricRegistry::current().total("reconcile.rounds").value_or(0);
  ASSERT_TRUE(router.warm_restart().ok());
  loop.run_for(2 * kSecond);

  // Exactly one round ran for the restart (plus nothing else pending), and
  // the restored table needed no repair.
  const double rounds_after =
      telemetry::MetricRegistry::current().total("reconcile.rounds").value_or(0);
  EXPECT_GE(rounds_after, rounds_before + 1);
  const RoundReport* report = router.reconciler()->last_report(dpid());
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->converged)
      << "warm restart restored a diverged table: +" << report->added << " ~"
      << report->modified << " -" << report->deleted;
  EXPECT_TRUE(
      router.reconciler()->verify_converged(dpid(), router.datapath().table()));

  // Traffic still flows on the restored reactive entries.
  EXPECT_TRUE(a.ping(*b.ip(), 1));
  loop.run_for(kSecond);
}

TEST_F(ReconcileFixture, ColdRestartRepairsEverythingInOneRound) {
  admitted_device("a");
  loop.run_for(kSecond);
  ASSERT_GT(router.datapath().table().size(), 0u);

  // Cold restart: the table is wiped; the rejoin round must re-add every
  // desired flow in a single delta.
  router.datapath().restart();
  loop.run_for(3 * kSecond);

  const RoundReport* report = router.reconciler()->last_report(dpid());
  ASSERT_NE(report, nullptr);
  EXPECT_GE(report->added, 4u) << "rejoin round must repopulate service flows";
  EXPECT_EQ(report->deleted, 0u);
  EXPECT_TRUE(
      router.reconciler()->verify_converged(dpid(), router.datapath().table()));
}

TEST_F(ReconcileFixture, DesiredStateSurvivesCheckpointRestore) {
  sim::Host& host = admitted_device("laptop");
  policy::PolicyDocument p;
  p.id = "grounded";
  p.who.macs = {host.mac().to_string()};
  p.block_network = true;
  router.policy().install(std::move(p));
  loop.run_for(kSecond);

  const auto names = router.snapshots().layer_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "desired"), names.end())
      << "DesiredStore must be a registered snapshot layer";

  const auto image = *router.snapshots().capture();
  router.desired_store()->state(dpid()).flows.clear();  // diverge in memory
  ASSERT_TRUE(router.snapshots().restore(image).ok());

  const DesiredState* state = router.desired_store()->find(dpid());
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->flows.count("policy:block:src:" + host.mac().to_string()),
            1u);
  const auto it = state->devices.find(host.mac().to_string());
  ASSERT_NE(it, state->devices.end());
  EXPECT_EQ(it->second.lease_ip, host.ip());
}

}  // namespace
}  // namespace hw::reconcile
