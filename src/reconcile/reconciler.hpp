// The reconciler: a NOX component that converges each datapath's flow table
// and controller-side state onto the DesiredStore's goal state. A round is
// rebuild (component contributions + compiled policy) → state fixups →
// flow-stats readback → minimal idempotent delta → barrier confirmation.
// It is the one recovery path of every HomeworkRouter and shared-fleet shard:
// recovery from any divergence costs one round and only the FlowMods that
// divergence actually requires.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "nox/component.hpp"
#include "openflow/flow_table.hpp"
#include "policy/engine.hpp"
#include "reconcile/actual_state.hpp"
#include "reconcile/desired_state.hpp"
#include "telemetry/metrics.hpp"

namespace hw::reconcile {

/// What one reconcile round did (per dpid; exposed for tests/observability).
struct RoundReport {
  std::uint64_t round = 0;  // reconcile.rounds value when this round ran
  std::size_t added = 0;
  std::size_t modified = 0;
  std::size_t deleted = 0;
  std::size_t noop = 0;
  std::size_t registry_fixups = 0;
  std::size_t lease_fixups = 0;
  std::size_t qos_applied = 0;
  /// True when the readback already matched desired state (zero delta).
  bool converged = false;
};

class Reconciler final : public nox::Component {
 public:
  static constexpr const char* kName = "reconciler";

  /// Controller-side state fixups, injected by the router wiring (the
  /// reconcile library must not depend on the homework modules). Each hook
  /// heals one divergence class and returns true if it changed anything.
  struct Hooks {
    /// Registry state vs DeviceIntent::admission.
    std::function<bool(nox::DatapathId, const std::string& mac,
                       DeviceIntent::Admission)>
        apply_admission;
    /// DHCP scope + registry lease vs DeviceIntent::lease_ip.
    std::function<bool(nox::DatapathId, const std::string& mac, Ipv4Address ip)>
        adopt_lease;
    /// Port-queue configuration vs the lowered rate cap.
    std::function<bool(nox::DatapathId, const std::string& mac,
                       std::uint64_t rate_bps)>
        apply_qos;
  };

  explicit Reconciler(DesiredStore& store,
                      telemetry::MetricRegistry& metrics =
                          telemetry::MetricRegistry::current());

  [[nodiscard]] DesiredStore& store() { return store_; }
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Binds the policy engine: desired state gains a compiled-policy layer
  /// (drop flows + QoS intents lowered over the device population) and any
  /// policy change schedules a round on every known datapath.
  void bind_policy(policy::PolicyEngine& engine);

  /// Schedules a reconcile round for `dpid`. Rounds in flight coalesce:
  /// requests arriving mid-round mark the state dirty and one follow-up
  /// round runs after the barrier. `resync` marks the round as serving a
  /// channel re-sync: the in-flight round (if any) is abandoned — its stats
  /// replies may never arrive across a restart — and the new round ends in
  /// Controller::confirm_resync.
  void request_round(nox::DatapathId dpid, bool resync = false);

  /// Synchronous convergence check against a live table (tests / fleet
  /// post-run verification): rebuilds desired state and diffs it against
  /// `table` without touching the datapath.
  [[nodiscard]] bool verify_converged(nox::DatapathId dpid,
                                      const ofp::FlowTable& table);

  [[nodiscard]] const RoundReport* last_report(nox::DatapathId dpid) const;

  // -- Component ---------------------------------------------------------------
  /// Also claims the controller's resync hook: from then on every datapath
  /// (re)join runs a reconcile round instead of a flow-setup replay.
  void install(nox::Controller& ctl) override;
  void handle_datapath_leave(nox::DatapathId dpid) override;
  void handle_flow_removed(nox::DatapathId dpid,
                           const ofp::FlowRemoved& fr) override;

 private:
  struct PerDatapath {
    ActualState actual;
    bool in_flight = false;
    bool dirty = false;
    bool dirty_resync = false;
    bool resync_origin = false;
    /// Bumped on force-resets; stats/barrier callbacks from an abandoned
    /// round carry a stale generation and are dropped.
    std::uint64_t generation = 0;
    RoundReport report;
    RoundReport last;
    bool has_last = false;
    std::chrono::steady_clock::time_point started{};
  };

  void start_round(nox::DatapathId dpid, PerDatapath& dp);
  /// Recomputes `dpid`'s desired flows: component contributions overlaid
  /// with the compiled policy layer; device rate caps are re-lowered.
  void rebuild_desired(nox::DatapathId dpid);
  void apply_state_fixups(nox::DatapathId dpid, RoundReport& report);
  void on_stats(nox::DatapathId dpid, std::uint64_t generation,
                const std::vector<ofp::FlowStatsEntry>& entries);
  void finish_round(nox::DatapathId dpid, std::uint64_t generation);

  DesiredStore& store_;
  policy::PolicyEngine* policy_ = nullptr;
  bool installed_ = false;
  Hooks hooks_;
  std::map<nox::DatapathId, PerDatapath> per_dp_;

  struct Instruments {
    explicit Instruments(telemetry::MetricRegistry& reg)
        : rounds{reg, "reconcile.rounds"},
          converged_rounds{reg, "reconcile.converged_rounds"},
          deltas_added{reg, "reconcile.deltas_added"},
          deltas_modified{reg, "reconcile.deltas_modified"},
          deltas_deleted{reg, "reconcile.deltas_deleted"},
          deltas_noop{reg, "reconcile.deltas_noop"},
          registry_fixups{reg, "reconcile.registry_fixups"},
          lease_fixups{reg, "reconcile.lease_fixups"},
          qos_applied{reg, "reconcile.qos_applied"},
          round_ns{reg, "reconcile.round_ns"} {}
    telemetry::Counter rounds;
    telemetry::Counter converged_rounds;
    telemetry::Counter deltas_added;
    telemetry::Counter deltas_modified;
    telemetry::Counter deltas_deleted;
    telemetry::Counter deltas_noop;
    telemetry::Counter registry_fixups;
    telemetry::Counter lease_fixups;
    telemetry::Counter qos_applied;
    telemetry::Histogram round_ns;
  } metrics_;
};

/// Builds the compiled-policy flows for one lowered statement. Exposed for
/// tests; the reconciler calls it per BlockNetwork statement.
std::vector<DesiredFlow> compile_block_flows(const policy::LoweredStatement& s);

}  // namespace hw::reconcile
