// The controller-side mirror of what one datapath's flow table actually
// holds, refreshed from flow-stats readback and kept warm between rounds by
// FLOW_REMOVED notifications and optimistic delta application. The delta
// computation against a DesiredState lives here too — it is a pure function
// so the property tests can hammer it without a datapath.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "openflow/flow_key.hpp"
#include "openflow/messages.hpp"
#include "reconcile/desired_state.hpp"

namespace hw::reconcile {

/// One row of the mirrored table (the reconciler-relevant subset of
/// FlowStatsEntry).
struct ActualFlow {
  ofp::Match match;
  std::uint16_t priority = 0x8000;
  std::uint64_t cookie = 0;
  ofp::ActionList actions;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  bool operator==(const ActualFlow& o) const {
    return match.same_pattern(o.match) && priority == o.priority &&
           cookie == o.cookie && actions == o.actions &&
           idle_timeout == o.idle_timeout && hard_timeout == o.hard_timeout;
  }
};

/// A strict delete (identity = exact match pattern + priority).
struct Deletion {
  ofp::Match match;
  std::uint16_t priority = 0;
};

/// The minimal idempotent delta that moves an actual table to the desired
/// one. Applying it and recomputing must yield an empty delta.
struct FlowDelta {
  std::vector<DesiredFlow> add;
  /// Existing rows whose actions/cookie drifted but whose timeouts agree —
  /// healed in place with OFPFC_MODIFY_STRICT.
  std::vector<DesiredFlow> modify;
  /// Desired-owned rows (cookie tag 0xD5) with no claiming desired flow.
  std::vector<Deletion> del;
  /// Rows already exactly as desired.
  std::size_t noop = 0;

  [[nodiscard]] bool empty() const {
    return add.empty() && modify.empty() && del.empty();
  }
  [[nodiscard]] std::size_t mods() const {
    return add.size() + modify.size() + del.size();
  }
};

/// Computes the delta from `actual` to `desired`. Rules:
///  - identity is ofp::FlowIdentity (match pattern, priority); rows are
///    matched strictly;
///  - a matched row equal in actions, cookie and both timeouts is a noop;
///  - a matched row differing only in actions/cookie is a ModifyStrict
///    (FlowTable's Modify semantics update actions+cookie but never
///    timeouts, so modifying is only sound when timeouts already agree);
///  - a matched row with different timeouts is DeleteStrict + Add;
///  - an unmatched desired flow is an Add;
///  - an unmatched actual row carrying the desired-state cookie tag is a
///    DeleteStrict — but reactive flows (foreign cookies, incl. 0) are never
///    touched: the reconciler owns only its own namespace.
/// Deletions of stale rows follow `actual`'s row order, so the wire order is
/// deterministic. A table never holds two rows with one identity; should
/// `actual` do so, the last one stands for the identity.
[[nodiscard]] FlowDelta compute_flow_delta(const DesiredState& desired,
                                           const std::vector<ActualFlow>& actual);

/// Mirror of one datapath's table between stats refreshes, indexed by
/// ofp::FlowIdentity so a removal or an upsert costs one hash lookup.
class ActualState {
 public:
  /// Replaces the mirror with a flow-stats readback (rows in readback order;
  /// a repeated identity keeps its last row).
  void refresh(const std::vector<ofp::FlowStatsEntry>& entries);
  /// Drops the row named by a FLOW_REMOVED (timeout/eviction between rounds).
  void note_flow_removed(const ofp::Match& match, std::uint16_t priority);
  /// Optimistically applies a delta we just sent (barrier-confirmed), so the
  /// mirror stays warm without another readback.
  void apply(const FlowDelta& delta);

  [[nodiscard]] const std::vector<ActualFlow>& flows() const { return flows_; }

 private:
  /// Inserts `row`, or overwrites the row with its identity in place.
  void upsert(ActualFlow row);

  std::vector<ActualFlow> flows_;
  /// Identity -> position in flows_.
  std::unordered_map<ofp::FlowIdentity, std::size_t, ofp::FlowIdentityHash>
      index_;
};

}  // namespace hw::reconcile
