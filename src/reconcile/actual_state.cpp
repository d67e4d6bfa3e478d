#include "reconcile/actual_state.hpp"

namespace hw::reconcile {

FlowDelta compute_flow_delta(const DesiredState& desired,
                             const std::vector<ActualFlow>& actual) {
  // Each row's standing: shadowed by a later row with the same identity,
  // unclaimed, or claimed by a desired flow.
  enum : std::uint8_t { kShadowed, kUnclaimed, kClaimed };
  std::vector<std::uint8_t> standing(actual.size(), kUnclaimed);
  std::unordered_map<ofp::FlowIdentity, std::size_t, ofp::FlowIdentityHash>
      by_identity;
  by_identity.reserve(actual.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    auto [it, inserted] = by_identity.try_emplace(
        ofp::FlowIdentity::of(actual[i].match, actual[i].priority), i);
    if (!inserted) {
      standing[it->second] = kShadowed;
      it->second = i;
    }
  }

  FlowDelta delta;
  for (const auto& [key, want] : desired.flows) {
    auto it = by_identity.find(ofp::FlowIdentity::of(want.match, want.priority));
    if (it == by_identity.end() || standing[it->second] == kClaimed) {
      delta.add.push_back(want);
      continue;
    }
    const ActualFlow& have = actual[it->second];
    standing[it->second] = kClaimed;
    const bool timeouts_equal = have.idle_timeout == want.idle_timeout &&
                                have.hard_timeout == want.hard_timeout;
    const bool payload_equal =
        have.actions == want.actions && have.cookie == want.cookie();
    if (timeouts_equal && payload_equal) {
      ++delta.noop;
    } else if (timeouts_equal) {
      delta.modify.push_back(want);
    } else {
      // Modify never rewrites timeouts, so replace the row outright.
      delta.del.push_back({want.match, want.priority});
      delta.add.push_back(want);
    }
  }

  // Whatever desired-owned rows remain unclaimed are stale — reap them.
  // Foreign rows (reactive flows, cookie 0) are outside our namespace.
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (standing[i] == kUnclaimed && nox::is_desired_cookie(actual[i].cookie)) {
      delta.del.push_back({actual[i].match, actual[i].priority});
    }
  }
  return delta;
}

void ActualState::refresh(const std::vector<ofp::FlowStatsEntry>& entries) {
  flows_.clear();
  index_.clear();
  flows_.reserve(entries.size());
  index_.reserve(entries.size());
  for (const auto& e : entries) {
    upsert({e.match, e.priority, e.cookie, e.actions, e.idle_timeout,
            e.hard_timeout});
  }
}

void ActualState::upsert(ActualFlow row) {
  auto [it, inserted] = index_.try_emplace(
      ofp::FlowIdentity::of(row.match, row.priority), flows_.size());
  if (inserted) {
    flows_.push_back(std::move(row));
  } else {
    flows_[it->second] = std::move(row);
  }
}

void ActualState::note_flow_removed(const ofp::Match& match,
                                    std::uint16_t priority) {
  auto it = index_.find(ofp::FlowIdentity::of(match, priority));
  if (it == index_.end()) return;
  // Swap-and-pop keeps removal O(1); the moved row's index follows it.
  const std::size_t pos = it->second;
  index_.erase(it);
  if (pos + 1 != flows_.size()) {
    flows_[pos] = std::move(flows_.back());
    index_[ofp::FlowIdentity::of(flows_[pos].match, flows_[pos].priority)] = pos;
  }
  flows_.pop_back();
}

void ActualState::apply(const FlowDelta& delta) {
  for (const Deletion& d : delta.del) note_flow_removed(d.match, d.priority);
  const auto upsert_desired = [this](const DesiredFlow& want) {
    upsert({want.match, want.priority, want.cookie(), want.actions,
            want.idle_timeout, want.hard_timeout});
  };
  for (const DesiredFlow& f : delta.add) upsert_desired(f);
  for (const DesiredFlow& f : delta.modify) upsert_desired(f);
}

}  // namespace hw::reconcile
