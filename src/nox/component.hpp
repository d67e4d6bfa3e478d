// NOX-style component model. The paper's router runs its DHCP server, DNS
// proxy, control API and hwdb export as NOX modules; each is a Component
// receiving ordered OpenFlow events and using the Controller's send API.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "openflow/messages.hpp"

namespace hw::nox {

class Controller;

using DatapathId = std::uint64_t;

/// One flow a component wants present in a datapath's table — the unit of
/// desired state. `key` is the flow's stable identity ("dhcp:intercept",
/// "policy:block:src:<mac>", …): a bare controller's replay and the
/// reconciler both derive the flow's cookie from it, so a rule installed by
/// replay and the same rule installed by a reconcile delta are
/// byte-identical on the wire.
struct FlowIntent {
  std::string key;
  ofp::Match match;
  std::uint16_t priority = 0x8000;
  ofp::ActionList actions;
  std::uint16_t idle_timeout = 0;
  std::uint16_t hard_timeout = 0;
  std::uint16_t flags = 0;
};

/// Receives a component's flow contributions (Component::contribute_flows).
class FlowIntentSink {
 public:
  virtual ~FlowIntentSink() = default;
  virtual void add(FlowIntent intent) = 0;
};

/// Cookie namespace tag for desired-state-owned flows: the top byte marks a
/// flow as declaratively owned, so a reconciler may delete unclaimed entries
/// carrying it while leaving reactive flows (cookie 0) alone.
inline constexpr std::uint64_t kDesiredCookieTag = 0xD5;

/// Deterministic cookie for a desired flow: the namespace tag in the top
/// byte over an FNV-1a hash of the identity key. Pure function of the key —
/// identical across replay/reconcile paths, runs, and thread counts.
[[nodiscard]] constexpr std::uint64_t desired_cookie(std::string_view key) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return (kDesiredCookieTag << 56) | (h & 0x00ffffffffffffffull);
}

/// True if `cookie` lies in the desired-state namespace.
[[nodiscard]] constexpr bool is_desired_cookie(std::uint64_t cookie) {
  return (cookie >> 56) == kDesiredCookieTag;
}

/// NOX event-handler chain disposition: Continue passes the event to the
/// next component, Stop consumes it.
enum class Disposition { Continue, Stop };

/// Context handed to packet-in handlers: the raw message plus a parsed view
/// (parsed once by the controller, shared by all components).
struct PacketInEvent {
  DatapathId dpid = 0;
  const ofp::PacketIn& msg;
  const net::ParsedPacket& packet;
};

class Component {
 public:
  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;
  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Names of components that must be started before this one (NOX's
  /// dependency declaration). Resolved topologically by the Controller.
  [[nodiscard]] virtual std::vector<std::string> dependencies() const {
    return {};
  }

  /// Called once when the controller starts the component, after its
  /// dependencies have been installed. `ctl` outlives the component.
  virtual void install(Controller& ctl) { ctl_ = &ctl; }

  /// Declares the flows this component wants present in `dpid`'s table.
  /// Called by a bare controller's replay path on every (re)join and by the
  /// reconciler when it rebuilds desired state — must be a pure function of
  /// the component's current state (no sends, no mutation).
  virtual void contribute_flows(DatapathId, FlowIntentSink&) {}

  // -- Event handlers (defaults ignore the event) ---------------------------
  virtual void handle_datapath_join(DatapathId, const ofp::FeaturesReply&) {}
  virtual void handle_datapath_leave(DatapathId) {}
  virtual Disposition handle_packet_in(const PacketInEvent&) {
    return Disposition::Continue;
  }
  virtual void handle_flow_removed(DatapathId, const ofp::FlowRemoved&) {}
  virtual void handle_port_status(DatapathId, const ofp::PortStatus&) {}
  virtual void handle_error(DatapathId, const ofp::ErrorMsg&) {}

 protected:
  [[nodiscard]] Controller& controller() const { return *ctl_; }

 private:
  std::string name_;
  Controller* ctl_ = nullptr;
};

}  // namespace hw::nox
