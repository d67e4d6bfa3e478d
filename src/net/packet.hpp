// Whole-frame construction and dissection. Frames travel through the system
// as raw bytes (as on a real wire). PacketHeaders is the copy-free dissection
// the datapath runs once per frame; ParsedPacket adds an owned copy of the L4
// payload for the NOX modules, hosts and tests that keep a packet around.
#pragma once

#include <optional>
#include <string>

#include "net/arp.hpp"
#include "net/ethernet.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "util/bytes.hpp"

namespace hw::net {

/// Classic 5-tuple identifying a flow (the rows of hwdb's Flows table).
struct FiveTuple {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint8_t protocol = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;

  auto operator<=>(const FiveTuple&) const = default;
  [[nodiscard]] FiveTuple reversed() const {
    return {dst_ip, src_ip, protocol, dst_port, src_port};
  }
  [[nodiscard]] std::string to_string() const;
};

/// Dissected headers of one frame, and where its layers sit in it. Parsing
/// copies no frame bytes and keeps no pointer into the frame, so the headers
/// outlive it; the offsets only describe the frame they came from (or a copy
/// of it). This is the datapath's per-frame dissection.
struct PacketHeaders {
  EthernetHeader eth;
  std::optional<ArpMessage> arp;
  std::optional<Ipv4Header> ip;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  std::optional<IcmpHeader> icmp;
  std::size_t frame_size = 0;
  /// Start of the L4 header (IPv4 frames only: just past the IPv4 options).
  std::size_t l4_offset = 0;
  /// UDP data / TCP segment data: where it starts and how long it is.
  std::size_t payload_offset = 0;
  std::size_t payload_size = 0;

  /// Dissects as deep as the frame allows; the Ethernet layer must parse or
  /// an error is returned. Unknown ethertypes/protocols keep outer layers.
  static Result<PacketHeaders> parse(std::span<const std::uint8_t> frame);

  /// The L4 payload inside `frame`, which must be the dissected frame.
  [[nodiscard]] std::span<const std::uint8_t> payload(
      std::span<const std::uint8_t> frame) const {
    return frame.subspan(payload_offset, payload_size);
  }

  [[nodiscard]] bool is_ipv4() const { return ip.has_value(); }
  [[nodiscard]] std::optional<FiveTuple> five_tuple() const;
  /// True for UDP src/dst port 67/68 BOOTP traffic.
  [[nodiscard]] bool is_dhcp() const;
  /// True for UDP port 53 traffic.
  [[nodiscard]] bool is_dns() const;
};

/// Dissected frame that owns its L4 payload, for consumers that keep the
/// packet after the frame is gone (controller events, hosts, tests).
struct ParsedPacket : PacketHeaders {
  /// L4 payload (UDP data / TCP segment data), copied out of the frame.
  Bytes l4_payload;

  /// PacketHeaders::parse plus a copy of the payload.
  static Result<ParsedPacket> parse(std::span<const std::uint8_t> frame);
};

/// Frame builders used by simulated hosts and by the router's packet-outs.
Bytes build_ethernet(MacAddress src, MacAddress dst, EtherType type,
                     std::span<const std::uint8_t> payload);
Bytes build_arp(const ArpMessage& arp);
Bytes build_udp(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                Ipv4Address dst_ip, std::uint16_t src_port, std::uint16_t dst_port,
                std::span<const std::uint8_t> payload, std::uint8_t ttl = 64);
Bytes build_tcp(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                Ipv4Address dst_ip, const TcpHeader& tcp,
                std::span<const std::uint8_t> payload);
Bytes build_icmp_echo(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                      Ipv4Address dst_ip, IcmpType type, std::uint16_t ident,
                      std::uint16_t seq);

/// DHCP frames are UDP broadcasts until the client has an address.
Bytes build_dhcp_frame(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                       Ipv4Address dst_ip, bool from_client,
                       std::span<const std::uint8_t> dhcp_payload);

}  // namespace hw::net

template <>
struct std::hash<hw::net::FiveTuple> {
  std::size_t operator()(const hw::net::FiveTuple& t) const noexcept {
    std::uint64_t h = t.src_ip.value();
    h = h * 0x100000001b3ull ^ t.dst_ip.value();
    h = h * 0x100000001b3ull ^ t.protocol;
    h = h * 0x100000001b3ull ^ (static_cast<std::uint32_t>(t.src_port) << 16 | t.dst_port);
    return static_cast<std::size_t>(h);
  }
};
