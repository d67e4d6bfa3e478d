// In-place header rewrites: the OpenFlow set-field actions as a kernel
// datapath applies them. Each writes its field straight into the frame's
// bytes, folds the change into every checksum that covers the field
// (RFC 1624), keeps the dissected headers in step with the bytes, and leaves
// every other byte alone, options, flags and trailers included.
//
// `frame` must be the frame `headers` was dissected from, or a copy of it. A
// rewrite of a layer the frame does not have is a no-op. A zero TCP or UDP
// checksum stays zero: UDP uses it for "no checksum", and the simulator's TCP
// sends it for "checksum elided".
#pragma once

#include <cstdint>
#include <span>

#include "net/packet.hpp"

namespace hw::net {

void set_dl_src(std::span<std::uint8_t> frame, PacketHeaders& headers,
                MacAddress mac);
void set_dl_dst(std::span<std::uint8_t> frame, PacketHeaders& headers,
                MacAddress mac);
/// IPv4 address: updates the IPv4 header checksum and the TCP/UDP checksum
/// (its pseudo-header covers both addresses).
void set_nw_src(std::span<std::uint8_t> frame, PacketHeaders& headers,
                Ipv4Address addr);
void set_nw_dst(std::span<std::uint8_t> frame, PacketHeaders& headers,
                Ipv4Address addr);
/// TCP/UDP port: updates the L4 checksum.
void set_tp_src(std::span<std::uint8_t> frame, PacketHeaders& headers,
                std::uint16_t port);
void set_tp_dst(std::span<std::uint8_t> frame, PacketHeaders& headers,
                std::uint16_t port);

}  // namespace hw::net
