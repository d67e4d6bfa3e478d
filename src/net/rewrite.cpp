#include "net/rewrite.hpp"

#include <algorithm>

#include "net/checksum.hpp"

namespace hw::net {
namespace {

// Byte offsets inside the IPv4 header.
constexpr std::size_t kIpChecksum = 10;
constexpr std::size_t kIpSrc = 12;
constexpr std::size_t kIpDst = 16;
// Byte offsets inside the TCP/UDP header.
constexpr std::size_t kL4SrcPort = 0;
constexpr std::size_t kL4DstPort = 2;
constexpr std::size_t kUdpChecksum = 6;
constexpr std::size_t kTcpChecksum = 16;

std::uint16_t load16(std::span<const std::uint8_t> f, std::size_t off) {
  return static_cast<std::uint16_t>((f[off] << 8) | f[off + 1]);
}

void store16(std::span<std::uint8_t> f, std::size_t off, std::uint16_t v) {
  f[off] = static_cast<std::uint8_t>(v >> 8);
  f[off + 1] = static_cast<std::uint8_t>(v);
}

void store32(std::span<std::uint8_t> f, std::size_t off, std::uint32_t v) {
  store16(f, off, static_cast<std::uint16_t>(v >> 16));
  store16(f, off + 2, static_cast<std::uint16_t>(v));
}

/// A 32-bit field (an IPv4 address) is two adjacent checksummed words.
std::uint16_t adjust32(std::uint16_t sum, std::uint32_t old_value,
                       std::uint32_t new_value) {
  sum = checksum_adjust(sum, static_cast<std::uint16_t>(old_value >> 16),
                        static_cast<std::uint16_t>(new_value >> 16));
  return checksum_adjust(sum, static_cast<std::uint16_t>(old_value),
                         static_cast<std::uint16_t>(new_value));
}

bool same_frame(std::span<const std::uint8_t> frame, const PacketHeaders& h) {
  return frame.size() == h.frame_size;
}

bool has_l4(std::span<const std::uint8_t> frame, const PacketHeaders& h) {
  return (h.udp || h.tcp) && same_frame(frame, h);
}

/// Folds a change of covered data into the TCP/UDP checksum, if it has one.
template <typename Adjust>
void adjust_l4_checksum(std::span<std::uint8_t> frame, const PacketHeaders& h,
                        Adjust adjust) {
  if (!has_l4(frame, h)) return;
  const std::size_t off = h.l4_offset + (h.udp ? kUdpChecksum : kTcpChecksum);
  const std::uint16_t sum = load16(frame, off);
  if (sum == 0) return;  // UDP: none; simulator TCP: elided
  std::uint16_t updated = adjust(sum);
  // RFC 768: a UDP checksum that computes to zero is sent as all ones.
  if (updated == 0 && h.udp) updated = 0xffff;
  store16(frame, off, updated);
}

void write_mac(std::span<std::uint8_t> frame, std::size_t off, MacAddress mac) {
  std::copy(mac.octets().begin(), mac.octets().end(), frame.begin() + off);
}

std::uint16_t& port_field(PacketHeaders& h, std::size_t field) {
  if (h.udp) return field == kL4SrcPort ? h.udp->src_port : h.udp->dst_port;
  return field == kL4SrcPort ? h.tcp->src_port : h.tcp->dst_port;
}

void set_ip(std::span<std::uint8_t> frame, PacketHeaders& h, std::size_t field,
            Ipv4Address& current, Ipv4Address addr) {
  if (!same_frame(frame, h)) return;
  const std::uint32_t old_value = current.value();
  const std::uint32_t new_value = addr.value();
  const std::size_t ip = kEthernetHeaderSize;
  store32(frame, ip + field, new_value);
  store16(frame, ip + kIpChecksum,
          adjust32(load16(frame, ip + kIpChecksum), old_value, new_value));
  adjust_l4_checksum(frame, h, [&](std::uint16_t sum) {
    return adjust32(sum, old_value, new_value);
  });
  current = addr;
}

void set_port(std::span<std::uint8_t> frame, PacketHeaders& h, std::size_t field,
              std::uint16_t port) {
  if (!has_l4(frame, h)) return;
  std::uint16_t& current = port_field(h, field);
  const std::uint16_t old_port = current;
  store16(frame, h.l4_offset + field, port);
  adjust_l4_checksum(frame, h, [&](std::uint16_t sum) {
    return checksum_adjust(sum, old_port, port);
  });
  current = port;
}

}  // namespace

void set_dl_src(std::span<std::uint8_t> frame, PacketHeaders& headers,
                MacAddress mac) {
  if (!same_frame(frame, headers)) return;
  write_mac(frame, 6, mac);
  headers.eth.src = mac;
}

void set_dl_dst(std::span<std::uint8_t> frame, PacketHeaders& headers,
                MacAddress mac) {
  if (!same_frame(frame, headers)) return;
  write_mac(frame, 0, mac);
  headers.eth.dst = mac;
}

void set_nw_src(std::span<std::uint8_t> frame, PacketHeaders& headers,
                Ipv4Address addr) {
  if (headers.ip) set_ip(frame, headers, kIpSrc, headers.ip->src, addr);
}

void set_nw_dst(std::span<std::uint8_t> frame, PacketHeaders& headers,
                Ipv4Address addr) {
  if (headers.ip) set_ip(frame, headers, kIpDst, headers.ip->dst, addr);
}

void set_tp_src(std::span<std::uint8_t> frame, PacketHeaders& headers,
                std::uint16_t port) {
  set_port(frame, headers, kL4SrcPort, port);
}

void set_tp_dst(std::span<std::uint8_t> frame, PacketHeaders& headers,
                std::uint16_t port) {
  set_port(frame, headers, kL4DstPort, port);
}

}  // namespace hw::net
