// OpenFlow 1.0 flow match: the 12-tuple ofp_match with wildcard bits,
// faithful to the wire layout (40 bytes) used between OVS and NOX.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "util/addr.hpp"
#include "util/bytes.hpp"

namespace hw::ofp {

/// OFPP_* reserved port numbers (OpenFlow 1.0 §5.2.1).
enum class Port : std::uint16_t {
  Max = 0xff00,
  InPort = 0xfff8,
  Table = 0xfff9,
  Normal = 0xfffa,
  Flood = 0xfffb,
  All = 0xfffc,
  Controller = 0xfffd,
  Local = 0xfffe,
  None = 0xffff,
};

inline constexpr std::uint16_t port_no(Port p) {
  return static_cast<std::uint16_t>(p);
}

/// OFPFW_* wildcard flags.
struct Wildcards {
  static constexpr std::uint32_t kInPort = 1u << 0;
  static constexpr std::uint32_t kDlVlan = 1u << 1;
  static constexpr std::uint32_t kDlSrc = 1u << 2;
  static constexpr std::uint32_t kDlDst = 1u << 3;
  static constexpr std::uint32_t kDlType = 1u << 4;
  static constexpr std::uint32_t kNwProto = 1u << 5;
  static constexpr std::uint32_t kTpSrc = 1u << 6;
  static constexpr std::uint32_t kTpDst = 1u << 7;
  static constexpr int kNwSrcShift = 8;
  static constexpr int kNwDstShift = 14;
  static constexpr std::uint32_t kNwSrcMask = 0x3fu << kNwSrcShift;
  static constexpr std::uint32_t kNwDstMask = 0x3fu << kNwDstShift;
  static constexpr std::uint32_t kDlVlanPcp = 1u << 20;
  static constexpr std::uint32_t kNwTos = 1u << 21;
  static constexpr std::uint32_t kAll = 0x3fffff;
};

/// A flow match. Field validity is governed by the wildcard bitmap: a
/// wildcarded field matches anything. nw_src/nw_dst use the OF1.0 encoding
/// where the 6-bit count is the number of *ignored* low bits (0 = exact,
/// >=32 = fully wildcarded).
struct Match {
  std::uint32_t wildcards = Wildcards::kAll;
  std::uint16_t in_port = 0;
  MacAddress dl_src;
  MacAddress dl_dst;
  std::uint16_t dl_vlan = 0xffff;  // OFP_VLAN_NONE
  std::uint8_t dl_vlan_pcp = 0;
  std::uint16_t dl_type = 0;
  std::uint8_t nw_tos = 0;
  std::uint8_t nw_proto = 0;
  Ipv4Address nw_src;
  Ipv4Address nw_dst;
  std::uint16_t tp_src = 0;
  std::uint16_t tp_dst = 0;

  /// A match with every field wildcarded.
  static Match any() { return Match{}; }

  /// Exact match extracted from a packet as the datapath does on lookup
  /// (OpenFlow 1.0 §3.4 flow extraction).
  static Match from_packet(const net::PacketHeaders& p, std::uint16_t in_port);

  // Builder helpers (clear the corresponding wildcard bit).
  Match& with_in_port(std::uint16_t port);
  Match& with_dl_src(MacAddress mac);
  Match& with_dl_dst(MacAddress mac);
  Match& with_dl_type(std::uint16_t type);
  Match& with_nw_proto(std::uint8_t proto);
  Match& with_nw_src(Ipv4Address addr, int prefix_len = 32);
  Match& with_nw_dst(Ipv4Address addr, int prefix_len = 32);
  Match& with_tp_src(std::uint16_t port);
  Match& with_tp_dst(std::uint16_t port);

  /// Number of low bits ignored for nw_src comparisons (>=32: ignore all).
  [[nodiscard]] int nw_src_ignored_bits() const {
    return static_cast<int>((wildcards & Wildcards::kNwSrcMask) >>
                            Wildcards::kNwSrcShift);
  }
  [[nodiscard]] int nw_dst_ignored_bits() const {
    return static_cast<int>((wildcards & Wildcards::kNwDstMask) >>
                            Wildcards::kNwDstShift);
  }

  /// True if a packet with exact-match fields `pkt` matches this rule.
  [[nodiscard]] bool covers(const Match& pkt) const;

  /// True if this match is fully exact (no wildcarded fields).
  [[nodiscard]] bool is_exact() const { return wildcards == 0; }

  /// Strict-equality comparison used by OFPFC_MODIFY_STRICT/DELETE_STRICT:
  /// identical wildcard bitmap and identical masked 12-tuple (every
  /// non-wildcarded field, vlan PCP and IP ToS included).
  [[nodiscard]] bool same_pattern(const Match& other) const;

  /// True if some packet could match both patterns (OFPFF_CHECK_OVERLAP):
  /// every field is wildcarded in at least one of the two, or agrees.
  [[nodiscard]] bool overlaps(const Match& other) const;

  void serialize(ByteWriter& w) const;
  static Result<Match> parse(ByteReader& r);

  [[nodiscard]] std::string to_string() const;
};

inline constexpr std::size_t kMatchWireSize = 40;

}  // namespace hw::ofp
