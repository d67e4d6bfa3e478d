// RFC 1071 Internet checksum, used by IPv4/ICMP (and TCP/UDP pseudo-header).
#pragma once

#include <cstdint>
#include <span>

#include "util/addr.hpp"

namespace hw::net {

/// One's-complement sum over `data`, folded to 16 bits and complemented.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data);

/// TCP/UDP checksum including the IPv4 pseudo-header.
std::uint16_t l4_checksum(Ipv4Address src, Ipv4Address dst, std::uint8_t protocol,
                          std::span<const std::uint8_t> segment);

/// Incremental update (RFC 1624 eqn. 3): the checksum after one 16-bit word
/// of the covered data changes from `old_word` to `new_word`, computed as
/// HC' = ~(~HC + ~m + m') without re-summing the rest. Unlike the older
/// RFC 1141 form it never yields 0xFFFF (-0) where a full recompute gives 0.
std::uint16_t checksum_adjust(std::uint16_t checksum, std::uint16_t old_word,
                              std::uint16_t new_word);

}  // namespace hw::net
