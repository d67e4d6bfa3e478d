// Chunked-TLV binary snapshot container. A snapshot is a 16-byte header
// (magic 'HWSN', format version, chunk count, payload size, CRC32 of the
// whole payload) followed by chunks: tag (fourcc), length, CRC32 of the
// chunk payload, payload bytes. The whole-payload CRC guarantees any
// single-byte corruption anywhere in the image is rejected — including
// flips inside a chunk *tag*, which per-chunk CRCs alone would silently
// treat as an unknown chunk. Unknown tags are skipped on read, so newer
// writers can add chunks without breaking older readers.
//
// Each payload byte is checksummed once per direction: the whole-payload
// CRC is derived from the 12-byte chunk headers and the chunk CRCs
// (CRC32 combination), never by hashing the payload a second time.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/addr.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace hw::snapshot {

/// IEEE 802.3 CRC32 (reflected, poly 0xEDB88320), the tcpdump/zip flavour.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Chunk tag from a 4-character mnemonic, e.g. tag("FTBL").
constexpr std::uint32_t tag(const char (&s)[5]) {
  return (static_cast<std::uint32_t>(s[0]) << 24) |
         (static_cast<std::uint32_t>(s[1]) << 16) |
         (static_cast<std::uint32_t>(s[2]) << 8) |
         static_cast<std::uint32_t>(s[3]);
}

inline constexpr std::uint32_t kMagic = tag("HWSN");
inline constexpr std::uint16_t kFormatVersion = 1;
/// Image header: magic u32, version u16, chunk count u16, payload size u32,
/// payload CRC u32.
inline constexpr std::size_t kHeaderBytes = 16;
/// Chunk framing: tag u32, length u32, payload CRC u32.
inline constexpr std::size_t kChunkHeaderBytes = 12;

/// One chunk of an image: its tag, its payload and the payload's CRC32.
struct Chunk {
  std::uint32_t tag = 0;
  Bytes payload;
  std::uint32_t crc = 0;
};

/// Length-prefixed string helpers shared by every layer codec.
void put_string(ByteWriter& w, std::string_view s);
Result<std::string> get_string(ByteReader& r);

/// Address helpers shared by the DHCP / registry layer codecs.
void put_mac(ByteWriter& w, MacAddress mac);
Result<MacAddress> get_mac(ByteReader& r);
inline void put_ip(ByteWriter& w, Ipv4Address ip) { w.u32(ip.value()); }
Result<Ipv4Address> get_ip(ByteReader& r);

/// Builds a snapshot image chunk by chunk, straight into one buffer.
/// Usage:
///   Writer w;
///   ByteWriter& c = w.begin_chunk(tag("FTBL"));
///   c.u64(...);             // chunk payload
///   w.end_chunk();
///   Bytes image = std::move(w).finish();
class Writer {
 public:
  /// `reserve`: the expected image size when known, so the image buffer is
  /// allocated once.
  explicit Writer(std::size_t reserve = 0);

  /// Starts a chunk; returns the writer the caller appends the payload to
  /// (the image buffer itself). Chunks may not nest.
  ByteWriter& begin_chunk(std::uint32_t chunk_tag);
  /// Seals the open chunk: the one CRC pass over its payload.
  void end_chunk();
  /// Appends a chunk whose payload CRC is already known — one a Reader
  /// verified — without hashing the payload again.
  void add_chunk(const Chunk& chunk);

  /// Seals the image: fills in the header. The Writer is spent afterwards.
  [[nodiscard]] Bytes finish() &&;

 private:
  /// Folds the chunk framed at chunk_start_ into payload_crc_.
  void fold_chunk(std::uint32_t crc, std::size_t len);

  ByteWriter out_;
  std::uint32_t payload_crc_ = 0;  // CRC32 of every sealed chunk so far
  std::size_t chunk_count_ = 0;
  std::size_t chunk_start_ = 0;
  bool in_chunk_ = false;
};

/// Parsed, fully validated snapshot image. parse() checks the magic, the
/// version (strictly == kFormatVersion), every length field, the whole-
/// payload CRC and every per-chunk CRC up front; a Reader therefore only
/// ever hands out verified bytes.
class Reader {
 public:
  static Result<Reader> parse(std::span<const std::uint8_t> image);

  /// Chunk payload by tag; nullptr when absent (forward compat: callers
  /// treat a missing optional chunk as "nothing to restore").
  [[nodiscard]] const Bytes* find(std::uint32_t chunk_tag) const;
  /// All chunks bearing `chunk_tag`, in image order (hwdb emits one HTBL
  /// chunk per table).
  [[nodiscard]] std::vector<const Bytes*> find_all(
      std::uint32_t chunk_tag) const;
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }
  /// Every chunk in image order, each with its verified CRC. The encoding
  /// is canonical — header fields are pure functions of the chunk sequence
  /// — so re-emitting these through Writer::add_chunk reproduces the image
  /// bit-exactly (what the residency ImageStore's content-addressed pool
  /// relies on).
  [[nodiscard]] std::span<const Chunk> chunks() const { return chunks_; }

 private:
  std::vector<Chunk> chunks_;
};

}  // namespace hw::snapshot
