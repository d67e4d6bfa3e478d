#include "snapshot/codec.hpp"

#include <zlib.h>

#include <algorithm>
#include <array>
#include <cassert>

namespace hw::snapshot {
namespace {

/// CRC32 of `crc`'s bytes followed by `len` bytes whose CRC32 is `next`.
std::uint32_t crc32_append(std::uint32_t crc, std::uint32_t next,
                           std::size_t len) {
  return static_cast<std::uint32_t>(
      ::crc32_combine(crc, next, static_cast<z_off_t>(len)));
}

/// CRC32 of `crc`'s bytes followed by the chunk header at `header`.
std::uint32_t crc32_header(std::uint32_t crc, const std::uint8_t* header) {
  return static_cast<std::uint32_t>(::crc32_z(crc, header, kChunkHeaderBytes));
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  return static_cast<std::uint32_t>(::crc32_z(0, data.data(), data.size()));
}

void put_string(ByteWriter& w, std::string_view s) {
  w.u32(static_cast<std::uint32_t>(s.size()));
  w.raw(s.data(), s.size());
}

Result<std::string> get_string(ByteReader& r) {
  auto len = r.u32();
  if (!len) return len.error();
  auto bytes = r.raw(len.value());
  if (!bytes) return bytes.error();
  return std::string(bytes.value().begin(), bytes.value().end());
}

void put_mac(ByteWriter& w, MacAddress mac) { w.raw(mac.octets()); }

Result<MacAddress> get_mac(ByteReader& r) {
  auto raw = r.view(6);
  if (!raw) return raw.error();
  std::array<std::uint8_t, 6> octets{};
  std::memcpy(octets.data(), raw.value().data(), 6);
  return MacAddress{octets};
}

Result<Ipv4Address> get_ip(ByteReader& r) {
  auto v = r.u32();
  if (!v) return v.error();
  return Ipv4Address{v.value()};
}

Writer::Writer(std::size_t reserve)
    : out_(std::max(reserve, kHeaderBytes)) {
  out_.zeros(kHeaderBytes);  // filled in by finish()
}

ByteWriter& Writer::begin_chunk(std::uint32_t chunk_tag) {
  assert(!in_chunk_ && "snapshot chunks may not nest");
  in_chunk_ = true;
  chunk_start_ = out_.size();
  out_.u32(chunk_tag);
  out_.zeros(8);  // length and CRC, filled in by end_chunk()
  return out_;
}

void Writer::end_chunk() {
  assert(in_chunk_ && "end_chunk without begin_chunk");
  in_chunk_ = false;
  const auto payload = std::span<const std::uint8_t>(out_.bytes())
                           .subspan(chunk_start_ + kChunkHeaderBytes);
  const std::uint32_t crc = crc32(payload);
  out_.patch_u32(chunk_start_ + 4, static_cast<std::uint32_t>(payload.size()));
  out_.patch_u32(chunk_start_ + 8, crc);
  fold_chunk(crc, payload.size());
}

void Writer::add_chunk(const Chunk& chunk) {
  assert(!in_chunk_ && "add_chunk with an open chunk");
  chunk_start_ = out_.size();
  out_.u32(chunk.tag);
  out_.u32(static_cast<std::uint32_t>(chunk.payload.size()));
  out_.u32(chunk.crc);
  out_.raw(chunk.payload);
  fold_chunk(chunk.crc, chunk.payload.size());
}

void Writer::fold_chunk(std::uint32_t crc, std::size_t len) {
  payload_crc_ = crc32_header(payload_crc_, out_.bytes().data() + chunk_start_);
  payload_crc_ = crc32_append(payload_crc_, crc, len);
  ++chunk_count_;
}

Bytes Writer::finish() && {
  assert(!in_chunk_ && "finish with an open chunk");
  out_.patch_u32(0, kMagic);
  out_.patch_u16(4, kFormatVersion);
  out_.patch_u16(6, static_cast<std::uint16_t>(chunk_count_));
  out_.patch_u32(8, static_cast<std::uint32_t>(out_.size() - kHeaderBytes));
  out_.patch_u32(12, payload_crc_);
  Bytes image = std::move(out_).take();
  image.shrink_to_fit();  // checkpoints keep their images: hold no slack
  return image;
}

Result<Reader> Reader::parse(std::span<const std::uint8_t> image) {
  ByteReader r(image);
  auto magic = r.u32();
  if (!magic || magic.value() != kMagic) {
    return make_error("snapshot: bad magic");
  }
  auto version = r.u16();
  if (!version || version.value() != kFormatVersion) {
    return make_error("snapshot: unsupported format version");
  }
  auto chunk_count = r.u16();
  auto payload_size = r.u32();
  auto payload_crc = r.u32();
  if (!chunk_count || !payload_size || !payload_crc) {
    return make_error("snapshot: truncated header");
  }
  if (payload_size.value() != r.remaining()) {
    return make_error("snapshot: payload size mismatch");
  }
  auto body = r.view(payload_size.value());
  if (!body) return make_error("snapshot: truncated payload");

  // One CRC pass per chunk payload; the whole-payload CRC is derived from
  // the chunk headers and the verified chunk CRCs.
  Reader out;
  std::uint32_t derived = 0;
  ByteReader chunks(body.value());
  for (std::uint16_t i = 0; i < chunk_count.value(); ++i) {
    const std::uint8_t* header = body.value().data() + chunks.position();
    auto chunk_tag = chunks.u32();
    auto len = chunks.u32();
    auto crc = chunks.u32();
    if (!chunk_tag || !len || !crc) {
      return make_error("snapshot: truncated chunk header");
    }
    auto chunk_payload = chunks.view(len.value());
    if (!chunk_payload) return make_error("snapshot: truncated chunk payload");
    if (crc32(chunk_payload.value()) != crc.value()) {
      return make_error("snapshot: chunk checksum mismatch");
    }
    derived = crc32_header(derived, header);
    derived = crc32_append(derived, crc.value(), len.value());
    out.chunks_.push_back(Chunk{
        chunk_tag.value(),
        Bytes(chunk_payload.value().begin(), chunk_payload.value().end()),
        crc.value()});
  }
  if (!chunks.empty()) {
    return make_error("snapshot: trailing bytes after last chunk");
  }
  if (derived != payload_crc.value()) {
    return make_error("snapshot: payload checksum mismatch");
  }
  return out;
}

const Bytes* Reader::find(std::uint32_t chunk_tag) const {
  for (const Chunk& c : chunks_) {
    if (c.tag == chunk_tag) return &c.payload;
  }
  return nullptr;
}

std::vector<const Bytes*> Reader::find_all(std::uint32_t chunk_tag) const {
  std::vector<const Bytes*> out;
  for (const Chunk& c : chunks_) {
    if (c.tag == chunk_tag) out.push_back(&c.payload);
  }
  return out;
}

}  // namespace hw::snapshot
