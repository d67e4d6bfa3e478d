#include "residency/image_store.hpp"

#include <cstdio>
#include <optional>

#include "snapshot/codec.hpp"

namespace hw::residency {
namespace {

/// Container framing (12 bytes per chunk) is attributed to the first pooled
/// copy of a chunk so an image with no shared chunks accounts for exactly
/// its encoded size — deduped_bytes() is then zero unless pooling actually
/// shared something.
constexpr std::uint64_t kChunkOverhead = snapshot::kChunkHeaderBytes;

/// Re-emits verified chunks with their known CRCs into an image of about
/// `image_bytes`; with `restamp`, every FTAG chunk carries that tag instead.
Result<Bytes> encode(const std::vector<const snapshot::Chunk*>& chunks,
                     std::size_t image_bytes,
                     const snapshot::CaptureTag* restamp) {
  snapshot::Writer w(image_bytes);
  bool stamped = false;
  for (const snapshot::Chunk* c : chunks) {
    if (restamp != nullptr && c->tag == snapshot::kCaptureTagChunk) {
      snapshot::put_capture_tag(w, *restamp);
      stamped = true;
    } else {
      w.add_chunk(*c);
    }
  }
  if (restamp != nullptr && !stamped) {
    return make_error("residency: no FTAG chunk to restamp");
  }
  return std::move(w).finish();
}

}  // namespace

ImageStore::ImageStore(telemetry::MetricRegistry& metrics)
    : ImageStore(Config{}, metrics) {}

ImageStore::ImageStore(Config config, telemetry::MetricRegistry& metrics)
    : config_(std::move(config)), metrics_(metrics) {}

ImageStore::~ImageStore() = default;

Status ImageStore::put(std::uint64_t key,
                       const snapshot::SnapshotImage& image) {
  auto reader = snapshot::Reader::parse(image.bytes);
  if (!reader) return reader.error();

  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    release_chunks_locked(it->second);
    if (it->second.spilled) (void)std::remove(spill_path(key).c_str());
    entries_.erase(it);
  }

  Entry entry;
  entry.captured_at = image.captured_at;
  entry.image_bytes = image.bytes.size();
  for (const snapshot::Chunk& c : reader.value().chunks()) {
    const PoolKey pkey{c.tag, c.crc,
                       static_cast<std::uint32_t>(c.payload.size())};
    auto& bucket = pool_[pkey];
    PoolChunk* found = nullptr;
    if (config_.dedup) {
      for (auto& candidate : bucket) {
        if (candidate->chunk.payload == c.payload) {
          found = candidate.get();
          break;
        }
      }
    }
    if (found == nullptr) {
      bucket.push_back(std::make_unique<PoolChunk>());
      found = bucket.back().get();
      found->chunk = c;
      stored_bytes_ += kChunkOverhead + c.payload.size();
    }
    ++found->refs;
    entry.chunks.push_back(found);
  }
  logical_bytes_ += entry.image_bytes;
  stored_bytes_ += snapshot::kHeaderBytes;
  entries_.emplace(key, std::move(entry));
  refresh_gauges_locked();
  return Status::success();
}

Result<snapshot::SnapshotImage> ImageStore::get(
    std::uint64_t key, const snapshot::CaptureTag* restamp) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return make_error("residency: no image for key " + std::to_string(key));
  }
  std::vector<const snapshot::Chunk*> chunks;
  std::optional<snapshot::Reader> spilled;
  if (it->second.spilled) {
    auto image = snapshot::SnapshotCoordinator::read_file(spill_path(key));
    if (!image || restamp == nullptr) return image;
    auto reader = snapshot::Reader::parse(image.value().bytes);
    if (!reader) return reader.error();
    spilled = std::move(reader.value());
    for (const snapshot::Chunk& c : spilled->chunks()) chunks.push_back(&c);
  } else {
    for (const PoolChunk* c : it->second.chunks) chunks.push_back(&c->chunk);
  }
  auto bytes = encode(chunks, it->second.image_bytes, restamp);
  if (!bytes) return bytes.error();
  return snapshot::SnapshotImage{std::move(bytes.value()),
                                 it->second.captured_at};
}

bool ImageStore::contains(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

void ImageStore::erase(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  release_chunks_locked(it->second);
  if (it->second.spilled) (void)std::remove(spill_path(key).c_str());
  entries_.erase(it);
  refresh_gauges_locked();
}

Status ImageStore::spill(std::uint64_t key) {
  if (config_.spill_dir.empty()) {
    return make_error("residency: image store has no spill_dir");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return make_error("residency: no image for key " + std::to_string(key));
  }
  if (it->second.spilled) return Status::success();
  std::vector<const snapshot::Chunk*> chunks;
  for (const PoolChunk* c : it->second.chunks) chunks.push_back(&c->chunk);
  auto bytes = encode(chunks, it->second.image_bytes, nullptr);
  if (!bytes) return bytes.error();
  const snapshot::SnapshotImage image{std::move(bytes.value()),
                                      it->second.captured_at};
  if (auto s = snapshot::SnapshotCoordinator::write_file(spill_path(key),
                                                         image);
      !s.ok()) {
    return s;
  }
  release_chunks_locked(it->second);
  it->second.spilled = true;
  refresh_gauges_locked();
  return Status::success();
}

std::size_t ImageStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t ImageStore::logical_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return logical_bytes_;
}

std::uint64_t ImageStore::stored_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stored_bytes_;
}

std::uint64_t ImageStore::deduped_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return logical_bytes_ > stored_bytes_ ? logical_bytes_ - stored_bytes_ : 0;
}

void ImageStore::release_chunks_locked(Entry& entry) {
  if (entry.spilled) return;  // chunks already released at spill time
  for (PoolChunk* pooled : entry.chunks) {
    if (--pooled->refs > 0) continue;
    const snapshot::Chunk& chunk = pooled->chunk;
    const PoolKey pkey{chunk.tag, chunk.crc,
                       static_cast<std::uint32_t>(chunk.payload.size())};
    auto pit = pool_.find(pkey);
    if (pit == pool_.end()) continue;
    stored_bytes_ -= kChunkOverhead + chunk.payload.size();
    auto& bucket = pit->second;
    for (auto bit = bucket.begin(); bit != bucket.end(); ++bit) {
      if (bit->get() == pooled) {
        bucket.erase(bit);
        break;
      }
    }
    if (bucket.empty()) pool_.erase(pit);
  }
  logical_bytes_ -= entry.image_bytes;
  stored_bytes_ -= snapshot::kHeaderBytes;
  entry.chunks.clear();
}

void ImageStore::refresh_gauges_locked() {
  metrics_.images.set(static_cast<std::int64_t>(entries_.size()));
  metrics_.image_bytes.set(static_cast<std::int64_t>(stored_bytes_));
  metrics_.image_bytes_logical.set(static_cast<std::int64_t>(logical_bytes_));
  metrics_.image_bytes_deduped.set(static_cast<std::int64_t>(
      logical_bytes_ > stored_bytes_ ? logical_bytes_ - stored_bytes_ : 0));
  metrics_.fleet_image_bytes.set(static_cast<std::int64_t>(stored_bytes_));
}

std::string ImageStore::spill_path(std::uint64_t key) const {
  return config_.spill_dir + "/img-" + std::to_string(key) + ".hwsn";
}

}  // namespace hw::residency
