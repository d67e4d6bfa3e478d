// Checkpoint/restore suite: the chunked-TLV codec's validation surface
// (every truncation, every single-byte flip), the coordinator's layer walk
// over a live home (capture → restore into a freshly booted router), warm
// restart refilling the datapath flow table from the last image, the
// crash-restart-restore fault, and atomic file persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "homework/router.hpp"
#include "sim/fault_injector.hpp"
#include "snapshot/codec.hpp"
#include "snapshot/coordinator.hpp"
#include "telemetry/metrics.hpp"

namespace hw::snapshot {
namespace {

// ---------------------------------------------------------------------------
// Codec

TEST(SnapshotCodec, RoundTripMultiChunk) {
  Writer w;
  ByteWriter& a = w.begin_chunk(tag("AAAA"));
  a.u64(7);
  a.u32(9);
  w.end_chunk();
  ByteWriter& b = w.begin_chunk(tag("BBBB"));
  put_string(b, "hello");
  put_mac(b, MacAddress::from_index(42));
  put_ip(b, Ipv4Address{192, 168, 1, 5});
  w.end_chunk();
  w.begin_chunk(tag("AAAA")).u64(8);  // repeated tag, image order kept
  w.end_chunk();
  const Bytes image = std::move(w).finish();

  auto r = Reader::parse(image);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(r.value().chunk_count(), 3u);

  const Bytes* bb = r.value().find(tag("BBBB"));
  ASSERT_NE(bb, nullptr);
  ByteReader br(*bb);
  EXPECT_EQ(get_string(br).value(), "hello");
  EXPECT_EQ(get_mac(br).value(), MacAddress::from_index(42));
  EXPECT_EQ(get_ip(br).value(), (Ipv4Address{192, 168, 1, 5}));

  const auto all = r.value().find_all(tag("AAAA"));
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(ByteReader(*all[0]).u64().value(), 7u);
  EXPECT_EQ(ByteReader(*all[1]).u64().value(), 8u);

  // Unknown tags read as absent, never as an error.
  EXPECT_EQ(r.value().find(tag("ZZZZ")), nullptr);
}

TEST(SnapshotCodec, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

// A small fixed image: four chunks, one of them empty.
Bytes golden_image() {
  Writer w;
  w.begin_chunk(tag("META")).u64(0x0102030405060708ull);
  w.end_chunk();
  w.begin_chunk(tag("ZERO"));
  w.end_chunk();
  ByteWriter& d = w.begin_chunk(tag("DATA"));
  put_string(d, "homework");
  d.u32(0xDEADBEEFu);
  w.end_chunk();
  ByteWriter& f = w.begin_chunk(tag("FTAG"));
  f.u64(7);
  f.u32(1);
  f.u32(16);
  w.end_chunk();
  return std::move(w).finish();
}

// The on-disk format, pinned byte for byte: a 16-byte header, then each
// chunk's 12-byte header and payload.
const Bytes kGoldenImage = {
    // 'HWSN', version 1, 4 chunks, 88 payload bytes, payload CRC
    0x48, 0x57, 0x53, 0x4e, 0x00, 0x01, 0x00, 0x04, 0x00, 0x00, 0x00, 0x58,
    0x07, 0xea, 0x0d, 0xf8,
    // META, 8 bytes, CRC, payload
    0x4d, 0x45, 0x54, 0x41, 0x00, 0x00, 0x00, 0x08, 0x3f, 0xca, 0x88, 0xc5,
    0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
    // ZERO, 0 bytes, CRC 0
    0x5a, 0x45, 0x52, 0x4f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    // DATA, 16 bytes, CRC, "homework" length-prefixed, 0xdeadbeef
    0x44, 0x41, 0x54, 0x41, 0x00, 0x00, 0x00, 0x10, 0x47, 0x9c, 0x99, 0x4e,
    0x00, 0x00, 0x00, 0x08, 0x68, 0x6f, 0x6d, 0x65, 0x77, 0x6f, 0x72, 0x6b,
    0xde, 0xad, 0xbe, 0xef,
    // FTAG, 16 bytes, CRC, capture 7, member 1 of 16
    0x46, 0x54, 0x41, 0x47, 0x00, 0x00, 0x00, 0x10, 0xa8, 0x0d, 0x1f, 0x48,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x01,
    0x00, 0x00, 0x00, 0x10};

TEST(SnapshotCodec, GoldenBytesMultiChunk) {
  EXPECT_EQ(golden_image(), kGoldenImage);

  auto r = Reader::parse(kGoldenImage);
  ASSERT_TRUE(r.ok()) << r.error().message;
  ASSERT_EQ(r.value().chunk_count(), 4u);
  Writer again;
  for (const Chunk& c : r.value().chunks()) {
    EXPECT_EQ(c.crc, crc32(c.payload));  // the CRC parse verified
    again.add_chunk(c);
  }
  EXPECT_EQ(std::move(again).finish(), kGoldenImage)
      << "re-emitting verified chunks changed the encoding";
}

TEST(SnapshotCodec, RejectsEveryTruncation) {
  Writer w;
  w.begin_chunk(tag("DATA")).u64(0x1122334455667788ull);
  w.end_chunk();
  for (const Bytes& image : {std::move(w).finish(), golden_image()}) {
    for (std::size_t len = 0; len < image.size(); ++len) {
      const Bytes prefix(image.begin(),
                         image.begin() + static_cast<long>(len));
      EXPECT_FALSE(Reader::parse(prefix).ok())
          << "accepted " << len << " of " << image.size() << " bytes";
    }
    // Trailing garbage is a torn image too, not padding.
    Bytes padded = image;
    padded.push_back(0);
    EXPECT_FALSE(Reader::parse(padded).ok());
  }
}

TEST(SnapshotCodec, RejectsEverySingleByteFlip) {
  Writer w;
  ByteWriter& c = w.begin_chunk(tag("DATA"));
  put_string(c, "state that must never be half-trusted");
  w.end_chunk();
  w.begin_chunk(tag("MORE")).u32(12345);
  w.end_chunk();
  for (const Bytes& image : {std::move(w).finish(), golden_image()}) {
    for (std::size_t i = 0; i < image.size(); ++i) {
      Bytes bad = image;
      bad[i] ^= 0x01;
      EXPECT_FALSE(Reader::parse(bad).ok())
          << "accepted flip at offset " << i << " of " << image.size();
    }
  }
}

TEST(SnapshotCodec, HelperDecodersFailCleanlyOnShortInput) {
  ByteWriter w;
  put_string(w, "abc");
  Bytes bytes = std::move(w).take();
  bytes.pop_back();  // truncate inside the string body
  ByteReader r(bytes);
  EXPECT_FALSE(get_string(r).ok());

  ByteReader empty{std::span<const std::uint8_t>{}};
  EXPECT_FALSE(get_mac(empty).ok());
  EXPECT_FALSE(get_ip(empty).ok());
}

// ---------------------------------------------------------------------------
// A small live home to snapshot: booted router, two bound devices, a few
// forwarding flows, hwdb rows from the export modules, a policy document.

struct Rig {
  Rig() : rng(7), router(loop, rng, config(), registry) {
    router.start();
    a = attach("laptop", 1);
    b = attach("phone", 2);
    bind(*a);
    bind(*b);
    // Kick real traffic through the datapath so the flow table fills.
    a->send_udp(Ipv4Address{93, 184, 216, 34}, 1000, 80, 64);
    b->send_udp(Ipv4Address{93, 184, 216, 34}, 1001, 443, 64);
    loop.run_for(2 * kSecond);  // export polls fill hwdb tables

    policy::PolicyDocument doc;
    doc.id = "no-video";
    doc.who.tags = {"kids"};
    doc.sites.kind = policy::SiteRuleKind::Block;
    doc.sites.domains = {"video.netflix.com"};
    router.policy().install(doc);
    router.policy().set_tags("aa:bb", {"kids"});
  }

  static homework::HomeworkRouter::Config config() {
    homework::HomeworkRouter::Config c;
    c.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
    return c;
  }

  sim::Host* attach(const std::string& name, std::uint32_t idx) {
    sim::Host::Config hc;
    hc.name = name;
    hc.mac = MacAddress::from_index(idx);
    hosts.push_back(std::make_unique<sim::Host>(loop, hc, rng));
    router.attach_device(*hosts.back(), std::nullopt);
    return hosts.back().get();
  }

  void bind(sim::Host& host) {
    host.start_dhcp();
    const Timestamp deadline = loop.now() + 5 * kSecond;
    while (loop.now() < deadline && !host.ip()) loop.run_for(50 * kMillisecond);
    ASSERT_TRUE(host.ip().has_value());
  }

  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scope{registry};
  sim::EventLoop loop;
  Rng rng;
  homework::HomeworkRouter router;
  std::vector<std::unique_ptr<sim::Host>> hosts;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
};

TEST(SnapshotCoordinator, CaptureRestoresEveryLayerIntoAFreshHome) {
  Rig first;
  const SnapshotImage image = *first.router.snapshots().capture();
  EXPECT_EQ(image.captured_at, first.loop.now());
  EXPECT_GT(image.bytes.size(), 100u);
  EXPECT_GT(first.registry.total("snapshot.captures").value_or(0), 0.0);

  const std::size_t flows = first.router.datapath().table().size();
  const std::size_t metrics_rows = first.router.db().table("Metrics")->size();
  ASSERT_GT(flows, 0u);
  ASSERT_GT(metrics_rows, 0u);

  // A freshly booted home (no devices ever attached) adopts the image.
  telemetry::MetricRegistry reg2;
  telemetry::ScopedMetricRegistry scope2(reg2);
  sim::EventLoop loop2;
  Rng rng2(99);
  homework::HomeworkRouter router2(loop2, rng2, Rig::config(), reg2);
  router2.start();
  auto restored = router2.snapshots().restore(image);
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_GT(reg2.total("snapshot.restores").value_or(0), 0.0);

  // Flow table, hwdb contents, registry records with leases, policy docs.
  EXPECT_EQ(router2.datapath().table().size(), flows);
  EXPECT_EQ(router2.db().table("Metrics")->size(), metrics_rows);
  EXPECT_EQ(router2.registry().size(), first.router.registry().size());
  const auto* rec = router2.registry().find(first.a->mac());
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->lease.has_value());
  EXPECT_EQ(rec->lease->ip, first.a->ip());
  ASSERT_EQ(router2.policy().policies().size(), 1u);
  EXPECT_EQ(router2.policy().policies()[0]->id, "no-video");
  EXPECT_EQ(router2.policy().tags_of("aa:bb"),
            std::vector<std::string>{"kids"});

  // DHCP allocations survived: the same MAC discovering again gets the same
  // address back from the restored pool.
  sim::Host::Config hc;
  hc.name = "laptop-after-restore";
  hc.mac = first.a->mac();
  sim::Host again(loop2, hc, rng2);
  router2.attach_device(again, std::nullopt);
  again.start_dhcp();
  loop2.run_for(2 * kSecond);
  ASSERT_TRUE(again.ip().has_value());
  EXPECT_EQ(again.ip(), first.a->ip());
}

TEST(SnapshotCoordinator, CorruptImageRejectedAtEveryOffsetWithoutSideEffects) {
  Rig rig;
  const SnapshotImage image = *rig.router.snapshots().capture();
  const std::size_t flows = rig.router.datapath().table().size();
  ASSERT_GT(flows, 0u);

  for (std::size_t i = 0; i < image.bytes.size(); ++i) {
    Bytes bad = image.bytes;
    bad[i] ^= 0x40;
    EXPECT_FALSE(rig.router.snapshots().restore(bad).ok())
        << "accepted corrupt image, flip at offset " << i;
  }
  EXPECT_EQ(rig.registry.total("snapshot.corrupt_rejected").value_or(0),
            static_cast<double>(image.bytes.size()));
  EXPECT_EQ(rig.registry.total("snapshot.restores").value_or(0), 0.0);

  // No layer was touched: recapturing at the same virtual instant yields a
  // byte-identical image.
  EXPECT_EQ(rig.router.snapshots().capture()->bytes, image.bytes);
  EXPECT_EQ(rig.router.datapath().table().size(), flows);
}

TEST(SnapshotCoordinator, WarmRestartRefillsTheFlowTable) {
  Rig rig;
  (void)rig.router.snapshots().capture();
  const std::size_t flows = rig.router.datapath().table().size();
  ASSERT_GT(flows, 0u);

  auto s = rig.router.warm_restart();
  ASSERT_TRUE(s.ok()) << s.error().message;
  EXPECT_EQ(rig.router.datapath().table().size(), flows);
  EXPECT_FALSE(rig.router.datapath().fail_safe());

  // Established traffic keeps flowing on the restored entries.
  const auto before = rig.registry.total("sim.link.tx_frames").value_or(0);
  rig.a->send_udp(Ipv4Address{93, 184, 216, 34}, 1000, 80, 64);
  rig.loop.run_for(100 * kMillisecond);
  EXPECT_GT(rig.registry.total("sim.link.tx_frames").value_or(0), before);
}

TEST(SnapshotCoordinator, WarmRestartWithoutImageIsACleanColdStart) {
  Rig rig;
  ASSERT_GT(rig.router.datapath().table().size(), 0u);
  ASSERT_EQ(rig.router.snapshots().last_image(), nullptr);
  EXPECT_TRUE(rig.router.warm_restart().ok());
  EXPECT_EQ(rig.router.datapath().table().size(), 0u);  // cold wipe
}

TEST(SnapshotFaults, CrashRestartRestoreFaultRestoresFromLastCheckpoint) {
  Rig rig;
  rig.router.snapshots().start_periodic_captures(
      kSecond, {}, homework::HomeworkRouter::kBootSettle);

  sim::FaultInjector faults(rig.loop);
  rig.router.attach_faults(faults);
  sim::FaultPlan plan;
  plan.seed = 5;
  plan.windows.push_back(
      {sim::FaultKind::CrashRestartRestore, rig.loop.now() + 3 * kSecond, 0,
       "*", 0.0, {}});
  faults.arm(plan);
  rig.loop.run_for(4 * kSecond);

  EXPECT_EQ(faults.stats().crash_restores, 1u);
  EXPECT_EQ(faults.stats().active, 0);
  EXPECT_GT(rig.registry.total("snapshot.captures").value_or(0), 0.0);
  EXPECT_GT(rig.router.datapath().table().size(), 0u)
      << "crash-restart-restore left the flow table cold";
  EXPECT_FALSE(rig.router.datapath().fail_safe());
}

TEST(SnapshotCoordinator, PeriodicCapturesLandOnThePhaseGrid) {
  Rig rig;
  std::vector<Timestamp> at;
  rig.router.snapshots().start_periodic_captures(
      kSecond, [&](const SnapshotImage& img) { at.push_back(img.captured_at); },
      homework::HomeworkRouter::kBootSettle);
  rig.loop.run_until(6 * kSecond);
  ASSERT_GE(at.size(), 2u);
  for (const Timestamp t : at) {
    EXPECT_EQ((t - homework::HomeworkRouter::kBootSettle) % kSecond, 0u)
        << "capture off the k*interval+settle grid at t=" << t;
  }
  rig.router.snapshots().stop_periodic_captures();
  const std::size_t captured = at.size();
  rig.loop.run_for(2 * kSecond);
  EXPECT_EQ(at.size(), captured);
}

TEST(SnapshotFiles, AtomicWriteThenReadRoundTrip) {
  Rig rig;
  const SnapshotImage image = *rig.router.snapshots().capture();
  const std::string path = ::testing::TempDir() + "/hw_snapshot_test.bin";

  ASSERT_TRUE(SnapshotCoordinator::write_file(path, image).ok());
  auto back = SnapshotCoordinator::read_file(path);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().bytes, image.bytes);
  EXPECT_EQ(back.value().captured_at, image.captured_at);
  // No temp residue after a successful rename.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);

  // A torn file on disk is rejected, not half-restored.
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(image.bytes.data(), 1, image.bytes.size() / 2, f);
  std::fclose(f);
  EXPECT_FALSE(SnapshotCoordinator::read_file(path).ok());

  std::remove(path.c_str());
  EXPECT_FALSE(SnapshotCoordinator::read_file(path).ok());
}

}  // namespace
}  // namespace hw::snapshot
