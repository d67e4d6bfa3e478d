// Checkpoint/restore cost sweep: builds homes at a ladder of state sizes
// (flow rules, hwdb rows, device population), measures capture latency,
// image size and restore-into-fresh-home latency at each rung, and compares
// warm-restart recovery (refill the flow table from the last image) against
// a cold restart that has to re-learn every flow from live traffic.
//
// Emits BENCH_snapshot_perf.json (path overridable with --out) for the CI
// artifact upload.
//
// Usage: snapshot_perf [--smoke] [--reps N] [--out PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "homework/router.hpp"
#include "hwdb/database.hpp"
#include "snapshot/coordinator.hpp"
#include "telemetry/metrics.hpp"

using namespace hw;

namespace {

struct SizeSpec {
  const char* label = "";
  std::size_t devices = 0;
  std::size_t flows = 0;      // distinct destinations driven through the datapath
  std::size_t hwdb_rows = 0;  // rows bulk-inserted into a bench table
};

struct Rung {
  std::string label;
  std::size_t devices = 0;
  std::size_t flow_entries = 0;
  std::size_t hwdb_rows = 0;
  std::size_t image_bytes = 0;
  double capture_us = 0.0;
  double restore_us = 0.0;
  double warm_restart_us = 0.0;
  double cold_rebuild_us = 0.0;
};

double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A booted home inflated to the requested state size.
struct BenchHome {
  explicit BenchHome(const SizeSpec& spec) : rng(7), router(loop, rng, config(), registry) {
    telemetry::ScopedMetricRegistry scope(registry);
    router.start();
    for (std::size_t i = 0; i < spec.devices; ++i) {
      sim::Host::Config hc;
      hc.name = "dev" + std::to_string(i);
      hc.mac = MacAddress::from_index(static_cast<std::uint32_t>(i + 1));
      hosts.push_back(std::make_unique<sim::Host>(loop, hc, rng));
      router.attach_device(*hosts.back(), std::nullopt);
      hosts.back()->start_dhcp();
    }
    loop.run_for(2 * kSecond);

    (void)router.db().create_table(
        hwdb::Schema("BenchRows", {{"v", hwdb::ColumnType::Int}}),
        spec.hwdb_rows + 16);
    for (std::size_t i = 0; i < spec.hwdb_rows; ++i) {
      (void)router.db().insert("BenchRows",
                               {hwdb::Value{static_cast<std::int64_t>(i)}});
    }
    drive_flows(spec.flows);
  }

  static homework::HomeworkRouter::Config config() {
    homework::HomeworkRouter::Config c;
    c.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
    c.flow_idle_timeout = 0;  // no idle expiry: the rung size stays put
    return c;
  }

  /// One distinct upstream destination per requested flow.
  void drive_flows(std::size_t flows) {
    if (hosts.empty()) return;
    for (std::size_t i = 0; i < flows; ++i) {
      const Ipv4Address dst{
          10, static_cast<std::uint8_t>((i >> 16) & 0xff),
          static_cast<std::uint8_t>((i >> 8) & 0xff),
          static_cast<std::uint8_t>(1 + (i & 0xfe))};
      hosts[i % hosts.size()]->send_udp(
          dst, static_cast<std::uint16_t>(1024 + i % 20000), 80, 64);
      if (i % 64 == 63) loop.run_for(20 * kMillisecond);
    }
    loop.run_for(kSecond);
  }

  telemetry::MetricRegistry registry;
  sim::EventLoop loop;
  Rng rng;
  homework::HomeworkRouter router;
  std::vector<std::unique_ptr<sim::Host>> hosts;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<SizeSpec> sizes = {
      {"small", 2, 64, 1024},
      {"medium", 4, 512, 8192},
      {"large", 8, 2048, 32768},
  };
  std::size_t reps = 5;
  std::string out_path = "BENCH_snapshot_perf.json";

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      sizes = {{"small", 2, 32, 256}, {"medium", 3, 128, 1024},
               {"large", 4, 256, 4096}};
      reps = 2;
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("=== snapshot_perf: %zu state sizes, %zu reps each ===\n\n",
              sizes.size(), reps);
  std::printf("%8s %8s %8s %9s %10s %12s %12s %14s %14s\n", "size", "devices",
              "flows", "hwdb", "bytes", "capture_us", "restore_us", "warm_us",
              "cold_rebuild");

  std::vector<Rung> rungs;
  for (const SizeSpec& spec : sizes) {
    BenchHome home(spec);
    telemetry::ScopedMetricRegistry scope(home.registry);
    auto& snaps = home.router.snapshots();

    Rung rung;
    rung.label = spec.label;
    rung.devices = home.hosts.size();
    rung.flow_entries = home.router.datapath().table().size();
    rung.hwdb_rows = home.router.db().table("BenchRows")->size();

    // Capture: best of `reps` (the image is identical each time).
    std::shared_ptr<const snapshot::SnapshotImage> image;
    for (std::size_t r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      image = snaps.capture();
      const double us = us_since(t0);
      if (r == 0 || us < rung.capture_us) rung.capture_us = us;
    }
    rung.image_bytes = image->bytes.size();

    // Restore into freshly booted homes.
    for (std::size_t r = 0; r < reps; ++r) {
      telemetry::MetricRegistry reg2;
      telemetry::ScopedMetricRegistry scope2(reg2);
      sim::EventLoop loop2;
      Rng rng2(11);
      homework::HomeworkRouter router2(loop2, rng2, BenchHome::config(), reg2);
      router2.start();
      const auto t0 = std::chrono::steady_clock::now();
      if (!router2.snapshots().restore(*image).ok()) {
        std::fprintf(stderr, "restore failed at size %s\n", spec.label);
        return 1;
      }
      const double us = us_since(t0);
      if (r == 0 || us < rung.restore_us) rung.restore_us = us;
      if (router2.datapath().table().size() != rung.flow_entries) {
        std::fprintf(stderr, "restore dropped flows at size %s\n", spec.label);
        return 1;
      }
    }

    // Warm restart: restart + refill the flow table from the image.
    for (std::size_t r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)home.router.warm_restart();
      const double us = us_since(t0);
      if (r == 0 || us < rung.warm_restart_us) rung.warm_restart_us = us;
    }

    // Cold restart: wipe, then re-learn every flow from live traffic.
    {
      home.router.datapath().restart();
      const auto t0 = std::chrono::steady_clock::now();
      home.drive_flows(spec.flows);
      rung.cold_rebuild_us = us_since(t0);
    }

    std::printf("%8s %8zu %8zu %9zu %10zu %12.1f %12.1f %14.1f %14.1f\n",
                rung.label.c_str(), rung.devices, rung.flow_entries,
                rung.hwdb_rows, rung.image_bytes, rung.capture_us,
                rung.restore_us, rung.warm_restart_us, rung.cold_rebuild_us);
    rungs.push_back(rung);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"snapshot_perf\",\n");
  std::fprintf(out, "  \"reps\": %zu,\n", reps);
  std::fprintf(out, "  \"sizes\": [\n");
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    std::fprintf(out,
                 "    {\"label\": \"%s\", \"devices\": %zu, "
                 "\"flow_entries\": %zu, \"hwdb_rows\": %zu, "
                 "\"image_bytes\": %zu, \"capture_us\": %.3f, "
                 "\"restore_us\": %.3f, \"warm_restart_us\": %.3f, "
                 "\"cold_rebuild_us\": %.3f}%s\n",
                 r.label.c_str(), r.devices, r.flow_entries, r.hwdb_rows,
                 r.image_bytes, r.capture_us, r.restore_us, r.warm_restart_us,
                 r.cold_rebuild_us, i + 1 < rungs.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
