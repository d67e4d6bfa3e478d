#include "probes.hpp"

#include "common.hpp"
#include "workload/scenario.hpp"

namespace hb {

TwinProbe probe_twin_home(std::uint64_t seed, bool apps) {
  using namespace hw;
  telemetry::MetricRegistry registry;
  telemetry::ScopedMetricRegistry scoped(registry);

  workload::HomeScenario::Config sc;
  sc.seed = seed;
  sc.router.admission = homework::DeviceRegistry::AdmissionDefault::PermitAll;
  sc.router.liveness.probe_interval = kSecond;
  sc.router.liveness.max_misses = 2;
  sc.router.datapath.controller_dead_interval = 2 * kSecond;
  workload::HomeScenario home(sc, registry);
  home.start();
  home.add_device({"laptop", workload::DeviceKind::Laptop, std::nullopt});
  home.add_device({"phone", workload::DeviceKind::Phone, std::nullopt});
  home.add_device({"tv", workload::DeviceKind::Tv, std::nullopt});
  home.start_dhcp_all();
  (void)home.wait_all_bound(10 * kSecond);
  if (apps) home.start_apps_all();
  home.run_for(5 * kSecond);

  TwinProbe p;
  {
    const double frames0 = scalar(registry.scalars(), "sim.link.tx_frames");
    const std::uint64_t events0 = home.loop().executed();
    const std::int64_t t0 = now_ns();
    home.run_for(10 * kSecond);
    const std::int64_t dt = now_ns() - t0;
    const double events =
        static_cast<double>(home.loop().executed() - events0);
    const double frames =
        scalar(registry.scalars(), "sim.link.tx_frames") - frames0;
    p.events_per_frame = frames > 0.0 ? events / frames : 0.0;
    p.ns_per_event = events > 0.0 ? static_cast<double>(dt) / events : 0.0;
  }

  auto& router = home.router();
  const auto time_us = [](int rounds, const auto& fn) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < rounds; ++i) fn();
    return static_cast<double>(now_ns() - t0) * 1e-3 / rounds;
  };
  p.metrics_export_poll_us =
      time_us(20, [&] { router.metrics_export().poll(); });
  p.snapshot_us = time_us(50, [&] { (void)registry.snapshot(); });
  p.instruments = static_cast<double>(registry.instrument_count());
  p.insert_ns = histogram(registry, "hwdb.database.insert_ns").mean();
  p.capture_us = time_us(10, [&] { (void)router.snapshots().capture(); });
  if (router.reconciler() != nullptr) {
    for (int i = 0; i < 5; ++i) {
      router.reconciler()->request_round(router.datapath().id());
      home.run_for(kSecond);
    }
    p.reconcile_round_us =
        histogram(registry, "reconcile.round_ns").mean() * 1e-3;
  }
  const auto dispatch =
      histogram(registry, "nox.controller.packet_in_dispatch_ns");
  p.dispatch_p50_ns = dispatch.percentile(0.50);
  p.dispatch_p99_ns = dispatch.percentile(0.99);
  return p;
}

}  // namespace hb
