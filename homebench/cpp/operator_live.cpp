// operator-live: what the operator sees. A live::LiveFleet of mostly idle
// homes (apps off; home 0 hosts a guest probing the outside) whose cold homes
// hibernate, one live::LiveServer streaming 64 SubscribeSeries
// subscriptions into a counting send hook, and a closed-loop operator that
// sends encoded MutateRequest datagrams through handle_datagram one at a
// time. Each mutation's ack names the barrier it lands on; the operator
// pumps the server until that barrier has run, then sends the next one. The
// seeded mix: quarantine/release of the guest, a controller outage (which
// forces a reconcile), a fleet checkpoint, and waking a hibernated home.
#include <memory>

#include "live/server.hpp"
#include "probes.hpp"
#include "util/rand.hpp"
#include "workloads.hpp"

namespace hb {
namespace {

using hw::Duration;
using hw::Timestamp;

constexpr std::size_t kHomes = 16;
constexpr std::size_t kSubs = 64;
/// Subscriptions on the merged fleet; the rest each watch one home.
constexpr std::size_t kFleetSubs = 4;
constexpr hw::live::ClientAddress kOperator = 1000;
constexpr Timestamp kWarm = 10 * hw::kSecond;
/// Mutations per episode. Every episode builds a fresh fleet from its own
/// seed: a home's snapshot image grows with its hwdb history, so one long
/// episode would get steadily slower; short fresh ones keep the measured
/// work the same from the first second of a run to the last. Work counts
/// are those of the first episode.
constexpr std::uint64_t kMutations = 100;
/// A release waits this many barriers after its quarantine, so the block
/// flow is installed and has dropped guest traffic before it goes.
constexpr std::uint64_t kQuarantineBarriers = 8;

const char* const kPatterns[] = {"*", "live.home.*", "homework.dhcp.*",
                                 "openflow.*"};

enum class Verb : std::uint8_t { Toggle, Outage, Wake, Checkpoint };

struct Operator {
  hw::Rng rng;
  std::string guest_mac;
  bool quarantined = false;
  std::uint64_t quarantined_at = 0;  // barrier count at the quarantine
  std::uint32_t next_request = 1;
  std::vector<std::uint32_t> faults;  // injected outages per home
  std::vector<Verb> deck = {};  // the rest of the current deal
};

struct World {
  std::unique_ptr<hw::telemetry::MetricRegistry> registry;
  std::unique_ptr<hw::live::LiveFleet> fleet;
  std::unique_ptr<hw::live::LiveServer> server;
  std::vector<std::uint32_t> sub_homes;
  hw::Bytes ack;
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t barriers = 0;
  /// A sample of operator-plane datagrams for the RPC codec probe: the
  /// bytes, and whether the server sent them.
  std::vector<std::pair<hw::Bytes, bool>> datagrams;
};

std::unique_ptr<World> build(std::uint64_t seed) {
  using namespace hw;
  auto w = std::make_unique<World>();
  w->registry = std::make_unique<telemetry::MetricRegistry>();
  live::LiveConfig config;
  config.homes = kHomes;
  config.threads = 1;
  config.seed = seed;
  config.run_apps = false;
  config.attack.kind = live::LiveAttack::Kind::DhcpFlood;
  config.attack.home = 0;
  // The guest only probes an outside address (what a quarantine blocks);
  // no spoofed DISCOVER flood.
  config.attack.per_tick = 0;
  config.residency.idle_watermark = 2 * kSecond;
  config.residency.wake_on_due = false;
  w->fleet = std::make_unique<live::LiveFleet>(config, *w->registry);
  w->fleet->start();

  World* wp = w.get();
  w->server = std::make_unique<live::LiveServer>(
      *w->fleet,
      [wp](live::ClientAddress to, const Bytes& datagram) {
        if (to == kOperator) {
          wp->ack = datagram;
        } else {
          ++wp->frames;
          wp->frame_bytes += datagram.size();
        }
        if (Tracer::get().on() && wp->datagrams.size() < 2048 &&
            wp->frames % 16 == 0) {
          wp->datagrams.emplace_back(datagram, true);
        }
      },
      *w->registry);
  Rng rng(seed ^ 0x0be7a70e);
  for (std::size_t s = 0; s < kSubs; ++s) {
    hwdb::rpc::SubscribeSeriesRequest req;
    req.pattern = kPatterns[s % std::size(kPatterns)];
    req.home = s < kFleetSubs ? hwdb::rpc::kAllHomes
                              : static_cast<std::uint32_t>(rng.uniform(kHomes));
    w->sub_homes.push_back(req.home);
    const hwdb::rpc::Request wire{static_cast<std::uint32_t>(s + 1), req};
    w->server->handle_datagram(static_cast<live::ClientAddress>(s + 1),
                               hwdb::rpc::encode(wire));
  }
  while (w->fleet->now() < kWarm) w->server->pump();
  return w;
}

/// The mix, dealt as a deck so every run has exactly the same proportions:
/// per 20 mutations, 6 quarantine/release toggles, 9 controller outages,
/// 4 wakes and 1 checkpoint, in a seeded order. Single-barrier mutations
/// stay the large majority, so the median and the 99th percentile each sit
/// well inside one kind of mutation rather than on the edge between two.
std::vector<Verb> deal(hw::Rng& rng) {
  std::vector<Verb> deck;
  deck.insert(deck.end(), 6, Verb::Toggle);
  deck.insert(deck.end(), 9, Verb::Outage);
  deck.insert(deck.end(), 4, Verb::Wake);
  deck.insert(deck.end(), 1, Verb::Checkpoint);
  for (std::size_t i = deck.size() - 1; i > 0; --i) {
    std::swap(deck[i], deck[rng.uniform(i + 1)]);
  }
  return deck;
}

/// Turns the next card into a mutation, given the fleet's (virtual,
/// deterministic) state. A toggle that would release a quarantine too soon,
/// or a wake with no hibernated home, becomes an outage.
hw::live::Mutation choose(World& w, Operator& op) {
  using namespace hw;
  if (op.deck.empty()) op.deck = deal(op.rng);
  Verb verb = op.deck.back();
  op.deck.pop_back();
  if (verb == Verb::Toggle && op.quarantined &&
      w.barriers < op.quarantined_at + kQuarantineBarriers) {
    verb = Verb::Outage;
  }
  const auto start = static_cast<std::uint32_t>(op.rng.uniform(kHomes));
  switch (verb) {
    case Verb::Toggle:
      return op.quarantined ? live::release(0, op.guest_mac)
                            : live::quarantine(0, op.guest_mac);
    case Verb::Checkpoint:
      return live::checkpoint();
    case Verb::Wake:
      for (std::uint32_t i = 0; i < kHomes; ++i) {
        const std::uint32_t h = (start + i) % kHomes;
        if (w.fleet->residency().hibernated(h)) return live::wake_home(h);
      }
      break;
    case Verb::Outage:
      break;
  }
  // Controller outage on a resident home other than the guest's (an outage
  // there would hold back the quarantine's block flows; a hibernated home
  // would be woken first, which the wake share already covers).
  std::uint32_t h = 1;
  for (std::uint32_t i = 0; i + 1 < kHomes; ++i) {
    h = 1 + (start + i) % (kHomes - 1);
    if (!w.fleet->residency().hibernated(h)) break;
  }
  return live::inject_fault(h, "controller-outage", 0.0, 0, kSecond);
}

/// What the measured mutations record, across episodes.
struct Record {
  std::vector<double> apply_us;
  std::vector<double> pump_us;     // traced episodes only
  std::vector<double> sample_us;   // traced episodes only
  std::vector<double> scalars_us;  // traced episodes only
  hw::telemetry::HistogramState resume;
  double resumes = 0.0;
  double traced_mutations = 0.0;
  double image_bytes = 0.0;
  double dedup_ratio = 0.0;
  std::vector<double> codec_ns;
  std::uint64_t delta_frames = 0;
  std::uint64_t delta_bytes = 0;
};

/// Sends one mutation through handle_datagram, pumps until the barrier its
/// ack names has run, and checks the mutation's effect.
void mutate(World& w, Operator& op, Outcome& out, Record& rec) {
  using namespace hw;
  live::LiveFleet& fleet = *w.fleet;
  const live::Mutation m = choose(w, op);
  if (m.kind == live::MutateKind::RevokePolicy) {
    // The quarantine being released has been dropping guest traffic.
    const live::LiveHomeStatus st = fleet.status(0);
    out.check(st.block_flows > 0 && st.block_drops > 0,
              "quarantined guest's traffic was not dropped");
  }
  const std::size_t checkpoints = fleet.checkpoints().size();
  const std::uint32_t request_id = op.next_request++;
  const Bytes datagram =
      hwdb::rpc::encode(hwdb::rpc::Request{request_id, live::to_request(m)});
  const bool traced = Tracer::get().on();
  if (traced && w.datagrams.size() < 2048) w.datagrams.emplace_back(datagram, false);
  w.ack.clear();
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span(Layer::Live);
    w.server->handle_datagram(kOperator, datagram);
  }
  const auto decoded = hwdb::rpc::decode(w.ack, /*from_server=*/true);
  const auto* resp =
      decoded ? std::get_if<hwdb::rpc::Response>(&decoded.value()) : nullptr;
  const bool acked = resp != nullptr && resp->ok &&
                     resp->request_id == request_id && resp->applied_at;
  out.check(acked, std::string("mutation not acked: ") + live::to_string(m.kind));
  const Timestamp until = acked ? *resp->applied_at : fleet.next_barrier();
  while (fleet.now() < until) {
    const std::int64_t p0 = now_ns();
    {
      ScopedSpan span(Layer::Live);
      w.server->pump();
    }
    if (traced) rec.pump_us.push_back(static_cast<double>(now_ns() - p0) * 1e-3);
    ++w.barriers;
  }
  rec.apply_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);

  // The mutation's effect is visible once its barrier has run.
  switch (m.kind) {
    case live::MutateKind::ApplyPolicy:
      op.quarantined = true;
      op.quarantined_at = w.barriers;
      break;
    case live::MutateKind::RevokePolicy:
      op.quarantined = false;
      break;
    case live::MutateKind::Wake:
      out.check(!fleet.residency().hibernated(m.home),
                "woken home " + std::to_string(m.home) + " not resident");
      break;
    case live::MutateKind::Checkpoint:
      out.check(fleet.checkpoints().size() == checkpoints + 1,
                "checkpoint not captured at its barrier");
      break;
    case live::MutateKind::InjectFault:
      ++op.faults[m.home];
      break;
    default:
      break;
  }
}

}  // namespace

Outcome run_operator_live(const Args& args) {
  using namespace hw;
  Outcome out;
  Record rec;
  std::vector<double> setups;
  std::vector<SliceStats> episodes;
  std::vector<double> home_s;
  std::vector<double> frames_per_episode;
  double measured_s = 0.0;
  double rss_mb = 0.0;

  for (std::uint64_t k = 0; measured_s < args.seconds || k < kSetups; ++k) {
    std::uint64_t mix = args.seed * 1000003u + k;
    const std::int64_t b0 = now_ns();
    const std::unique_ptr<World> world = build(splitmix64(mix));
    setups.push_back(static_cast<double>(now_ns() - b0) * 1e-9);
    World& w = *world;
    live::LiveFleet& fleet = *w.fleet;
    if (k == 0) rss_mb = peak_rss_mb();
    Operator op{.rng = Rng(splitmix64(mix)),
                .guest_mac = fleet.device_mac(0, "guest"),
                .faults = std::vector<std::uint32_t>(kHomes, 0)};
    out.check(!op.guest_mac.empty(), "no guest device in home 0");

    const double resumes0 = scalar(w.registry->scalars(), "residency.resumes");
    const double frames0 = scalar(fleet.scalars(), "sim.link.tx_frames");
    const std::uint64_t delta_frames0 = w.frames;
    const std::uint64_t delta_bytes0 = w.frame_bytes;
    SliceStats st;
    st.traced = args.trace && k % 2 == 1;
    Tracer::get().set_on(st.traced);
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kMutations; ++i) mutate(w, op, out, rec);
    st.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    Tracer::get().set_on(false);
    st.units = w.barriers;
    measured_s += st.wall_s;
    out.attempted += kMutations;
    episodes.push_back(st);
    home_s.push_back(static_cast<double>(w.barriers) * kHomes *
                     static_cast<double>(fleet.config().barrier_interval) /
                     static_cast<double>(kSecond));
    frames_per_episode.push_back(scalar(fleet.scalars(), "sim.link.tx_frames") -
                                 frames0);

    if (k == 0) {
      const auto s = fleet.scalars();
      out.counts["mutations"] = kMutations;
      out.counts["barriers"] = w.barriers;
      out.counts["delta_frames"] = w.frames - delta_frames0;
      out.counts["delta_bytes"] = w.frame_bytes - delta_bytes0;
      out.counts["resumes"] = static_cast<std::uint64_t>(
          scalar(w.registry->scalars(), "residency.resumes"));
      out.counts["frames"] = static_cast<std::uint64_t>(scalar(s, "sim.link.tx_frames"));
      out.counts["packet_ins"] =
          static_cast<std::uint64_t>(scalar(s, "nox.controller.packet_ins"));
      out.counts["flow_mods"] =
          static_cast<std::uint64_t>(scalar(s, "nox.controller.flow_mods"));
    }

    if (st.traced) {
      // Reads of the fleet's series: one merged read, and a replay of every
      // subscription's read (the sampling part of a pump).
      std::int64_t r0 = now_ns();
      const std::size_t merged = fleet.scalars().size();
      rec.scalars_us.push_back(static_cast<double>(now_ns() - r0) * 1e-3);
      r0 = now_ns();
      std::size_t series = merged;
      for (const std::uint32_t h : w.sub_homes) series += fleet.scalars(h).size();
      if (series > 0) rec.sample_us.push_back(static_cast<double>(now_ns() - r0) * 1e-3);
      rec.delta_frames += w.frames - delta_frames0;
      rec.delta_bytes += w.frame_bytes - delta_bytes0;
      const auto reg = w.registry->scalars();
      rec.resume.merge(histogram(*w.registry, "residency.resume_ns"));
      rec.resumes += scalar(reg, "residency.resumes") - resumes0;
      rec.traced_mutations += static_cast<double>(kMutations);
      if (scalar(reg, "residency.image_bytes") > 0.0) {
        rec.dedup_ratio = scalar(reg, "residency.image_bytes_logical") /
                          scalar(reg, "residency.image_bytes");
      }
      if (!fleet.checkpoints().empty()) {
        const auto& images = fleet.checkpoints().back().images;
        double bytes = 0.0;
        for (const auto& img : images) bytes += static_cast<double>(img.bytes.size());
        rec.image_bytes = bytes / static_cast<double>(images.size());
      }
    }

    // A standing quarantine has been dropping guest traffic, and every
    // controller outage opened its fault window in its home.
    if (op.quarantined && w.barriers >= op.quarantined_at + kQuarantineBarriers) {
      const live::LiveHomeStatus q = fleet.status(0);
      out.check(q.block_flows > 0 && q.block_drops > 0,
                "quarantined guest's traffic is not being dropped");
    }
    fleet.refresh_telemetry();
    for (std::uint32_t h = 0; h < kHomes; ++h) {
      const double outages = scalar(fleet.scalars(h), "sim.fault.controller_outages");
      out.check(outages >= op.faults[h],
                "home " + std::to_string(h) + " saw " + std::to_string(outages) +
                    " of " + std::to_string(op.faults[h]) + " outages");
    }

    if (st.traced && !w.datagrams.empty()) {
      // The operator-plane datagrams through the hwdb RPC codec.
      std::size_t ok = 0;
      const std::int64_t c0 = now_ns();
      for (const auto& [bytes, from_server] : w.datagrams) {
        auto d = hwdb::rpc::decode(bytes, from_server);
        if (!d) continue;
        ok += std::visit(
            [](const auto& msg) { return hwdb::rpc::encode(msg).size(); }, d.value());
      }
      if (ok > 0) {
        rec.codec_ns.push_back(static_cast<double>(now_ns() - c0) /
                               static_cast<double>(w.datagrams.size()));
      }
    }
  }

  if (!args.trace) {
    out.add("home_s_per_s", median_rate(episodes, home_s, false), "1/s");
    double frames = 0.0;
    for (const double f : frames_per_episode) frames += f;
    out.add("frames_per_s", median_rate_of(episodes, home_s, frames), "1/s");
    out.add("op_p50_us", percentile(rec.apply_us, 0.50), "us");
    out.add("op_p99_us", percentile(rec.apply_us, 0.99), "us");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", rss_mb, "MiB");
    return out;
  }

  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  double traced_wall = 0.0;
  for (const auto& e : episodes) traced_wall += e.traced ? e.wall_s : 0.0;
  const double pump = mean(rec.pump_us);
  const TwinProbe twin = probe_twin_home(args.seed, /*apps=*/false);

  out.add("telemetry.scalars_us", mean(rec.scalars_us), "us");
  out.add("hwdb.rpc_codec_ns", mean(rec.codec_ns), "ns");
  out.add("live.barrier_us", std::max(0.0, pump - mean(rec.sample_us)), "us");
  out.add("live.pump_us_per_sub", pump / kSubs, "us");
  out.add("live.delta_bytes_per_frame",
          ratio(static_cast<double>(rec.delta_bytes),
                static_cast<double>(rec.delta_frames)),
          "bytes");
  out.add("live.self_share",
          ratio(Tracer::get().self_seconds(Layer::Live), traced_wall), "ratio");
  out.add("reconcile.round_us", twin.reconcile_round_us, "us");
  out.add("snapshot.capture_us", twin.capture_us, "us");
  out.add("snapshot.image_bytes", rec.image_bytes, "bytes");
  out.add("residency.resume_us", rec.resume.mean() * 1e-3, "us");
  out.add("residency.resumes_per_mutation",
          ratio(rec.resumes, rec.traced_mutations), "count");
  out.add("residency.dedup_ratio", rec.dedup_ratio, "ratio");
  out.add("trace.overhead",
          ratio(median_rate(episodes, home_s, false),
                median_rate(episodes, home_s, true)) -
              1.0,
          "ratio");
  return out;
}

}  // namespace hb
