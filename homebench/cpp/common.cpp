#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "net/packet.hpp"
#include "openflow/messages.hpp"

namespace hb {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (errors.size() < 20) errors.push_back(what);
}

void Outcome::add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"home_s_per_s", "1/s"},   {"frames_per_s", "1/s"},
      {"op_p50_us", "us"},       {"op_p99_us", "us"},
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"sim.events_per_frame", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.self_share", "ratio"},
      {"net.parse_ns", "ns"},
      {"openflow.datapath_hit_ns", "ns"},
      {"openflow.datapath_miss_ns", "ns"},
      {"openflow.microflow_hit_ratio", "ratio"},
      {"openflow.codec_ns_per_msg", "ns"},
      {"openflow.channel_bytes_per_setup", "bytes"},
      {"openflow.flow_mods_per_setup", "count"},
      {"openflow.flow_table_entries", "count"},
      {"openflow.self_share", "ratio"},
      {"nox.dispatch_p50_ns", "ns"},
      {"nox.dispatch_p99_ns", "ns"},
      {"nox.packet_ins_per_setup", "count"},
      {"homework.export_rows_per_home_s", "count"},
      {"homework.metrics_export_poll_us", "us"},
      {"telemetry.snapshot_us", "us"},
      {"telemetry.instruments_per_home", "count"},
      {"telemetry.scalars_us", "us"},
      {"hwdb.inserts_per_frame", "count"},
      {"hwdb.insert_ns", "ns"},
      {"hwdb.query_us", "us"},
      {"hwdb.rpc_codec_ns", "ns"},
      {"live.barrier_us", "us"},
      {"live.pump_us_per_sub", "us"},
      {"live.delta_bytes_per_frame", "bytes"},
      {"live.self_share", "ratio"},
      {"reconcile.round_us", "us"},
      {"snapshot.capture_us", "us"},
      {"snapshot.image_bytes", "bytes"},
      {"residency.resume_us", "us"},
      {"residency.resumes_per_mutation", "count"},
      {"residency.dedup_ratio", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kNames;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double median(std::vector<double> samples) { return percentile(samples, 0.5); }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double peak_rss_mb() {
  // VmHWM belongs to this program image. getrusage's ru_maxrss would not do:
  // it survives exec, so it can report the launching process's peak instead.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double timed_setups(int times, const std::function<void()>& setup) {
  std::vector<double> walls;
  for (int i = 0; i < times; ++i) {
    const auto t0 = Clock::now();
    setup();
    walls.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return median(walls);
}

std::vector<SliceStats> run_slices(
    const Args& args, const std::vector<double>& samples,
    const std::function<void()>& unit,
    const std::function<void(const SliceStats&)>& slice_end) {
  // Short slices: many of them for a steady median, each still long enough
  // to span many units and several virtual seconds.
  const auto n = static_cast<std::size_t>(
      std::max(4.0, std::round(args.seconds / kSliceSeconds)));
  const double slice_s = args.seconds / static_cast<double>(n);
  std::vector<SliceStats> out;
  for (std::size_t s = 0; s < n; ++s) {
    SliceStats st;
    st.traced = args.trace && s % 2 == 1;
    Tracer::get().set_on(st.traced);
    const auto t0 = Clock::now();
    const auto budget = std::chrono::duration<double>(slice_s);
    while (Clock::now() - t0 < budget) {
      unit();
      ++st.units;
    }
    st.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    st.samples_end = samples.size();
    Tracer::get().set_on(false);
    slice_end(st);
    out.push_back(st);
  }
  // Per-slice unit rates, for a reader judging how steady the host was.
  std::fprintf(stderr, "homebench: units per second by slice:");
  for (const SliceStats& st : out) {
    std::fprintf(stderr, " %.1f%s", static_cast<double>(st.units) / st.wall_s,
                 st.traced ? "t" : "");
  }
  std::fprintf(stderr, "\n");
  return out;
}

double median_rate(const std::vector<SliceStats>& slices,
                   const std::vector<double>& amounts, bool traced) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < slices.size() && i < amounts.size(); ++i) {
    if (slices[i].traced != traced || slices[i].wall_s <= 0.0) continue;
    rates.push_back(amounts[i] / slices[i].wall_s);
  }
  return median(rates);
}

double median_rate_of(const std::vector<SliceStats>& slices,
                      const std::vector<double>& home_s, double amount) {
  double total = 0.0;
  for (const double h : home_s) total += h;
  return total > 0.0 ? median_rate(slices, home_s, false) * amount / total
                     : 0.0;
}

double latency_percentile(const std::vector<double>& samples, double q) {
  std::fprintf(stderr, "homebench: p%g of %zu latency samples\n", q * 100.0,
               samples.size());
  return percentile(samples, q);
}

// -- Tracing ---------------------------------------------------------------

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::Sim: return "sim";
    case Layer::Openflow: return "openflow";
    case Layer::Live: return "live";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::begin(Layer layer) {
  Open open;
  open.layer = layer;
  open.start_ns = now_ns();
  if (spans_.size() < kMaxKept) {
    Span span;
    span.parent = stack_.empty() ? 0 : stack_.back().id;
    span.layer = layer;
    span.start_ns = open.start_ns;
    spans_.push_back(span);
    open.id = static_cast<std::uint32_t>(spans_.size());
  } else {
    ++dropped_;
  }
  stack_.push_back(open);
}

void Tracer::end() {
  if (stack_.empty()) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t end = now_ns();
  const std::int64_t duration = end - open.start_ns;
  self_ns_[static_cast<std::size_t>(open.layer)] += duration - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.id != 0) spans_[open.id - 1].end_ns = end;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# spans kept %zu, dropped %llu\n", spans_.size(),
               static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "id\tparent\tlayer\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%u\t%s\t%lld\t%lld\n", i + 1, s.parent,
                 to_string(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// -- Shims -----------------------------------------------------------------

void IngressTimer::deliver(const hw::Bytes& frame) {
  if (!Tracer::get().on()) {
    inner_->deliver(frame);
    return;
  }
  // Keep an even sample of the frame mix for the parse probe.
  constexpr std::size_t kKeep = 4096;
  if (stats_.seen++ % 16 == 0 && stats_.captured.size() < kKeep) {
    stats_.captured.push_back(frame);
  }
  const std::uint64_t hits = datapath_.stats().microflow_hits;
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan span(Layer::Openflow);
    inner_->deliver(frame);
  }
  const std::int64_t dt = now_ns() - t0;
  if (datapath_.stats().microflow_hits > hits) {
    stats_.hit.add(dt);
  } else {
    stats_.miss.add(dt);
  }
}

std::uint64_t flow_key(std::uint8_t proto, std::uint16_t sport,
                       std::uint16_t dport) {
  return (std::uint64_t{proto} << 32) | (std::uint64_t{sport} << 16) | dport;
}

void SetupTimer::deliver(const hw::Bytes& frame) {
  if (!pending_.empty() && frame.size() >= 38 && frame[12] == 0x08 &&
      frame[13] == 0x00) {
    const std::size_t l4 = 14 + static_cast<std::size_t>(frame[14] & 0x0f) * 4;
    const std::uint8_t proto = frame[23];
    if (frame.size() >= l4 + 4 && (proto == 6 || proto == 17)) {
      const auto sport =
          static_cast<std::uint16_t>((frame[l4] << 8) | frame[l4 + 1]);
      const auto dport =
          static_cast<std::uint16_t>((frame[l4 + 2] << 8) | frame[l4 + 3]);
      const auto it = pending_.find(flow_key(proto, sport, dport));
      if (it != pending_.end()) {
        latencies_us_.push_back(static_cast<double>(now_ns() - it->second) *
                                1e-3);
        pending_.erase(it);
      }
    }
  }
  inner_->deliver(frame);
}

double parse_ns(const std::vector<hw::Bytes>& frames) {
  if (frames.empty()) return 0.0;
  std::size_t ok = 0;
  const std::int64_t t0 = now_ns();
  constexpr int kRounds = 8;
  for (int r = 0; r < kRounds; ++r) {
    for (const hw::Bytes& f : frames) {
      if (hw::net::ParsedPacket::parse(f)) ++ok;
    }
  }
  const std::int64_t dt = now_ns() - t0;
  if (ok == 0) return 0.0;
  return static_cast<double>(dt) /
         static_cast<double>(frames.size() * kRounds);
}

void ChannelCapture::tap(const hw::Bytes& encoded) {
  constexpr std::size_t kKeep = 4096;
  if (seen++ % 8 == 0 && messages.size() < kKeep) messages.push_back(encoded);
  bytes += encoded.size();
}

double codec_ns_per_msg(const std::vector<hw::Bytes>& messages) {
  if (messages.empty()) return 0.0;
  std::size_t bytes = 0;
  const std::int64_t t0 = now_ns();
  constexpr int kRounds = 4;
  for (int r = 0; r < kRounds; ++r) {
    for (const hw::Bytes& m : messages) {
      auto env = hw::ofp::decode(m);
      if (env) bytes += hw::ofp::encode(env.value()).size();
    }
  }
  const std::int64_t dt = now_ns() - t0;
  if (bytes == 0) return 0.0;
  return static_cast<double>(dt) /
         static_cast<double>(messages.size() * kRounds);
}

double scalar(const std::map<std::string, double>& scalars,
              const std::string& name) {
  const auto it = scalars.find(name);
  return it == scalars.end() ? 0.0 : it->second;
}

hw::telemetry::HistogramState histogram(
    const hw::telemetry::MetricRegistry& registry, const std::string& name) {
  const auto states = registry.histogram_states();
  const auto it = states.find(name);
  return it == states.end() ? hw::telemetry::HistogramState{} : it->second;
}

}  // namespace hb
