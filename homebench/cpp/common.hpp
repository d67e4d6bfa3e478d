// Shared pieces of the homebench program: arguments, the result record each
// workload fills in, wall-clock helpers, the in-memory span tracer and the
// timing shims that sit on the program's public seams.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "openflow/datapath.hpp"
#include "sim/link.hpp"
#include "telemetry/metrics.hpp"
#include "util/bytes.hpp"

namespace hb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed correctness check.
  std::vector<std::string> errors;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Behavioural work counts at the workload's fixed count point. They must
  /// repeat exactly for one commit and seed, traced or not.
  std::map<std::string, std::uint64_t> counts;

  /// Records a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what);
  void add(const std::string& name, double value, const std::string& unit);
};

/// The end-to-end metric names every untraced run must report, and the
/// per-layer names every traced run must report (BENCHMARK.json lists the
/// same names). A layer a workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Nearest-rank percentile (q in [0,1]) of unsorted samples.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);
/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Repeats `setup` `times` times (each builds a fresh world and throws the
/// previous one away) and returns the median wall seconds.
double timed_setups(int times, const std::function<void()>& setup);

/// The measured phase: `seconds` of wall time split into slices of
/// kSliceSeconds. Each slice calls `unit` until the slice's time is spent;
/// `slice_end` sees the slice's wall seconds and unit count (slice
/// bookkeeping is not timed). In a traced run odd slices are traced and even
/// slices are not, so traced and untraced throughput come from the same
/// process and world. `samples_end` is the size of the workload's
/// latency-sample vector when the slice ended, so each slice's samples can be
/// told apart.
inline constexpr double kSliceSeconds = 0.25;
struct SliceStats {
  double wall_s = 0.0;
  std::uint64_t units = 0;
  bool traced = false;
  std::size_t samples_end = 0;
};
std::vector<SliceStats> run_slices(
    const Args& args, const std::vector<double>& samples,
    const std::function<void()>& unit,
    const std::function<void(const SliceStats&)>& slice_end);

/// Median over slices of (per-slice amount / slice wall seconds), using only
/// slices with the given traced flag. The end-to-end rates are the median
/// over the untraced slices: on a shared host, other tenants' load slows a
/// run for seconds to minutes at a time, and a median over a long run
/// follows the level the host holds for most of it, where the fastest few
/// slices of a run follow whether a brief lull happened to fall in it.
double median_rate(const std::vector<SliceStats>& slices,
                   const std::vector<double>& amounts, bool traced);

/// Rate of `amount` (done over the whole measured phase): median_rate of
/// untraced home-seconds times `amount` per simulated home-second. How many
/// frames a home-second carries varies with what the homes happen to do in a
/// slice; taking it over the whole phase keeps that out of the rate.
double median_rate_of(const std::vector<SliceStats>& slices,
                      const std::vector<double>& home_s, double amount);
/// Percentile q of the latency samples; prints their count to stderr.
double latency_percentile(const std::vector<double>& samples, double q);

// -- Tracing ---------------------------------------------------------------

/// Layers a span can be attributed to (the src/ modules the benchmark calls
/// into directly).
enum class Layer : std::uint8_t { Sim, Openflow, Live, kCount };
const char* to_string(Layer layer);

/// Spans recorded around the benchmark's own calls into the program. Self
/// time of a span is its duration minus the time its child spans cover.
/// Spans stay in memory (capped) and are written out at exit.
class Tracer {
 public:
  static Tracer& get();

  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  void begin(Layer layer);
  void end();

  [[nodiscard]] double self_seconds(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  /// Writes every kept span as TSV (id, parent, layer, start_ns, end_ns).
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t parent = 0;  // 0 = root
    Layer layer = Layer::Sim;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Open {
    std::uint32_t id = 0;  // index + 1 into spans_, 0 when not kept
    Layer layer = Layer::Sim;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };
  static constexpr std::size_t kMaxKept = 1u << 18;

  bool on_ = false;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::vector<Open> stack_;
  std::int64_t self_ns_[static_cast<std::size_t>(Layer::kCount)] = {};
};

/// RAII span; does nothing while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : on_(Tracer::get().on()) {
    if (on_) Tracer::get().begin(layer);
  }
  ~ScopedSpan() {
    if (on_) Tracer::get().end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
};

/// Running sum of nanosecond samples.
struct NsStat {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  void add(std::int64_t ns) {
    ++count;
    total_ns += ns;
  }
  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
};

/// Datapath-side timing, shared by every IngressTimer of a workload.
struct IngressStats {
  NsStat hit;
  NsStat miss;
  /// A sample of the frames the datapaths received, for the parse probe.
  std::vector<hw::Bytes> captured;
  std::uint64_t seen = 0;
};

/// Timing FrameSink between a device link (or the upstream) and a datapath
/// port's ingress. While tracing it times each delivery as an openflow span
/// and splits it into microflow hits and misses by the datapath's counter.
class IngressTimer final : public hw::sim::FrameSink {
 public:
  IngressTimer(hw::sim::FrameSink* inner, const hw::ofp::Datapath& datapath,
               IngressStats& stats)
      : inner_(inner), datapath_(datapath), stats_(stats) {}
  void deliver(const hw::Bytes& frame) override;

 private:
  hw::sim::FrameSink* inner_;
  const hw::ofp::Datapath& datapath_;
  IngressStats& stats_;
};

/// Key of a flow's first packet as seen leaving a datapath: protocol and L4
/// ports read straight from the frame bytes.
std::uint64_t flow_key(std::uint8_t proto, std::uint16_t sport,
                       std::uint16_t dport);

/// Output-side shim between a datapath port and its link (or the upstream).
/// When a frame of a flow in `pending` leaves, the flow's setup latency (host
/// time since its first packet was sent) is recorded and the flow retired.
class SetupTimer final : public hw::sim::FrameSink {
 public:
  using Pending = std::unordered_map<std::uint64_t, std::int64_t>;
  SetupTimer(hw::sim::FrameSink* inner, Pending& pending,
             std::vector<double>& latencies_us)
      : inner_(inner), pending_(pending), latencies_us_(latencies_us) {}
  void deliver(const hw::Bytes& frame) override;

 private:
  hw::sim::FrameSink* inner_;
  Pending& pending_;
  std::vector<double>& latencies_us_;
};

/// Mean ns of hw::net::ParsedPacket::parse over the captured frames.
double parse_ns(const std::vector<hw::Bytes>& frames);

/// OpenFlow messages captured with ChannelEndpoint::set_tap, for the codec
/// probe, plus the bytes and message count the taps saw.
struct ChannelCapture {
  std::vector<hw::Bytes> messages;
  std::uint64_t seen = 0;
  std::uint64_t bytes = 0;
  void tap(const hw::Bytes& encoded);
};
/// Mean ns of one ofp::decode + ofp::encode round over the captured messages.
double codec_ns_per_msg(const std::vector<hw::Bytes>& messages);

/// Summed value of a scalar series, 0 when absent.
double scalar(const std::map<std::string, double>& scalars,
              const std::string& name);
/// Histogram state of `name` in `registry` (empty when absent).
hw::telemetry::HistogramState histogram(
    const hw::telemetry::MetricRegistry& registry, const std::string& name);

}  // namespace hb
