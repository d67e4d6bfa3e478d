// homebench: runs one workload of the router benchmark and prints, in order,
// an `env` stamp line, a `counts` line of deterministic work counts, and as
// the last line the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (untraced) or every per-layer metric
// (--trace 1). Exits 1 when a correctness check fails.
//
// Usage: homebench --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out PATH]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "workloads.hpp"

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

int usage(const char* why) {
  std::fprintf(stderr,
               "homebench: %s\nusage: homebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hb::Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("missing value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage(("unknown argument " + flag).c_str());
    }
  }
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  hb::Outcome out;
  if (args.workload == "evening-fleet") {
    out = hb::run_evening_fleet(args);
  } else if (args.workload == "fastpath-stream") {
    out = hb::run_fastpath_stream(args);
  } else if (args.workload == "flow-churn") {
    out = hb::run_flow_churn(args);
  } else if (args.workload == "operator-live") {
    out = hb::run_operator_live(args);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf("env {\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"ndebug\": %s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d}\n",
              HB_BUILD_TYPE, HB_COMPILER, ndebug ? "true" : "false",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0);
  if (!ndebug) {
    std::fprintf(stderr,
                 "homebench: WARNING: built without NDEBUG; sim::EventLoop "
                 "checks thread ownership on every call, timings are not "
                 "comparable\n");
  }

  std::printf("counts {");
  bool first = true;
  for (const auto& [name, value] : out.counts) {
    std::printf("%s\"%s\": %llu", first ? "" : ", ", name.c_str(),
                static_cast<unsigned long long>(value));
    first = false;
  }
  std::printf("}\n");

  // Every declared metric is reported, by name, exactly once.
  const auto& declared =
      args.trace ? hb::per_layer_metrics() : hb::end_to_end_metrics();
  std::set<std::string> seen;
  for (const auto& m : out.metrics) {
    bool known = false;
    for (const auto& [name, unit] : declared) known |= name == m.name;
    out.check(known, "undeclared metric " + m.name);
    out.check(seen.insert(m.name).second, "metric reported twice: " + m.name);
    out.check(std::isfinite(m.value), "metric is not finite: " + m.name);
  }
  for (const auto& [name, unit] : declared) {
    if (seen.count(name) != 0) continue;
    // A layer this workload never calls into did no work in it.
    out.check(args.trace, "end-to-end metric missing: " + name);
    out.add(name, 0.0, unit);
  }
  for (const auto& e : out.errors) {
    std::fprintf(stderr, "homebench: check failed: %s\n", e.c_str());
  }
  if (args.trace && !args.trace_out.empty() &&
      !hb::Tracer::get().write(args.trace_out)) {
    std::fprintf(stderr, "homebench: cannot write %s\n",
                 args.trace_out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  first = true;
  for (const auto& m : out.metrics) {
    std::printf("%s", first ? "" : ", ");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ",
                std::isfinite(m.value) ? m.value : 0.0);
    print_json_string(m.unit);
    std::printf("}");
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}
