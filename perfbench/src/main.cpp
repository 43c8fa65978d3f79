// mvsim benchmark driver binary; run it through ../run.py, which builds
// it first. Usage:
//
//   mvsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--tiny] [--print-pins] [--out DIR]
//                   [--git-sha SHA] [--source-digest HEX]
//
// Prints a provenance record, a readable metric table and, as the last
// line of standard output, the result object
// {"correct", "attempted", "failed", "metrics"}. Bad arguments and an
// unusable --out directory exit 2 before anything runs.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py --self-test checks it).
constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},       {"events_per_s", "1/s"}, {"cpu_s", "s"},
    {"setup_s", "s"},      {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.build_s", "s"},
    {"graph.bytes_per_phone", "B"},
    {"core.setup_other_s", "s"},
    {"core.run_s", "s"},
    {"core.collect_s", "s"},
    {"core.other_event_s", "s"},
    {"core.dispatch.hook_calls", "count"},
    {"core.dispatch.hooks_skipped", "count"},
    {"core.infections", "count"},
    {"des.loop_s", "s"},
    {"des.ns_per_event_loop", "ns"},
    {"des.events_executed", "count"},
    {"des.events_scheduled", "count"},
    {"des.cancelled_per_scheduled", "ratio"},
    {"des.queue_depth_peak", "count"},
    {"virus.send_s", "s"},
    {"virus.reboot_s", "s"},
    {"virus.legit_traffic_s", "s"},
    {"virus.ns_per_send", "ns"},
    {"net.delivery_s", "s"},
    {"net.ns_per_delivery", "ns"},
    {"net.messages_submitted", "count"},
    {"net.recipients_delivered", "count"},
    {"net.invalid_recipients_dropped", "count"},
    {"net.messages_blocked", "count"},
    {"phone.read_s", "s"},
    {"phone.ns_per_read", "ns"},
    {"phone.table_bytes_per_phone", "B"},
    {"response.s", "s"},
    {"response.events", "count"},
    {"mobility.s", "s"},
    {"stats.sample_s", "s"},
    {"rng.draws_per_event", "ratio"},
    {"mem.run_growth_bytes_per_infected", "B"},
    {"alloc.setup_count", "count"},
    {"alloc.run_count", "count"},
    {"alloc.run_per_infection", "ratio"},
    {"alloc.run_bytes", "B"},
    {"runner.parallel_efficiency", "ratio"},
    {"shard.windows", "count"},
    {"shard.mailbox_sent", "count"},
    {"shard.barrier_wait_s", "s"},
    {"shard.window_imbalance_p90", "ratio"},
    {"shard.events_max_over_mean", "ratio"},
    {"shard.cut_edge_fraction", "ratio"},
    {"trace.overhead_s", "s"},
    {"trace.coverage", "ratio"},
};

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  Options options;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw UsageError(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw UsageError(flag + " expects a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.options.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.options.seed = parse_u64(flag, value());
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t seconds = parse_u64(flag, value());
      if (seconds < 1 || seconds > 3600) throw UsageError("--seconds must be in [1, 3600]");
      args.options.seconds = static_cast<double>(seconds);
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1") throw UsageError("--trace expects 0 or 1");
      args.options.trace = trace == "1";
      have_trace = true;
    } else if (flag == "--tiny") {
      args.options.tiny = true;
    } else if (flag == "--print-pins") {
      args.options.print_pins = true;
    } else if (flag == "--out") {
      args.out_dir = value();
    } else if (flag == "--git-sha") {
      args.git_sha = value();
    } else if (flag == "--source-digest") {
      args.source_digest = value();
    } else {
      throw UsageError("unknown argument '" + flag + "'");
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  bool known = false;
  for (const std::string& name : workload_names()) known = known || name == args.options.workload;
  if (!known) throw UsageError("unknown workload '" + args.options.workload + "'");
  if (!args.options.print_pins && !(have_seed && have_seconds && have_trace)) {
    throw UsageError("--seed, --seconds and --trace are required");
  }
  return args;
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto value = line.find_first_not_of(" \t", line.find(':') + 1);
      if (line.find(':') != std::string::npos && value != std::string::npos) {
        return line.substr(value);
      }
    }
  }
  return "unknown";
}

std::string provenance_json(const Args& args) {
  const Options& o = args.options;
  return "{\"provenance\": {\"workload\": " + quoted(o.workload) +
         ", \"seed\": " + std::to_string(o.seed) + ", \"seconds\": " + number(o.seconds) +
         ", \"trace\": " + (o.trace ? "1" : "0") + ", \"tiny\": " + (o.tiny ? "true" : "false") +
         ", \"git_sha\": " + quoted(args.git_sha) +
         ", \"source_digest\": " + quoted(args.source_digest) +
         ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + quoted(cpu_model()) + "}}";
}

/// Fails with exit 2 before any measurement when --out is unusable.
void probe_out_dir(const std::string& dir) {
  const std::string probe = dir + "/.perfbench_probe";
  std::ofstream file(probe);
  if (!file) throw UsageError("--out directory '" + dir + "' is missing or not writable");
  file.close();
  std::remove(probe.c_str());
}

int run(const Args& args) {
  const Options& options = args.options;
  if (options.print_pins) {
    const RunResult result = run_workload(options);
    for (const std::string& problem : result.problems) std::fprintf(stderr, "%s\n", problem.c_str());
    return result.failed == 0 ? 0 : 1;
  }
  RunResult result = run_workload(options);

  const std::span<const MetricSpec> catalogue =
      options.trace ? std::span<const MetricSpec>(kPerLayer) : std::span<const MetricSpec>(kEndToEnd);
  std::string metrics;
  for (const MetricSpec& spec : catalogue) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      result.problems.push_back(std::string("metric ") + spec.name + " was not measured");
    }
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    std::printf("  %-36s %18.6g %s\n", spec.name, value, spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(spec.name) + ": {\"value\": " + number(value) +
               ", \"unit\": " + quoted(spec.unit) + "}";
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  const bool correct = result.failed == 0 && result.problems.empty() && result.attempted > 0;
  const std::string record = "{\"correct\": " + std::string(correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(result.attempted) +
                             ", \"failed\": " + std::to_string(result.failed) +
                             ", \"metrics\": {" + metrics + "}}";
  const std::string provenance = provenance_json(args);
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0") + ".json";
    std::ofstream file(path);
    file << provenance << "\n" << record << "\n";
    if (!file) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  std::printf("%s\n%s\n", provenance.c_str(), record.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
    if (!args.out_dir.empty()) probe_out_dir(args.out_dir);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "mvsim_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mvsim_perfbench: %s\n", e.what());
    return 1;
  }
}
