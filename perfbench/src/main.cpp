// perfbench_run — wall-clock benchmark of the TCP ordering stack.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--workdir <dir>]
//
// Prints progress lines, then as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (set-up time is the median of the three quietest
// of five set-ups); with --trace 1 an untraced pass is followed by a traced
// one and the metrics are the per-layer ones. See README.md for definitions.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "common/cli.hpp"
#include "harness.hpp"

namespace {

constexpr int kSetupsPerRun = 5;
// A timed window short of quiet slices may run this much longer.
constexpr double kMaxExtensionSeconds = 20.0;
constexpr double kPrewarmSeconds = 1.0;

struct Metric {
  double value;
  std::string unit;
};

// Every metric the benchmark prints, with its unit (README.md defines them).
const std::map<std::string, std::string> kEndToEndUnits = {
    {"setup_s", "s"},         {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"cpu_ms_per_kenv", "ms"}, {"peak_rss_mb", "MB"},    {"failover_ms", "ms"},
};
const std::map<std::string, std::string> kPerLayerUnits = {
    {"crypto.block_sign.per_kenv", "1/kenv"},
    {"crypto.block_sign.us_p50", "us"},
    {"crypto.block_verify.per_kenv", "1/kenv"},
    {"crypto.block_verify.us_p50", "us"},
    {"crypto.self_ms_per_kenv", "ms"},
    {"smr.request.per_kenv", "1/kenv"},
    {"smr.forward.per_kenv", "1/kenv"},
    {"smr.propose.per_kenv", "1/kenv"},
    {"smr.write.per_kenv", "1/kenv"},
    {"smr.accept.per_kenv", "1/kenv"},
    {"smr.prologue.write.us_p50", "us"},
    {"smr.consume.propose.us_p50", "us"},
    {"smr.consume.accept.us_p50", "us"},
    {"smr.envelopes_per_instance", "env"},
    {"smr.leader_loop_busy_pct", "%"},
    {"smr.self_ms_per_kenv", "ms"},
    {"smr.regency_changes", "count"},
    {"smr.viewchange.msgs", "count"},
    {"smr.state_chunks", "count"},
    {"smr.rejoin_ms", "ms"},
    {"ordering.frontend.push.per_block", "1/block"},
    {"ordering.frontend.prologue.push.us_p50", "us"},
    {"ordering.frontend.consume.push.us_p50", "us"},
    {"ordering.sign_queue_ms_p99", "ms"},
    {"runtime.inbox_wait_us_p50", "us"},
    {"runtime.inbox_wait_us_p99", "us"},
    {"runtime.runner.reorder_wait_us_p99", "us"},
    {"runtime.runner.worker_busy_pct", "%"},
    {"runtime.inbox_dropped", "count"},
    {"transport.frames_per_env", "1/env"},
    {"transport.bytes_per_env", "B/env"},
    {"transport.send.us_p50", "us"},
    {"transport.send_dropped", "count"},
    {"transport.reconnects", "count"},
    {"storage.wal_appends_per_kenv", "1/kenv"},
    {"storage.fsync_ms_p99", "ms"},
    {"storage.replayed_records", "count"},
    {"gen.lag_ms_p99", "ms"},
    {"host.cpu_probe_mops", "Mops/s"},
    {"host.steal_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"trace.spans_dropped", "count"},
    {"setup.port_retries", "count"},
};

/// Fills `out` from `values`, which must name exactly the metrics in `units`.
bool fill_metrics(const std::map<std::string, double>& values,
                  const std::map<std::string, std::string>& units,
                  std::map<std::string, Metric>& out) {
  bool complete = values.size() == units.size();
  for (const auto& [name, value] : values) {
    const auto unit = units.find(name);
    if (unit == units.end()) {
      std::fprintf(stderr, "perfbench_run: metric %s has no unit\n", name.c_str());
      complete = false;
      continue;
    }
    out[name] = {value, unit->second};
  }
  return complete;
}

void list_metrics() {
  for (const auto* table : {&kEndToEndUnits, &kPerLayerUnits}) {
    for (const auto& [name, unit] : *table) {
      std::printf("%s %s %s\n", table == &kEndToEndUnits ? "end_to_end" : "per_layer",
                  name.c_str(), unit.c_str());
    }
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    const double v = std::isfinite(metric.value) ? metric.value : 1e9;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void report_pass(const char* label, const perfbench::PassResult& r) {
  std::printf("%s: attempted=%llu failed=%llu regency_changes=%llu port_retries=%d "
              "dropped_frames=%llu\n",
              label, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.regency_changes), r.port_retries,
              static_cast<unsigned long long>(r.dropped_frames));
  std::printf("%s: latency_samples=%llu latency_p50_ms=%.3f latency_p99_ms=%.3f "
              "gen_lag_ms_p99=%.3f\n",
              label, static_cast<unsigned long long>(r.latency_samples), r.latency_p50_ms,
              r.latency_p99_ms, r.gen_lag_ms_p99);
  std::printf("%s: host_steal_pct=%.2f quiet_slices=%zu/%zu quiet_steal_max_pct=%.2f\n",
              label, r.steal_pct, r.quiet_slices, r.slices, r.quiet_steal_pct);
  std::printf("%s: setups (steal%%/s):", label);
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    std::printf(" %.1f/%.3f", r.setup_steal_pct[i], r.setup_s[i]);
  }
  std::printf("\n");
  std::printf("%s: slices (steal%%/p50 ms):", label);
  for (std::size_t k = 0; k < r.slice_p50_ms.size(); ++k) {
    std::printf(" %.1f/%.1f", r.slice_steal_pct[k], r.slice_p50_ms[k]);
  }
  std::printf("\n");
  if (r.failed > 0) {
    std::printf("%s: undelivered envelopes were due %.3f s to %.3f s into the window\n",
                label, r.first_lost_due_s, r.last_lost_due_s);
  }
  for (const std::string& v : r.violations) {
    std::printf("%s: CHECK FAILED: %s\n", label, v.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bft::CliFlags flags(argc, argv);
  const std::string workload_name = flags.get("workload", "");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = static_cast<double>(flags.get_int("seconds", 10));
  const bool traced = flags.get_int("trace", 0) != 0;
  const std::string workdir =
      flags.get("workdir", ".perfbench/work-" + std::to_string(::getpid()));
  if (flags.get_bool("list-metrics", false)) {
    list_metrics();
    return 0;
  }
  const perfbench::Workload* workload = perfbench::find_workload(workload_name);
  if (!flags.unused().empty() || workload == nullptr || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n%s\n",
                 flags.unused().c_str());
    return 2;
  }

  std::filesystem::create_directories(workdir);
  perfbench::prewarm_cpu(kPrewarmSeconds);
  const double probe = perfbench::cpu_probe_mops();
  std::printf("workload=%s seed=%llu seconds=%g trace=%d host.cpu_probe_mops=%.1f\n",
              workload->name.c_str(), static_cast<unsigned long long>(seed), seconds,
              traced ? 1 : 0, probe);
  std::fflush(stdout);

  perfbench::PassOptions options;
  options.workload = *workload;
  options.seed = seed;
  options.seconds = seconds;
  options.workdir = workdir;

  std::map<std::string, double> values;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  try {
    if (!traced) {
      options.setups = kSetupsPerRun;
      options.max_extension_s = kMaxExtensionSeconds;
      perfbench::PassResult r = perfbench::run_pass(options);
      report_pass("timed", r);
      correct = r.violations.empty();
      attempted = r.attempted;
      failed = r.failed;
      values["setup_s"] = perfbench::quiet_setup_s(r);
      values["latency_p50_ms"] = r.latency_p50_ms;
      values["latency_p99_ms"] = r.latency_p99_ms;
      values["cpu_ms_per_kenv"] = r.cpu_ms_per_kenv;
      values["peak_rss_mb"] = r.peak_rss_mb;
      values["failover_ms"] = r.failover_ms;
    } else {
      perfbench::PassResult plain = perfbench::run_pass(options);
      report_pass("untraced", plain);
      options.traced = true;
      options.trace_out = ".perfbench/trace-" + workload->name + ".spans";
      perfbench::PassResult r = perfbench::run_pass(options);
      report_pass("traced", r);
      correct = plain.violations.empty() && r.violations.empty();
      attempted = plain.attempted + r.attempted;
      failed = plain.failed + r.failed;
      values = r.layers;
      values["host.cpu_probe_mops"] = probe;
      values["host.steal_pct"] = r.steal_pct;
      values["setup.port_retries"] =
          static_cast<double>(plain.port_retries + r.port_retries);
      values["trace.overhead_pct"] =
          (r.cpu_ms_per_kenv / plain.cpu_ms_per_kenv - 1.0) * 100.0;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_run: %s\n", error.what());
    std::filesystem::remove_all(workdir);
    return 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(workdir, ignored);
  std::map<std::string, Metric> metrics;
  if (!fill_metrics(values, traced ? kPerLayerUnits : kEndToEndUnits, metrics)) {
    std::fprintf(stderr, "perfbench_run: metric set does not match the table\n");
    return 1;
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}
