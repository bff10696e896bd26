// Figure 7 (a-f) — BFT-SMaRt ordering-service throughput on a Gigabit LAN
// for different envelope sizes, block sizes, cluster sizes and receiver
// counts, plus the Eq. (1) signing bound.
//
// Defaults regenerate all six panels:
//   orderers in {4, 7, 10} x block size in {10, 100},
//   envelope sizes {40 B, 200 B, 1 KB, 4 KB}, receivers {1, 2, 4, 8, 16, 32}.
//
// Flags narrow the sweep: --orderers 4 --block 10 --receivers 1,2,4
// --sizes 40,1024 --measure-s 1.2 --seed 1
//
// --workers N,M adds the staged-pipeline dimension: each panel re-runs with
// that many prologue workers per ordering node (0 = serial reference path;
// see DESIGN.md §10). Workers only move cells where the protocol thread is
// the bound — the 100-envelope/small-payload panels — and leave sign-bound
// cells unchanged.
//
// Unless --metrics-out none, every cell also exports its per-stage latency
// breakdown (obs registry + trace, schema in OBSERVABILITY.md) and the sweep
// writes them as a JSON array, one object per cell, default
// fig7_lan_metrics.json. --json-out FILE additionally writes a coarse
// per-cell summary (throughput + signing bound) for regression snapshots.
#include <cstdio>
#include <sstream>

#include "common/cli.hpp"
#include "harness.hpp"

using namespace bft;
using bench::LanConfig;
using bench::LanResult;

namespace {

std::vector<std::uint64_t> parse_list(const std::string& text) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoull(item));
  return out;
}

/// One sweep cell for the --json-out summary snapshot (the coarse numbers a
/// regression diff cares about; --metrics-out keeps the per-stage detail).
struct SummaryCell {
  std::uint32_t orderers;
  std::size_t block_size;
  std::uint32_t workers;
  std::uint64_t envelope_size;
  std::uint64_t receivers;
  double throughput_tps;
  double sign_bound_tps;
};

void run_panel(std::uint32_t orderers, std::size_t block_size,
               std::uint32_t workers, const std::vector<std::uint64_t>& sizes,
               const std::vector<std::uint64_t>& receivers, double measure_s,
               std::uint64_t seed, std::vector<std::string>* metrics_json,
               std::vector<SummaryCell>* summary) {
  std::printf("--- %u orderers, %zu envelopes/block, %u prologue workers ---\n",
              orderers, block_size, workers);
  std::printf("%10s |", "env size");
  for (std::uint64_t r : receivers) std::printf("  r=%-8llu", (unsigned long long)r);
  std::printf("   sign-bound (Eq.1)\n");
  for (std::uint64_t size : sizes) {
    std::printf("%9lluB |", (unsigned long long)size);
    double bound = 0;
    for (std::uint64_t r : receivers) {
      LanConfig config;
      config.orderers = orderers;
      config.block_size = block_size;
      config.envelope_size = static_cast<std::size_t>(size);
      config.receivers = static_cast<std::uint32_t>(r);
      config.measure_s = measure_s;
      config.seed = seed;
      config.workers = workers;
      config.collect_metrics = metrics_json != nullptr;
      const LanResult result = bench::run_lan_throughput(config);
      if (metrics_json != nullptr) metrics_json->push_back(result.metrics_json);
      if (summary != nullptr) {
        summary->push_back({orderers, block_size, workers, size, r,
                            result.throughput_tps, result.sign_bound_tps});
      }
      bound = result.sign_bound_tps;
      std::printf("  %-9s", bench::format_k(result.throughput_tps).c_str());
      std::fflush(stdout);
    }
    std::printf("   %s tx/s\n", bench::format_k(bound).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto orderers_list =
      parse_list(flags.get("orderers", "4,7,10"));
  const auto block_list = parse_list(flags.get("block", "10,100"));
  const auto sizes = parse_list(flags.get("sizes", "40,200,1024,4096"));
  const auto receivers = parse_list(flags.get("receivers", "1,2,4,8,16,32"));
  const auto workers_list = parse_list(flags.get("workers", "0"));
  const double measure_s = flags.get_double("measure-s", 1.2);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string metrics_out =
      flags.get("metrics-out", "fig7_lan_metrics.json");
  const std::string json_out = flags.get("json-out", "");
  const std::string unused = flags.unused();
  if (!unused.empty()) {
    std::fprintf(stderr, "unknown flags: %s\n", unused.c_str());
    return 2;
  }

  std::printf("=== Figure 7: ordering-service throughput (tx/s) vs number of "
              "receivers ===\n");
  std::printf("(simulated Gigabit LAN; 16-thread nodes; paper-calibrated "
              "ECDSA cost 1.905 ms; 32 closed-loop submitters on 2 client "
              "machines; batch limit 400)\n\n");
  std::vector<std::string> metrics;
  std::vector<SummaryCell> summary;
  const bool want_metrics = !metrics_out.empty() && metrics_out != "none";
  for (std::uint64_t n : orderers_list) {
    for (std::uint64_t bs : block_list) {
      for (std::uint64_t w : workers_list) {
        run_panel(static_cast<std::uint32_t>(n), static_cast<std::size_t>(bs),
                  static_cast<std::uint32_t>(w), sizes, receivers, measure_s,
                  seed, want_metrics ? &metrics : nullptr,
                  json_out.empty() ? nullptr : &summary);
      }
    }
  }
  if (!json_out.empty()) {
    std::FILE* out = std::fopen(json_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < summary.size(); ++i) {
      const SummaryCell& c = summary[i];
      std::fprintf(out,
                   "  {\"bench\": \"fig7_lan\", \"mode\": \"sim\", "
                   "\"orderers\": %u, \"block_size\": %zu, \"workers\": %u, "
                   "\"envelope_bytes\": %llu, "
                   "\"receivers\": %llu, \"throughput_tps\": %.0f, "
                   "\"sign_bound_tps\": %.0f}%s\n",
                   c.orderers, c.block_size, c.workers,
                   static_cast<unsigned long long>(c.envelope_size),
                   static_cast<unsigned long long>(c.receivers),
                   c.throughput_tps, c.sign_bound_tps,
                   i + 1 < summary.size() ? "," : "");
    }
    std::fputs("]\n", out);
    std::fclose(out);
    std::printf("\nsummary snapshot: %zu cells -> %s\n", summary.size(),
                json_out.c_str());
  }
  if (want_metrics) {
    std::FILE* out = std::fopen(metrics_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::fputs(metrics[i].c_str(), out);
      if (i + 1 < metrics.size()) std::fputs(",", out);
      std::fputs("\n", out);
    }
    std::fputs("]\n", out);
    std::fclose(out);
    std::printf("\nper-stage metrics: %zu cells -> %s (schema: "
                "OBSERVABILITY.md)\n",
                metrics.size(), metrics_out.c_str());
  }
  std::printf(
      "paper's shape checks: (i) 10 env/block peaks ~50k tx/s, well below\n"
      "the Eq.(1) signing bound, because signing contends with the protocol\n"
      "stack; (ii) 100 env/block lifts small-envelope throughput (block rate\n"
      "~1.1k/s, no CPU exhaustion); (iii) 1-4 KB envelopes are bounded by the\n"
      "replication protocol and drop with cluster size; (iv) at 16-32\n"
      "receivers all curves converge (block fan-out dominates).\n");
  return 0;
}
