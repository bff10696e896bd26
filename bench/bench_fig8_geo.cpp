// Figures 8 and 9 — geo-distributed latency, BFT-SMaRt vs WHEAT.
//
// Reproduces §6.3: ordering nodes in Oregon/Ireland/Sydney/São Paulo
// (+ Virginia for WHEAT with Vmax on Oregon and Virginia), frontends in
// Canada, Oregon, Virginia and São Paulo; ~1200 tx/s of Poisson load;
// median and 90th-percentile submit-to-delivery latency per frontend and
// envelope size.
//
// This binary prints Figure 8 (blocks of 10 envelopes) by default; pass
// --block 100 for Figure 9.
#include <cstdio>

#include "common/cli.hpp"
#include "harness.hpp"

using namespace bft;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto block = static_cast<std::size_t>(flags.get_int("block", 10));
  const double duration = flags.get_double("duration-s", 8.0);
  const double rate = flags.get_double("rate", 300.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // Per-cell JSON export (schema: OBSERVABILITY.md); opt in with
  // --metrics-out <file>.
  const std::string metrics_out = flags.get("metrics-out", "none");
  const bool want_metrics = !metrics_out.empty() && metrics_out != "none";
  std::vector<std::string> metrics;

  std::printf("=== Figure %s: EC2-like WAN latency, blocks of %zu envelopes "
              "(4 receivers, ~%.0f tx/s) ===\n",
              block >= 100 ? "9" : "8", block, rate * 4);
  std::printf("(simulated WAN from measured AWS inter-region RTTs; WHEAT: "
              "5th replica in Virginia, Vmax on Oregon+Virginia, tentative "
              "execution)\n\n");

  const std::vector<std::size_t> sizes = {40, 200, 1024, 4096};
  for (bool wheat : {false, true}) {
    std::printf("%s\n", wheat ? "WHEAT" : "BFT-SMaRt");
    std::printf("  %10s |", "env size");
    bench::GeoConfig probe;
    probe.wheat = wheat;
    const auto names =
        (wheat ? ordering::paper_wheat_topology() : ordering::paper_bftsmart_topology())
            .frontend_regions;
    for (const auto region : names) {
      std::printf(" %-17s", sim::region_name(region).c_str());
    }
    std::printf("   (median / p90 ms)\n");
    for (std::size_t size : sizes) {
      bench::GeoConfig config;
      config.wheat = wheat;
      config.block_size = block;
      config.envelope_size = size;
      config.rate_per_frontend = rate;
      config.duration_s = duration;
      config.seed = seed;
      config.collect_metrics = want_metrics;
      const bench::GeoResult result = bench::run_geo_latency(config);
      if (want_metrics) metrics.push_back(result.metrics_json);
      std::printf("  %9zuB |", size);
      for (std::size_t j = 0; j < result.median_ms.size(); ++j) {
        std::printf(" %7.0f / %-7.0f", result.median_ms[j], result.p90_ms[j]);
      }
      std::printf("\n");
    }
    std::printf("\n");
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
    std::printf("per-stage metrics: %zu cells -> %s (schema: "
                "OBSERVABILITY.md)\n",
                metrics.size(), metrics_out.c_str());
  }
  return 0;
}
