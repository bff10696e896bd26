// Guards the benchmark harness itself: determinism (same seed -> identical
// report) and the headline orderings the paper's figures rely on.
#include <gtest/gtest.h>

#include <string>

#include "harness.hpp"

namespace bft::bench {
namespace {

TEST(HarnessTest, LanThroughputDeterministicPerSeed) {
  LanConfig config;
  config.orderers = 4;
  config.block_size = 10;
  config.envelope_size = 1024;
  config.receivers = 2;
  config.warmup_s = 0.2;
  config.measure_s = 0.3;
  config.seed = 42;
  const LanResult a = run_lan_throughput(config);
  const LanResult b = run_lan_throughput(config);
  EXPECT_EQ(a.throughput_tps, b.throughput_tps);
  EXPECT_EQ(a.block_rate, b.block_rate);
  EXPECT_GT(a.throughput_tps, 1000.0);
}

TEST(HarnessTest, LanThroughputDecreasesWithClusterSizeForLargeEnvelopes) {
  // §6.2: 1-4 KB envelopes are replication-protocol-bound, so more replicas
  // mean a bigger PROPOSE fan-out and lower throughput.
  double prev = 1e18;
  for (std::uint32_t orderers : {4u, 7u, 10u}) {
    LanConfig config;
    config.orderers = orderers;
    config.block_size = 10;
    config.envelope_size = 4096;
    config.receivers = 1;
    config.warmup_s = 0.2;
    config.measure_s = 0.4;
    const double tps = run_lan_throughput(config).throughput_tps;
    EXPECT_LT(tps, prev) << "n=" << orderers;
    prev = tps;
  }
}

TEST(HarnessTest, SigningBoundsSmallEnvelopeThroughput) {
  // 10-envelope blocks with 40 B envelopes are signing-bound: measured
  // throughput sits below the Eq. (1) bound but above half of the
  // contention-free bound (the paper's 84k -> ~50k effect).
  LanConfig config;
  config.orderers = 4;
  config.block_size = 10;
  config.envelope_size = 40;
  config.receivers = 1;
  config.warmup_s = 0.2;
  config.measure_s = 0.4;
  const LanResult r = run_lan_throughput(config);
  EXPECT_LT(r.throughput_tps, r.sign_bound_tps);
  EXPECT_GT(r.throughput_tps, r.sign_bound_tps * 0.4);
}

TEST(HarnessTest, GeoWheatBeatsBftSmartEverywhere) {
  GeoConfig base;
  base.block_size = 10;
  base.envelope_size = 1024;
  base.duration_s = 3.0;
  base.rate_per_frontend = 200.0;

  GeoConfig wheat = base;
  wheat.wheat = true;
  const GeoResult classic = run_geo_latency(base);
  const GeoResult fast = run_geo_latency(wheat);
  ASSERT_EQ(classic.median_ms.size(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_GT(classic.samples[j], 100u);
    EXPECT_LT(fast.median_ms[j], classic.median_ms[j])
        << classic.frontend_names[j];
  }
  // §6.3: the Vmin frontend (São Paulo, index 3) is slower than the Vmax
  // frontend (Virginia, index 2) under WHEAT.
  EXPECT_GT(fast.median_ms[3], fast.median_ms[2] + 40.0);
}

TEST(HarnessTest, LanMetricsExportDoesNotPerturbResults) {
  // Instrumentation must be a pure observer: the same seed with and without
  // collect_metrics produces identical throughput, and two instrumented runs
  // produce byte-identical JSON.
  LanConfig config;
  config.orderers = 4;
  config.block_size = 10;
  config.envelope_size = 1024;
  config.receivers = 1;
  config.warmup_s = 0.2;
  config.measure_s = 0.3;
  config.seed = 7;
  const LanResult plain = run_lan_throughput(config);
  config.collect_metrics = true;
  const LanResult a = run_lan_throughput(config);
  const LanResult b = run_lan_throughput(config);
  EXPECT_TRUE(plain.metrics_json.empty());
  EXPECT_EQ(plain.throughput_tps, a.throughput_tps);
  EXPECT_EQ(plain.block_rate, a.block_rate);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  // The export carries the documented sections and the pipeline's key stages.
  for (const char* needle :
       {"\"labels\"", "\"counters\"", "\"histograms\"", "\"trace\"",
        "\"ordering.envelopes_ordered\"", "\"smr.batches_decided\"",
        "\"sign_to_push\"", "\"push_to_frontend_accept\"",
        "\"submit_to_propose\""}) {
    EXPECT_NE(a.metrics_json.find(needle), std::string::npos) << needle;
  }
}

TEST(HarnessTest, LanMetricsExportHoldsEveryProbeInstrument) {
  // The probe replica, its ordering node, the frontends and the sim cluster
  // record into the exported registry, never into registries of their own.
  LanConfig config;
  config.orderers = 4;
  config.block_size = 10;
  config.receivers = 1;
  config.warmup_s = 0.05;
  config.measure_s = 0.1;
  config.collect_metrics = true;
  const LanResult result = run_lan_throughput(config);
  for (const char* name :
       {"smr.requests_received", "smr.batches_proposed", "smr.batches_decided",
        "smr.requests_executed", "smr.pushes_sent", "smr.regency_changes",
        "smr.state_transfers", "smr.state_chunks_sent",
        "smr.state_chunks_received", "smr.pending_requests", "smr.batch_size",
        "smr.proposal_holds", "smr.proposal_hold_ns",
        "smr.propose_to_write_quorum_ns", "smr.write_quorum_to_decide_ns",
        "smr.propose_to_decide_ns", "consensus.write_votes",
        "consensus.accept_votes", "consensus.duplicate_votes",
        "ordering.envelopes_ordered", "ordering.blocks_cut",
        "ordering.blocks_signed", "ordering.cut_markers",
        "ordering.pending_envelopes", "ordering.block_fill", "ordering.sign_ns",
        "frontend.submitted", "frontend.pushes_received",
        "frontend.delivered_blocks", "frontend.delivered_envelopes",
        "frontend.submit_to_deliver_ns", "sim.messages_delivered",
        "sim.timers_fired", "sim.worker_jobs", "sim.executed_events",
        "sim.now_ns", "sim.protocol_utilization_ppm"}) {
    EXPECT_NE(result.metrics_json.find('"' + std::string(name) + '"'),
              std::string::npos)
        << name;
  }
}

TEST(HarnessTest, GeoMetricsExportClosesEndToEndChain) {
  // Geo frontends submit and receive, so per-envelope chains close with
  // submit_to_frontend_accept (the latency the paper's Figs. 8/9 report).
  GeoConfig config;
  config.duration_s = 2.0;
  config.rate_per_frontend = 150.0;
  config.collect_metrics = true;
  const GeoResult r = run_geo_latency(config);
  EXPECT_NE(r.metrics_json.find("\"submit_to_frontend_accept\""),
            std::string::npos);
  EXPECT_NE(r.metrics_json.find("\"frontend.submit_to_deliver_ns\""),
            std::string::npos);
}

TEST(HarnessTest, GeoDeterministicPerSeed) {
  GeoConfig config;
  config.wheat = true;
  config.duration_s = 2.0;
  config.rate_per_frontend = 150.0;
  config.seed = 9;
  const GeoResult a = run_geo_latency(config);
  const GeoResult b = run_geo_latency(config);
  EXPECT_EQ(a.median_ms, b.median_ms);
  EXPECT_EQ(a.p90_ms, b.p90_ms);
  EXPECT_EQ(a.samples, b.samples);
}

}  // namespace
}  // namespace bft::bench
