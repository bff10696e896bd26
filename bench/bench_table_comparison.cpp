// The §8 comparison row: even the ordering service's WORST evaluated
// configuration (large blocks to 32 receivers on a 10-node cluster) beats
// Ethereum's theoretical 1,000 tx/s and Bitcoin's 7 tx/s — plus our
// crash-fault (Kafka-like) baseline for context on the cost of BFT.
#include <cstdio>

#include "common/cli.hpp"
#include "harness.hpp"
#include "ordering/crash_ordering.hpp"

using namespace bft;

namespace {

// Closed-loop throughput of the primary/backup CFT baseline on the same LAN.
double run_cft_throughput(std::uint32_t nodes, std::size_t envelope_size,
                          double measure_s) {
  const std::uint64_t seed = 1;
  runtime::SimCluster cluster(
      sim::make_lan(140, sim::kMillisecond / 20, sim::NetworkConfig{}, seed),
      seed);
  ordering::CrashOrderingOptions options;
  for (std::uint32_t i = 0; i < nodes; ++i) options.nodes.push_back(i);
  options.block_size = 10;
  std::vector<std::unique_ptr<ordering::CrashOrderingNode>> cft;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    cft.push_back(std::make_unique<ordering::CrashOrderingNode>(
        i, options, std::make_shared<ordering::StubBlockSigner>(i)));
    cluster.add_process(i, cft.back().get(), sim::CpuConfig{});
  }
  ordering::FrontendOptions fo;
  fo.required_copies = 1;
  fo.track_latency = false;
  ordering::Frontend receiver(smr::ClusterConfig::classic(options.nodes), fo);
  cluster.add_process(100, &receiver);
  ordering::FrontendOptions so = fo;
  so.receive_blocks = false;
  ordering::Frontend submitter(smr::ClusterConfig::classic(options.nodes), so);
  cluster.add_process(101, &submitter);

  const ordering::CrashOrderingNode* primary = cft.front().get();
  auto submitted = std::make_shared<std::uint64_t>(0);
  const auto total =
      static_cast<sim::SimTime>((0.4 + measure_s) * sim::kSecond);
  std::function<void()> top_up = [&cluster, &submitter, primary, submitted,
                                  envelope_size, total, &top_up] {
    while (*submitted < primary->committed() + 3000) {
      Bytes e(envelope_size, 0x5a);
      Writer w;
      w.u64((*submitted)++);
      std::copy(w.data().begin(), w.data().end(), e.begin());
      submitter.submit(std::move(e));
    }
    if (cluster.now() < total) {
      cluster.schedule_at(cluster.now() + sim::kMillisecond, [&top_up] { top_up(); });
    }
  };
  cluster.schedule_at(sim::kMillisecond / 10, [&top_up] { top_up(); });

  auto delivered_at_warmup = std::make_shared<std::uint64_t>(0);
  cluster.schedule_at(static_cast<sim::SimTime>(0.4 * sim::kSecond),
                      [&receiver, delivered_at_warmup] {
                        *delivered_at_warmup = receiver.delivered_envelopes();
                      });
  cluster.run_until(total);
  return static_cast<double>(receiver.delivered_envelopes() -
                             *delivered_at_warmup) /
         measure_s;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const double measure_s = flags.get_double("measure-s", 1.0);

  std::printf("=== §8 comparison: ordering-service throughput in context ===\n\n");

  bench::LanConfig best;
  best.orderers = 4;
  best.block_size = 100;
  best.envelope_size = 40;
  best.receivers = 2;
  best.measure_s = measure_s;
  const double best_tps = bench::run_lan_throughput(best).throughput_tps;

  bench::LanConfig worst;
  worst.orderers = 10;
  worst.block_size = 100;
  worst.envelope_size = 4096;
  worst.receivers = 32;
  worst.measure_s = measure_s;
  const double worst_tps = bench::run_lan_throughput(worst).throughput_tps;

  // The paper's 2.2k tx/s converged value implies ~10x more aggregate
  // bandwidth into the two client machines than plain 1 GbE (see
  // EXPERIMENTS.md); re-run with client NICs at 10 GbE to match the
  // implied testbed.
  bench::LanConfig worst10 = worst;
  worst10.client_bandwidth_bps = 1.25e9;
  const double worst10_tps = bench::run_lan_throughput(worst10).throughput_tps;

  const double cft_tps = run_cft_throughput(3, 1024, measure_s);

  std::printf("%-52s %14s\n", "system / configuration", "tx/s");
  std::printf("%-52s %14s\n",
              "BFT ordering, best evaluated (4 nodes, 40B, 100/blk)",
              bench::format_k(best_tps).c_str());
  std::printf("%-52s %14s\n",
              "BFT ordering, worst evaluated (10 nodes, 4KB, r=32)",
              bench::format_k(worst_tps).c_str());
  std::printf("%-52s %14s\n",
              "  ... same, client NICs at 10 GbE (paper-implied)",
              bench::format_k(worst10_tps).c_str());
  std::printf("%-52s %14s\n", "CFT (Kafka-like) baseline (3 nodes, 1KB)",
              bench::format_k(cft_tps).c_str());
  std::printf("%-52s %14s\n", "Ethereum (theoretical peak, [7])", "1.0k");
  std::printf("%-52s %14s\n", "Bitcoin (peak, [25])", "7");
  std::printf("\npaper's §8 claim: even the worst evaluated configuration "
              "(~2.2k tx/s on their\ntestbed) is >2x Ethereum's theoretical "
              "peak and vastly above Bitcoin.\n");
  return 0;
}
