#include "harness.hpp"

#include <cstdio>
#include <memory>

namespace bft::bench {

using runtime::ProcessId;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr ProcessId kReceiverBase = 100;
constexpr ProcessId kSubmitterBase = 200;

Bytes make_envelope(std::uint64_t id, std::size_t size) {
  Writer w(size);
  w.u64(id);
  Bytes e = std::move(w).take();
  e.resize(std::max<std::size_t>(size, 8), 0x5a);
  return e;
}

}  // namespace

LanResult run_lan_throughput(const LanConfig& config) {
  // --- observability (optional; probe = ordering node 0) ---
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TraceRing> trace;
  if (config.collect_metrics) trace = std::make_unique<obs::TraceRing>(1u << 16);

  // --- service ---
  std::vector<ProcessId> node_ids;
  for (std::uint32_t i = 0; i < config.orderers; ++i) node_ids.push_back(i);
  smr::ReplicaParams params;
  params.batch_max = config.batch_max;
  params.sign_writes = false;  // MAC-authenticated normal case
  params.forward_timeout = runtime::sec(10);
  params.stop_timeout = runtime::sec(20);
  params.stall_timeout = runtime::sec(10);
  params.checkpoint_period = 1u << 20;  // no checkpoint cost
  ordering::ServiceOptions options{
      .nodes = std::move(node_ids),
      .block_size = config.block_size,
      .replica_params = std::move(params),
      .stub_signatures = true,  // calibrated cost model (§6.1)
      .double_sign = config.double_sign,
  };
  if (config.collect_metrics) {
    options.metrics = &registry;
    options.trace = trace.get();
  }
  ordering::Service service = ordering::make_service(options);

  // --- network: nodes on their own machines, all client processes packed
  // onto two machines (§6.2: "16 to 32 clients distributed across 2
  // additional machines") ---
  const std::uint32_t machines = config.orderers + 2;
  std::vector<std::uint32_t> process_machine(kSubmitterBase + config.submitters,
                                             machines - 1);
  for (std::uint32_t i = 0; i < config.orderers; ++i) process_machine[i] = i;
  for (std::uint32_t r = 0; r < config.receivers; ++r) {
    process_machine[kReceiverBase + r] = config.orderers + (r % 2);
  }
  for (std::uint32_t s = 0; s < config.submitters; ++s) {
    process_machine[kSubmitterBase + s] = config.orderers + (s % 2);
  }
  std::vector<std::vector<sim::SimTime>> latency(
      machines, std::vector<sim::SimTime>(machines, kMillisecond / 20));
  for (std::uint32_t m = 0; m < machines; ++m) latency[m][m] = 0;
  sim::NetworkConfig net;  // 1 Gbit/s full duplex
  sim::Network network(net, std::move(process_machine), std::move(latency),
                       Rng(config.seed));
  network.set_machine_bandwidth(config.orderers, config.client_bandwidth_bps);
  network.set_machine_bandwidth(config.orderers + 1, config.client_bandwidth_bps);
  runtime::SimCluster cluster(std::move(network), config.seed);
  if (config.collect_metrics) cluster.set_metrics(registry);

  sim::CpuConfig node_cpu;
  node_cpu.prologue_workers = config.workers;
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), node_cpu);
  }

  // --- receivers (the fan-out targets being measured) ---
  ordering::FrontendOptions receiver_options =
      ordering::make_frontend_options(service, options);
  receiver_options.track_latency = false;
  receiver_options.verify_signatures = config.verify_signatures;
  std::vector<std::unique_ptr<ordering::Frontend>> receivers;
  for (std::uint32_t r = 0; r < config.receivers; ++r) {
    ordering::FrontendOptions ro = receiver_options;
    if (r == 0 && config.collect_metrics) {
      // Receiver 0 is the measurement probe: its frontend.* counters and the
      // block-level push->frontend_accept trace events feed the export.
      ro.metrics = &registry;
      ro.trace = trace.get();
    }
    receivers.push_back(
        std::make_unique<ordering::Frontend>(service.cluster, ro));
    cluster.add_process(kReceiverBase + r, receivers.back().get());
  }

  // --- submitters (do not receive blocks) ---
  ordering::FrontendOptions submit_options = receiver_options;
  submit_options.receive_blocks = false;
  submit_options.verify_signatures = false;
  if (config.collect_metrics) {
    // Submitters emit the per-envelope kSubmit trace events that anchor the
    // submit->propose stage; their frontend.submitted counters aggregate.
    submit_options.metrics = &registry;
    submit_options.trace = trace.get();
  }
  std::vector<std::unique_ptr<ordering::Frontend>> submitters;
  for (std::uint32_t s = 0; s < config.submitters; ++s) {
    submitters.push_back(std::make_unique<ordering::Frontend>(
        service.cluster, submit_options));
    cluster.add_process(kSubmitterBase + s, submitters.back().get());
  }

  // --- closed-loop injection: keep `outstanding_window` envelopes in flight,
  // clocked off node 0's ordered-envelope counter ---
  const ordering::OrderingNode* leader_app = service.nodes[0].app.get();
  auto submitted = std::make_shared<std::uint64_t>(0);
  auto envelope_id = std::make_shared<std::uint64_t>(0);
  const auto total_time =
      static_cast<sim::SimTime>((config.warmup_s + config.measure_s) * kSecond);

  std::function<void()> top_up = [&cluster, &submitters, leader_app, submitted,
                                  envelope_id, &config, total_time, &top_up] {
    const std::uint64_t consumed = leader_app->envelopes_ordered();
    while (*submitted < consumed + config.outstanding_window) {
      const std::size_t s =
          static_cast<std::size_t>(*envelope_id % config.submitters);
      submitters[s]->submit(
          make_envelope((*envelope_id)++, config.envelope_size));
      ++*submitted;
    }
    if (cluster.now() < total_time) {
      cluster.schedule_at(cluster.now() + kMillisecond, [&top_up] { top_up(); });
    }
  };
  cluster.schedule_at(kMillisecond / 10, [&top_up] { top_up(); });

  // --- measure DELIVERED envelopes at receiver 0 between warmup and end
  // (the rate the system sustains end to end: ordering, signing and block
  // fan-out all gate it) ---
  const ordering::Frontend* probe = receivers.front().get();
  auto delivered_at_warmup = std::make_shared<std::uint64_t>(0);
  auto blocks_at_warmup = std::make_shared<std::uint64_t>(0);
  cluster.schedule_at(static_cast<sim::SimTime>(config.warmup_s * kSecond),
                      [leader_app, probe, blocks_at_warmup, delivered_at_warmup] {
                        *blocks_at_warmup = leader_app->blocks_created();
                        *delivered_at_warmup = probe->delivered_envelopes();
                      });
  cluster.run_until(total_time);

  LanResult result;
  const double blocks =
      static_cast<double>(leader_app->blocks_created() - *blocks_at_warmup);
  result.block_rate = blocks / config.measure_s;
  result.throughput_tps =
      static_cast<double>(probe->delivered_envelopes() - *delivered_at_warmup) /
      config.measure_s;
  result.sign_bound_tps = (16.0 / 1.905e-3) *
                          static_cast<double>(config.block_size) /
                          (config.double_sign ? 2.0 : 1.0);
  result.leader_utilization = cluster.protocol_utilization(0);
  result.delivered_at_receiver =
      receivers.empty() ? 0 : receivers[0]->delivered_envelopes();
  if (config.collect_metrics) {
    cluster.export_metrics(registry, 0);
    const std::map<std::string, std::string> labels{
        {"bench", "fig7_lan"},
        {"orderers", std::to_string(config.orderers)},
        {"block_size", std::to_string(config.block_size)},
        {"envelope_size", std::to_string(config.envelope_size)},
        {"receivers", std::to_string(config.receivers)},
        {"submitters", std::to_string(config.submitters)},
        {"seed", std::to_string(config.seed)},
        {"double_sign", config.double_sign ? "true" : "false"},
        {"workers", std::to_string(config.workers)},
    };
    const std::map<std::string, double> run{
        {"throughput_tps", result.throughput_tps},
        {"block_rate", result.block_rate},
        {"sign_bound_tps", result.sign_bound_tps},
        {"leader_utilization", result.leader_utilization},
    };
    result.metrics_json = obs::to_json(registry, trace.get(), labels, run);
  }
  return result;
}

GeoResult run_geo_latency(const GeoConfig& config) {
  const ordering::GeoTopology topology =
      config.wheat ? ordering::paper_wheat_topology()
                   : ordering::paper_bftsmart_topology();

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TraceRing> trace;
  if (config.collect_metrics) trace = std::make_unique<obs::TraceRing>(1u << 16);

  std::vector<ProcessId> node_ids;
  for (std::size_t i = 0; i < topology.node_regions.size(); ++i) {
    node_ids.push_back(static_cast<ProcessId>(i));
  }
  smr::ReplicaParams params;
  params.sign_writes = false;
  params.forward_timeout = runtime::sec(10);
  params.stop_timeout = runtime::sec(20);
  params.stall_timeout = runtime::sec(10);
  params.checkpoint_period = 1u << 20;
  if (config.wheat) params.tentative_execution = config.use_tentative;
  ordering::ServiceOptions options{
      .nodes = std::move(node_ids),
      .block_size = config.block_size,
      .replica_params = std::move(params),
      .stub_signatures = true,
  };
  if (config.wheat && config.use_weights) {
    options.vmax_nodes = ordering::paper_wheat_vmax_nodes();
  }
  if (config.collect_metrics) {
    options.metrics = &registry;
    options.trace = trace.get();
  }

  ordering::Service service = ordering::make_service(options);
  runtime::SimCluster cluster(ordering::make_geo_network(topology, config.seed),
                              config.seed);
  if (config.collect_metrics) cluster.set_metrics(registry);
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    cluster.add_process(service.cluster.members()[i],
                        service.nodes[i].replica.get(), sim::CpuConfig{});
  }

  std::vector<std::unique_ptr<ordering::Frontend>> frontends;
  GeoResult result;
  for (std::size_t j = 0; j < topology.frontend_regions.size(); ++j) {
    result.frontend_names.push_back(
        sim::region_name(topology.frontend_regions[j]));
    ordering::FrontendOptions fo =
        ordering::make_frontend_options(service, options);
    if (config.collect_metrics) {
      // Every geo frontend submits and receives, so instrumenting all of them
      // closes the full submit->frontend_accept chain per envelope (the
      // frontend.* counters aggregate across regions).
      fo.metrics = &registry;
      fo.trace = trace.get();
    }
    frontends.push_back(
        std::make_unique<ordering::Frontend>(service.cluster, fo));
    cluster.add_process(topology.frontend_base + static_cast<ProcessId>(j),
                        frontends.back().get());
  }

  // Poisson arrivals per frontend.
  Rng arrivals(config.seed ^ 0x9e3779b9);
  std::uint64_t envelope_id = 0;
  for (auto& frontend : frontends) {
    ordering::Frontend* fe = frontend.get();
    double t_ms = 10.0;
    while (t_ms < config.duration_s * 1000.0) {
      t_ms += arrivals.exponential(1000.0 / config.rate_per_frontend);
      Bytes envelope = make_envelope(envelope_id++, config.envelope_size);
      cluster.schedule_at(static_cast<sim::SimTime>(t_ms * kMillisecond),
                          [fe, envelope]() mutable { fe->submit(std::move(envelope)); });
    }
  }
  cluster.run_until(
      static_cast<sim::SimTime>((config.duration_s + 4.0) * kSecond));

  for (const auto& frontend : frontends) {
    const auto& h = frontend->latencies();
    result.samples.push_back(h.count());
    result.median_ms.push_back(h.empty() ? 0 : h.median());
    result.p90_ms.push_back(h.empty() ? 0 : h.percentile(0.9));
  }
  if (config.collect_metrics) {
    cluster.export_metrics(registry, 0);
    const std::map<std::string, std::string> labels{
        {"bench", "fig8_geo"},
        {"wheat", config.wheat ? "true" : "false"},
        {"block_size", std::to_string(config.block_size)},
        {"envelope_size", std::to_string(config.envelope_size)},
        {"seed", std::to_string(config.seed)},
    };
    std::map<std::string, double> run{
        {"rate_per_frontend", config.rate_per_frontend},
        {"duration_s", config.duration_s},
    };
    for (std::size_t j = 0; j < result.frontend_names.size(); ++j) {
      run.emplace("median_ms_frontend" + std::to_string(j),
                  result.median_ms[j]);
    }
    result.metrics_json = obs::to_json(registry, trace.get(), labels, run);
  }
  return result;
}

std::string format_k(double value) {
  char buf[32];
  if (value >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.1fk", value / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  }
  return buf;
}

}  // namespace bft::bench
