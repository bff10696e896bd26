#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "ordering/deployment.hpp"
#include "runtime/tcp_runtime.hpp"
#include "storage/store.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace rt = bft::runtime;
namespace ord = bft::ordering;

namespace {

constexpr std::size_t kNodes = 4;
constexpr ProcessId kFrontendId = 100;
constexpr std::size_t kRunnerWorkers = 2;
// Warm-up: a fixed number of blocks' worth of envelopes in a closed loop
// whose window stays well below the transport's 1024-frame per-peer send
// queue.
constexpr std::uint64_t kWarmupBlocks = 200;
constexpr std::uint64_t kWarmupWindow = 400;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 22;
constexpr int kMaxPortAttempts = 8;
// Fault schedule of the crash workload, as shares of the window.
constexpr double kCrashAt = 0.2;
constexpr double kRestartAt = 0.4;
// Longest wait after the window for undelivered envelopes: longer than the
// 250 ms batch timeout and than one regency change (about 1 s), on every
// workload. It ends as soon as everything is delivered.
constexpr std::int64_t kDrainNs = 6'000'000'000;
// Non-crash workloads sample the delivery gap at this interval.
constexpr std::int64_t kGapProbeNs = 10'000'000;
// Quiet-slice selection: one-second slices whose host steal is at most
// kQuietStealPct are quiet. A timed window short of kQuietSlices quiet
// slices is extended slice by slice, by at most
// PassOptions::max_extension_s, until it has them; failing that, the
// kQuietSlices quietest count.
constexpr std::int64_t kSliceNs = 1'000'000'000;
constexpr double kQuietStealPct = 2.0;
constexpr std::size_t kQuietSlices = 8;
// setup_s is the median over this many of a pass's set-ups, the ones with the
// least host steal.
constexpr std::size_t kQuietSetups = 3;

const std::vector<Workload> kWorkloads = {
    {"ecdsa_b10", 200, 10, true, 2000, false},
    {"small_b100", 40, 100, false, 8000, false},
    {"leader_crash", 200, 10, false, 2000, true},
};

std::int64_t now_ns() { return Tracer::now_ns(); }

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A point in the window: time, host CPU ticks (stolen by the hypervisor,
/// and total, from /proc/stat) and the process's CPU time.
struct Mark {
  std::int64_t t_ns = 0;
  double steal_ticks = 0;
  double total_ticks = 0;
  double cpu_s = 0;
};

Mark take_mark() {
  Mark mark;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (unsigned long long x : v) mark.total_ticks += static_cast<double>(x);
      mark.steal_ticks = static_cast<double>(v[7]);
    }
    std::fclose(f);
  }
  mark.cpu_s = cpu_seconds();
  mark.t_ns = now_ns();
  return mark;
}

/// Share of host CPU time stolen between two marks, in percent.
double steal_pct(const Mark& from, const Mark& to) {
  const double total = to.total_ticks - from.total_ticks;
  return total > 0 ? (to.steal_ticks - from.steal_ticks) / total * 100.0 : 0;
}

void sleep_until_ns(std::int64_t deadline) {
  const std::int64_t left = deadline - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

/// One OS-process worth of runtime on one listen address: a TcpCluster, or
/// for traced passes the same composition by hand with a TracingTransport
/// between the RealCluster and the TcpTransport.
class Host {
 public:
  Host(const rt::Topology& topology, ProcessId id, Tracer* tracer,
       bft::obs::MetricsRegistry* metrics) {
    if (tracer == nullptr) {
      tcp_ = std::make_unique<rt::TcpCluster>(topology, std::vector<ProcessId>{id});
      return;
    }
    rt::TcpTransportOptions transport_options;
    transport_options.metrics = metrics;
    transport_ = std::make_unique<rt::TcpTransport>(
        topology, std::vector<ProcessId>{id}, transport_options);
    traced_ = std::make_unique<TracingTransport>(*transport_, *tracer, id);
    rt::RealClusterOptions cluster_options;
    cluster_options.transport = traced_.get();
    cluster_options.metrics = metrics;
    real_ = std::make_unique<rt::RealCluster>(cluster_options);
  }
  ~Host() { stop(); }
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  void add(ProcessId id, rt::Actor* actor) {
    if (tcp_) {
      tcp_->add_process(id, actor, kRunnerWorkers);
    } else {
      real_->add_process(id, actor, kRunnerWorkers);
    }
  }

  void start() {
    started_ = true;
    if (tcp_) {
      tcp_->start();
      return;
    }
    rt::RealCluster* real = real_.get();
    traced_->start([real](ProcessId from, ProcessId to, bft::Payload frame) {
      real->deliver_local(from, to, std::move(frame));
    });
    real_->start();
  }

  void stop() {
    if (!started_) return;
    started_ = false;
    if (tcp_) {
      tcp_->stop();
      return;
    }
    traced_->stop();
    real_->stop();
  }

  void post(ProcessId id, std::function<void()> fn) {
    if (tcp_) {
      tcp_->post(id, std::move(fn));
    } else {
      real_->post(id, std::move(fn));
    }
  }

  /// Frames shed by the transport's send queues and by the inboxes.
  std::uint64_t dropped() {
    if (tcp_) return tcp_->transport().frames_dropped() + tcp_->local().inbox_dropped();
    return transport_->frames_dropped() + real_->inbox_dropped();
  }

  /// Runs `fn` on `id`'s event loop and waits for its result.
  template <typename F>
  auto call(ProcessId id, F fn) -> decltype(fn()) {
    auto task = std::make_shared<std::packaged_task<decltype(fn())()>>(std::move(fn));
    auto result = task->get_future();
    post(id, [task] { (*task)(); });
    return result.get();
  }

 private:
  std::unique_ptr<rt::TcpCluster> tcp_;
  std::unique_ptr<rt::TcpTransport> transport_;
  std::unique_ptr<TracingTransport> traced_;
  std::unique_ptr<rt::RealCluster> real_;
  bool started_ = false;
};

/// One ordering node, built as ordering::make_node does (OrderingNode,
/// smr::Replica, attach) so traced passes can wrap its signer and actor.
struct NodeProcess {
  std::unique_ptr<bft::storage::NodeStore> store;
  std::shared_ptr<ord::BlockSigner> signer;
  std::unique_ptr<ord::OrderingNode> app;
  std::unique_ptr<bft::smr::Replica> replica;
  std::unique_ptr<TracedActor> traced;
  std::unique_ptr<Host> host;  // declared last: stops before the rest dies
};

/// The whole service of one pass.
class Deployment {
 public:
  Deployment(const Workload& workload, const std::vector<std::uint16_t>& ports,
             const std::string& workdir, Tracer* tracer,
             bft::obs::MetricsRegistry* metrics, DeliveryLedger& ledger)
      : workdir_(workdir), tracer_(tracer), metrics_(metrics) {
    std::vector<rt::TopologyEntry> entries;
    for (std::size_t i = 0; i < kNodes; ++i) {
      entries.push_back({"node", static_cast<ProcessId>(i), "127.0.0.1", ports[i]});
      options_.nodes.push_back(static_cast<ProcessId>(i));
    }
    entries.push_back({"frontend", kFrontendId, "127.0.0.1", ports[kNodes]});
    topology_ = rt::Topology(std::move(entries));
    // bft_node defaults.
    options_.block_size = workload.block_size;
    options_.batch_timeout = rt::msec(250);
    options_.replica_params.forward_timeout = rt::msec(300);
    options_.replica_params.stop_timeout = rt::msec(500);
    options_.replica_params.checkpoint_period = 64;
    cluster_ = std::make_unique<bft::smr::ClusterConfig>(
        bft::smr::ClusterConfig::classic(options_.nodes));
    if (tracer_ != nullptr) {
      smr_names_ = std::make_unique<ActorNames>(*tracer_, "smr");
      frontend_names_ = std::make_unique<ActorNames>(*tracer_, "ordering.frontend");
    }

    for (std::size_t i = 0; i < kNodes; ++i) {
      std::filesystem::remove_all(data_dir(i));
      nodes_.push_back(build_node(static_cast<ProcessId>(i)));
    }
    ord::FrontendOptions frontend_options = ord::make_frontend_options(options_);
    frontend_options.verify_signatures = workload.verify;
    if (tracer_ != nullptr) {
      frontend_options.verifier = std::make_shared<TracingSigner>(
          frontend_options.verifier, *tracer_, kFrontendId);
    }
    frontend_ = std::make_unique<ord::Frontend>(
        *cluster_, frontend_options,
        [&ledger](const bft::ledger::Block& block) { ledger.on_block(block, now_ns()); });
    frontend_host_ = std::make_unique<Host>(topology_, kFrontendId, tracer_, metrics_);
    if (tracer_ != nullptr) {
      traced_frontend_ = std::make_unique<TracedActor>(*frontend_, *tracer_,
                                                       *frontend_names_, kFrontendId);
      frontend_host_->add(kFrontendId, traced_frontend_.get());
    } else {
      frontend_host_->add(kFrontendId, frontend_.get());
    }
  }

  ~Deployment() {
    frontend_host_.reset();
    nodes_.clear();
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::error_code ignored;
      std::filesystem::remove_all(data_dir(i), ignored);
    }
  }

  void start() {
    for (auto& node : nodes_) node->host->start();
    frontend_host_->start();
  }

  /// Submits envelopes on the frontend's event loop; records send times.
  void submit(const EnvelopeFactory& factory, std::uint8_t tag,
              std::uint64_t first, std::uint64_t last,
              std::vector<std::int64_t>* sent_at) {
    ord::Frontend* frontend = frontend_.get();
    const EnvelopeFactory* f = &factory;
    frontend_host_->post(kFrontendId, [frontend, f, tag, first, last, sent_at] {
      for (std::uint64_t i = first; i < last; ++i) {
        if (sent_at != nullptr) (*sent_at)[i] = now_ns();
        frontend->submit(f->make(tag, i));
      }
    });
  }

  /// Reads (regency, decided batches, last confirmed cid) of a node.
  struct ReplicaView {
    std::uint64_t regency = 0;
    std::uint64_t decided = 0;
    std::uint64_t confirmed = 0;
  };
  ReplicaView view(std::size_t node) {
    bft::smr::Replica* replica = nodes_[node]->replica.get();
    return nodes_[node]->host->call(static_cast<ProcessId>(node), [replica] {
      return ReplicaView{replica->regency(), replica->decided_batch_count(),
                         replica->last_confirmed()};
    });
  }

  /// Stops the regency-0 leader's runtime and drops the node from memory.
  void crash_leader() { nodes_[0].reset(); }

  /// Rebuilds node 0 from its data directory and starts it.
  void restart_leader() {
    nodes_[0] = build_node(0);
    nodes_[0]->host->start();
  }

  std::uint64_t dropped_frames() const {
    std::uint64_t total = frontend_host_->dropped();
    for (const auto& node : nodes_) {
      if (node) total += node->host->dropped();
    }
    return total;
  }

  /// WAL records replayed at start-up, summed over the live nodes. Read on
  /// each node's loop, where recovery wrote them.
  std::uint64_t replayed_records() {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!nodes_[i]) continue;
      bft::storage::NodeStore* store = nodes_[i]->store.get();
      total += nodes_[i]->host->call(static_cast<ProcessId>(i),
                                     [store] { return store->replayed_records(); });
    }
    return total;
  }

  std::uint64_t delivered_blocks() {
    ord::Frontend* frontend = frontend_.get();
    return frontend_host_->call(kFrontendId,
                                [frontend] { return frontend->delivered_blocks(); });
  }

 private:
  std::string data_dir(std::size_t node) const {
    return workdir_ + "/node-" + std::to_string(node);
  }

  std::unique_ptr<NodeProcess> build_node(ProcessId id) {
    auto node = std::make_unique<NodeProcess>();
    bft::storage::StoreOptions store_options;
    store_options.directory = data_dir(id);
    store_options.node_id = id;
    store_options.fsync = bft::storage::FsyncPolicy::group;
    store_options.metrics = metrics_;
    auto opened = bft::storage::NodeStore::open(std::move(store_options));
    if (!opened.ok()) throw std::runtime_error("store: " + opened.error());
    node->store = std::move(opened).take();

    node->signer = std::make_shared<ord::EcdsaBlockSigner>(id, options_.signature_cost);
    if (tracer_ != nullptr) {
      node->signer = std::make_shared<TracingSigner>(node->signer, *tracer_, id);
    }
    ord::OrderingNodeOptions node_options;
    node_options.default_channel = options_.channel;
    node_options.block_size = options_.block_size;
    node_options.batch_timeout = options_.batch_timeout;
    node->app = std::make_unique<ord::OrderingNode>(node_options, node->signer);
    bft::smr::ReplicaParams params = options_.replica_params;
    params.storage = node->store.get();
    node->replica = std::make_unique<bft::smr::Replica>(id, *cluster_, params,
                                                        node->app.get(), node->app.get());
    node->app->attach(*node->replica);

    node->host = std::make_unique<Host>(topology_, id, tracer_, metrics_);
    if (tracer_ != nullptr) {
      node->traced = std::make_unique<TracedActor>(*node->replica, *tracer_,
                                                   *smr_names_, id);
      node->host->add(id, node->traced.get());
    } else {
      node->host->add(id, node->replica.get());
    }
    return node;
  }

  std::string workdir_;
  Tracer* tracer_;
  bft::obs::MetricsRegistry* metrics_;
  ord::ServiceOptions options_;
  rt::Topology topology_;
  std::unique_ptr<bft::smr::ClusterConfig> cluster_;
  std::unique_ptr<ActorNames> smr_names_;
  std::unique_ptr<ActorNames> frontend_names_;
  std::vector<std::unique_ptr<NodeProcess>> nodes_;
  std::unique_ptr<ord::Frontend> frontend_;
  std::unique_ptr<TracedActor> traced_frontend_;
  std::unique_ptr<Host> frontend_host_;
};

/// Closed-loop warm-up of kWarmupBlocks blocks; throws if it stalls.
void warm_up(Deployment& deployment, const EnvelopeFactory& factory,
             const DeliveryLedger& ledger, std::size_t block_size) {
  const std::uint64_t envelopes = kWarmupBlocks * block_size;
  const std::int64_t deadline = now_ns() + 60'000'000'000;
  std::uint64_t sent = 0;
  while (ledger.warmup_delivered() < envelopes) {
    const std::uint64_t in_flight = sent - ledger.warmup_delivered();
    if (sent < envelopes && in_flight < kWarmupWindow) {
      const std::uint64_t last =
          std::min(envelopes, sent + (kWarmupWindow - in_flight));
      deployment.submit(factory, kWarmupTag, sent, last, nullptr);
      sent = last;
    }
    if (now_ns() > deadline) throw std::runtime_error("warm-up stalled");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::map<std::string, double> counter_snapshot(const bft::obs::MetricsRegistry* reg) {
  std::map<std::string, double> out;
  if (reg == nullptr) return out;
  for (const auto& entry : reg->entries()) {
    if (entry.counter != nullptr) {
      out[entry.name] = static_cast<double>(entry.counter->value());
    }
  }
  return out;
}

double histogram_quantile(const bft::obs::MetricsRegistry& reg,
                          const std::string& name, double q) {
  for (const auto& entry : reg.entries()) {
    if (entry.name == name && entry.histogram != nullptr) {
      return static_cast<double>(entry.histogram->quantile(q));
    }
  }
  return 0;
}

/// failover_ms with a crash: the longest gap between consecutive block
/// deliveries that ends after the crash and starts at most 500 ms after it.
double crash_gap_ms(const std::vector<std::int64_t>& times, std::int64_t crash_at) {
  std::int64_t longest = 0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] > crash_at && times[i - 1] <= crash_at + 500'000'000) {
      longest = std::max(longest, times[i] - times[i - 1]);
    }
  }
  return static_cast<double>(longest) / 1e6;
}

/// failover_ms without a crash: the median, over probes every 10 ms of the
/// given spans, of the delivery gap spanning the probe.
double spanning_gap_ms(const std::vector<std::int64_t>& times,
                       const std::vector<std::pair<std::int64_t, std::int64_t>>& spans) {
  std::vector<double> gaps;
  for (const auto& [from, to] : spans) {
    for (std::int64_t probe = from; probe < to; probe += kGapProbeNs) {
      const auto after = std::upper_bound(times.begin(), times.end(), probe);
      if (after == times.begin() || after == times.end()) continue;
      gaps.push_back(static_cast<double>(*after - *(after - 1)) / 1e6);
    }
  }
  return quantile(gaps, 0.5);
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void prewarm_cpu(double seconds) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t until = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([until] {
      volatile std::uint64_t sink = 0;
      std::uint64_t x = 88172645463325252ull;
      while (now_ns() < until) {
        for (int i = 0; i < 10000; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        sink = x;
      }
      (void)sink;
    });
  }
  for (auto& t : threads) t.join();
}

double quiet_setup_s(const PassResult& result) {
  std::vector<std::size_t> order(result.setup_s.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.setup_steal_pct[a] < result.setup_steal_pct[b];
  });
  std::vector<double> quietest;
  for (std::size_t i = 0; i < std::min(kQuietSetups, order.size()); ++i) {
    quietest.push_back(result.setup_s[order[i]]);
  }
  return quantile(quietest, 0.5);
}

double cpu_probe_mops() {
  constexpr std::uint64_t kIterations = 50'000'000;
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 88172645463325252ull;
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  return static_cast<double>(kIterations) / seconds / 1e6;
}

PassResult run_pass(const PassOptions& opts) {
  const Workload& w = opts.workload;
  PassResult result;
  const EnvelopeFactory factory(opts.seed, w.envelope_bytes);
  const std::int64_t window_ns = static_cast<std::int64_t>(opts.seconds * 1e9);
  const std::int64_t max_window_ns =
      window_ns + static_cast<std::int64_t>(opts.max_extension_s * 1e9);
  // Timed envelopes due before `t` ns into the window.
  auto due_before = [&w](std::int64_t t) {
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(t) * w.rate / 1e9 - 1e-6));
  };
  const std::uint64_t capacity = due_before(max_window_ns);

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<bft::obs::MetricsRegistry> metrics;
  if (opts.traced) {
    tracer = std::make_unique<Tracer>(kSpanCapacity);
    metrics = std::make_unique<bft::obs::MetricsRegistry>();
  }

  // Ports come from wall-clock entropy, not the seed: the seed chooses only
  // envelope bytes.
  PortPicker picker(static_cast<std::uint64_t>(now_ns()) ^
                    (static_cast<std::uint64_t>(::getpid()) << 32));
  std::unique_ptr<DeliveryLedger> ledger;
  std::unique_ptr<Deployment> deployment;
  Mark setup_started;
  for (int s = 0; s < std::max(1, opts.setups); ++s) {
    deployment.reset();
    ledger.reset();
    setup_started = take_mark();
    ledger = std::make_unique<DeliveryLedger>("channel-0", factory, capacity);
    result.port_retries += with_port_retry(
        picker, kNodes + 1, kMaxPortAttempts,
        [&](const std::vector<std::uint16_t>& ports) {
          deployment.reset();
          deployment = std::make_unique<Deployment>(w, ports, opts.workdir, tracer.get(),
                                                    metrics.get(), *ledger);
          deployment->start();
        });
    warm_up(*deployment, factory, *ledger, w.block_size);
    if (s + 1 < opts.setups) {
      const Mark done = take_mark();
      result.setup_s.push_back(static_cast<double>(done.t_ns - setup_started.t_ns) / 1e9);
      result.setup_steal_pct.push_back(steal_pct(setup_started, done));
    }
  }

  // --- measured window ---
  std::vector<std::int64_t> sent_at(capacity, -1);
  const Deployment::ReplicaView before = deployment->view(1);
  const auto counters_before = counter_snapshot(metrics.get());
  const std::uint64_t blocks_before = deployment->delivered_blocks();
  if (tracer) tracer->set_active(true);
  const Mark mark_before = take_mark();
  const std::int64_t t0 = mark_before.t_ns;
  result.setup_s.push_back(static_cast<double>(t0 - setup_started.t_ns) / 1e9);
  result.setup_steal_pct.push_back(steal_pct(setup_started, mark_before));

  std::int64_t crash_at = -1;
  std::int64_t restart_at = -1;
  double rejoin_ms = 0;
  std::string fault_error;
  std::thread fault;
  if (w.crash) {
    fault = std::thread([&] {
      try {
        sleep_until_ns(t0 + static_cast<std::int64_t>(kCrashAt * window_ns));
        crash_at = now_ns();
        deployment->crash_leader();
        sleep_until_ns(t0 + static_cast<std::int64_t>(kRestartAt * window_ns));
        restart_at = now_ns();
        const std::uint64_t target = deployment->view(1).confirmed;
        deployment->restart_leader();
        const std::int64_t give_up = t0 + max_window_ns + 5'000'000'000;
        while (now_ns() < give_up) {
          if (deployment->view(0).confirmed >= target) {
            rejoin_ms = static_cast<double>(now_ns() - restart_at) / 1e6;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      } catch (const std::exception& error) {
        fault_error = std::string("leader restart failed: ") + error.what();
      }
    });
  }

  // Slice k covers [k, k + 1) seconds of the window. On the crash workload
  // the slices from the crash to 2 s after the restart are never quiet;
  // failover_ms covers them.
  auto eligible = [&](std::size_t k) {
    if (!w.crash) return true;
    const std::int64_t from = static_cast<std::int64_t>(k) * kSliceNs;
    return from + kSliceNs <= static_cast<std::int64_t>(kCrashAt * window_ns) ||
           from >= static_cast<std::int64_t>(kRestartAt * window_ns) + 2 * kSliceNs;
  };

  // The generator submits every envelope as it falls due and takes a mark
  // at each slice boundary, where it also decides whether to extend.
  std::vector<Mark> marks = {mark_before};
  std::vector<double> slice_steal;
  std::size_t quiet_so_far = 0;
  std::int64_t end_ns = window_ns;
  std::uint64_t next = 0;
  for (;;) {
    const std::int64_t elapsed = now_ns() - t0;
    const std::uint64_t due = std::min(
        due_before(end_ns),
        static_cast<std::uint64_t>(static_cast<double>(elapsed) * w.rate / 1e9) + 1);
    if (due > next) {
      deployment->submit(factory, kTimedTag, next, due, &sent_at);
      next = due;
    }
    const std::int64_t boundary = static_cast<std::int64_t>(marks.size()) * kSliceNs;
    if (elapsed < boundary) {
      sleep_until_ns(std::min(
          t0 + static_cast<std::int64_t>(static_cast<double>(next) * 1e9 / w.rate),
          t0 + boundary));
      continue;
    }
    marks.push_back(take_mark());
    const std::size_t k = slice_steal.size();
    slice_steal.push_back(steal_pct(marks[k], marks[k + 1]));
    if (eligible(k) && slice_steal[k] <= kQuietStealPct) ++quiet_so_far;
    // Memory is read at the nominal end, so an extension does not show in it.
    if (boundary == window_ns) result.peak_rss_mb = peak_rss_mb();
    if (boundary >= end_ns) {
      if (quiet_so_far >= kQuietSlices || end_ns + kSliceNs > max_window_ns) break;
      end_ns += kSliceNs;
    }
  }
  const std::uint64_t attempted = next;
  result.attempted = attempted;
  ledger->close_timed(attempted);
  const std::int64_t t_end = marks.back().t_ns;
  result.steal_pct = steal_pct(marks.front(), marks.back());
  if (tracer) tracer->set_active(false);
  const auto counters_after = counter_snapshot(metrics.get());

  const std::int64_t drain_deadline = t_end + kDrainNs;
  while (ledger->timed_delivered() < attempted && now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (fault.joinable()) fault.join();
  if (!fault_error.empty()) throw std::runtime_error(fault_error);
  // Runs on the frontend's loop, so every send time it recorded is visible.
  const std::uint64_t blocks_after = deployment->delivered_blocks();
  const Deployment::ReplicaView after = deployment->view(1);

  // --- end-to-end metrics ---
  result.violations = ledger->finish(result.failed);
  // Host steal comes and goes in phases and inflates every wall-clock figure
  // of the slices it hits, so latency, CPU and delivery gaps are taken over
  // the quiet slices, or over the kQuietSlices quietest eligible slices when
  // fewer are quiet.
  const std::size_t n_slices = slice_steal.size();
  std::vector<double> candidates;
  for (std::size_t k = 0; k < n_slices; ++k) {
    if (eligible(k)) candidates.push_back(slice_steal[k]);
  }
  if (candidates.empty()) throw std::runtime_error("window too short for the fault schedule");
  std::sort(candidates.begin(), candidates.end());
  const double steal_cut = std::max(
      kQuietStealPct, candidates[std::min(kQuietSlices, candidates.size()) - 1]);
  std::vector<bool> quiet(n_slices, false);
  double quiet_cpu_s = 0;
  std::uint64_t quiet_envelopes = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> quiet_spans;
  for (std::size_t k = 0; k < n_slices; ++k) {
    quiet[k] = eligible(k) && slice_steal[k] <= steal_cut;
    if (!quiet[k]) continue;
    ++result.quiet_slices;
    result.quiet_steal_pct = std::max(result.quiet_steal_pct, slice_steal[k]);
    quiet_cpu_s += marks[k + 1].cpu_s - marks[k].cpu_s;
    quiet_envelopes += ledger->envelopes_between(marks[k].t_ns, marks[k + 1].t_ns);
    quiet_spans.emplace_back(marks[k].t_ns, marks[k + 1].t_ns);
  }
  result.slices = n_slices;

  // Latency by the slice the envelope was due in.
  std::vector<std::vector<double>> latency(n_slices);
  std::vector<double> lag;
  for (std::uint64_t i = 0; i < attempted; ++i) {
    const double offset_ns = static_cast<double>(i) * 1e9 / w.rate;
    const std::int64_t due = t0 + static_cast<std::int64_t>(offset_ns);
    if (sent_at[i] >= 0) lag.push_back(static_cast<double>(sent_at[i] - due) / 1e6);
    const auto slice = std::min(n_slices - 1, static_cast<std::size_t>(offset_ns / kSliceNs));
    const std::int64_t delivered = ledger->delivered_at(i);
    latency[slice].push_back(delivered < 0 ? std::numeric_limits<double>::infinity()
                                           : static_cast<double>(delivered - due) / 1e6);
  }
  // Each slice's p50 and p99; the run reports their medians over the quiet
  // slices, so one slice's tail does not set the run's p99.
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (std::size_t k = 0; k < n_slices; ++k) {
    std::vector<double>& samples = latency[k];
    const double p50 = samples.empty() ? 0 : quantile(samples, 0.50);
    result.slice_steal_pct.push_back(slice_steal[k]);
    result.slice_p50_ms.push_back(p50);
    if (!quiet[k] || samples.empty()) continue;
    result.latency_samples += samples.size();
    p50s.push_back(p50);
    p99s.push_back(quantile(samples, 0.99));
  }
  result.latency_p50_ms = quantile(p50s, 0.50);
  result.latency_p99_ms = quantile(p99s, 0.50);
  result.gen_lag_ms_p99 = quantile(lag, 0.99);
  result.cpu_ms_per_kenv =
      quiet_cpu_s * 1000.0 / (std::max<double>(1.0, static_cast<double>(quiet_envelopes)) / 1000.0);
  if (result.peak_rss_mb == 0) result.peak_rss_mb = peak_rss_mb();
  result.failover_ms = w.crash ? crash_gap_ms(ledger->block_times(), crash_at)
                               : spanning_gap_ms(ledger->block_times(), quiet_spans);
  const std::uint64_t window_envelopes = ledger->envelopes_between(t0, t_end);
  const double kenv = std::max<double>(1.0, static_cast<double>(window_envelopes)) / 1000.0;
  result.regency_changes = after.regency - before.regency;
  result.dropped_frames = deployment->dropped_frames();
  for (std::uint64_t i = 0; i < attempted; ++i) {
    if (ledger->delivered_at(i) >= 0) continue;
    const double due_s = static_cast<double>(i) / w.rate;
    if (result.first_lost_due_s < 0) result.first_lost_due_s = due_s;
    result.last_lost_due_s = due_s;
  }

  if (!tracer) return result;

  // --- per-layer metrics (traced pass) ---
  auto& L = result.layers;
  const Tracer& tr = *tracer;
  const double window_s = static_cast<double>(t_end - t0) / 1e9;
  auto stats = [&](const std::string& name) -> const Tracer::Stats& {
    return tr.stats(tr.id(name));
  };
  auto count = [&](const std::string& name) {
    return static_cast<double>(stats(name).count.load());
  };
  auto self_ms = [&](const std::string& prefix) {
    double total = 0;
    for (const std::string& name : tr.names()) {
      if (name.starts_with(prefix)) total += static_cast<double>(stats(name).self_ns.load());
    }
    return total / 1e6;
  };
  auto us_q = [&](const std::string& name, double q) {
    return static_cast<double>(stats(name).duration_ns.quantile(q)) / 1e3;
  };
  auto delta = [&](const std::string& name) {
    const auto a = counters_after.find(name);
    const auto b = counters_before.find(name);
    return (a == counters_after.end() ? 0.0 : a->second) -
           (b == counters_before.end() ? 0.0 : b->second);
  };

  L["crypto.block_sign.per_kenv"] = count("crypto.block_sign") / kenv;
  L["crypto.block_sign.us_p50"] = us_q("crypto.block_sign", 0.5);
  L["crypto.block_verify.per_kenv"] = count("crypto.block_verify") / kenv;
  L["crypto.block_verify.us_p50"] = us_q("crypto.block_verify", 0.5);
  L["crypto.self_ms_per_kenv"] = self_ms("crypto.") / kenv;

  for (const char* kind : {"request", "forward", "propose", "write", "accept"}) {
    L[std::string("smr.") + kind + ".per_kenv"] =
        count(std::string("smr.consume.") + kind) / kenv;
  }
  L["smr.prologue.write.us_p50"] = us_q("smr.prologue.write", 0.5);
  L["smr.consume.propose.us_p50"] = us_q("smr.consume.propose", 0.5);
  L["smr.consume.accept.us_p50"] = us_q("smr.consume.accept", 0.5);
  const double instances = static_cast<double>(after.decided - before.decided);
  L["smr.envelopes_per_instance"] =
      instances > 0 ? static_cast<double>(window_envelopes) / instances : 0;
  double busiest = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    busiest = std::max(busiest, static_cast<double>(tr.loop_busy_ns(static_cast<ProcessId>(i))));
  }
  L["smr.leader_loop_busy_pct"] = busiest / 1e9 / window_s * 100.0;
  L["smr.self_ms_per_kenv"] = self_ms("smr.") / kenv;
  L["smr.regency_changes"] = static_cast<double>(result.regency_changes);
  L["smr.viewchange.msgs"] =
      count("smr.consume.stop") + count("smr.consume.stopdata") + count("smr.consume.sync");
  L["smr.state_chunks"] = count("smr.consume.state_chunk");
  L["smr.rejoin_ms"] = rejoin_ms;

  const double blocks = std::max(1.0, static_cast<double>(blocks_after - blocks_before));
  L["ordering.frontend.push.per_block"] = count("ordering.frontend.consume.push") / blocks;
  L["ordering.frontend.prologue.push.us_p50"] = us_q("ordering.frontend.prologue.push", 0.5);
  L["ordering.frontend.consume.push.us_p50"] = us_q("ordering.frontend.consume.push", 0.5);
  L["ordering.sign_queue_ms_p99"] = us_q("ordering.sign_queue", 0.99) / 1e3;

  L["runtime.inbox_wait_us_p50"] = us_q("runtime.inbox_wait", 0.5);
  L["runtime.inbox_wait_us_p99"] = us_q("runtime.inbox_wait", 0.99);
  L["runtime.runner.reorder_wait_us_p99"] =
      histogram_quantile(*metrics, "runner.reorder_wait_ns", 0.99) / 1e3;
  L["runtime.runner.worker_busy_pct"] =
      delta("runner.worker_busy_ns") / 1e9 /
      (window_s * static_cast<double>((kNodes + 1) * kRunnerWorkers)) * 100.0;
  L["runtime.inbox_dropped"] = delta("runtime.inbox_dropped");

  const double envelopes = std::max(1.0, static_cast<double>(window_envelopes));
  L["transport.frames_per_env"] = delta("transport.frames_out") / envelopes;
  L["transport.bytes_per_env"] = delta("transport.bytes_out") / envelopes;
  L["transport.send.us_p50"] = us_q("transport.send", 0.5);
  L["transport.send_dropped"] = delta("transport.send_dropped");
  L["transport.reconnects"] = delta("transport.reconnects");

  L["storage.wal_appends_per_kenv"] = delta("storage.wal_appends") / kenv;
  L["storage.fsync_ms_p99"] = histogram_quantile(*metrics, "storage.fsync_ns", 0.99) / 1e6;
  L["storage.replayed_records"] = static_cast<double>(deployment->replayed_records());

  L["gen.lag_ms_p99"] = result.gen_lag_ms_p99;
  L["trace.spans_dropped"] = static_cast<double>(tr.spans_dropped());
  if (!opts.trace_out.empty() && !tr.write(opts.trace_out)) {
    result.violations.push_back("could not write " + opts.trace_out);
  }
  return result;
}

}  // namespace perfbench
