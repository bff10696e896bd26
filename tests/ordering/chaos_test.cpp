// Seeded chaos sweep: randomized fault scenarios against a full ordering
// service, with an InvariantChecker asserting the paper's guarantees (no
// fork, no invalid block accepted, liveness recovery) on every run.
//
// Each seed deterministically selects a scenario kind and its parameters:
//
//   seed % 6 == 0  crash + recover a random node (warm restart)
//   seed % 6 == 1  healing partition isolating a random node
//   seed % 6 == 2  lossy replica links (drop / delay / duplicate / corrupt)
//   seed % 6 == 3  equivocating epoch-0 leader (different PROPOSE per replica)
//   seed % 6 == 4  mute epoch-0 leader (swallows every PROPOSE)
//   seed % 6 == 5  Byzantine signer + frontends on the f+1-verified rule
//
// Failures print the seed; rerun exactly one scenario with
//   BFT_CHAOS_SEED=<seed> ./build/tests/chaos_test
//
// Every scenario also runs fully instrumented (obs registry + trace ring on
// probe node 0 and the submitter); set BFT_CHAOS_METRICS_DIR=<dir> to dump the
// per-seed JSON exports (chaos_<seed>.json, schema in OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "ledger/chain.hpp"
#include "obs/export.hpp"
#include "ordering/deployment.hpp"
#include "ordering/invariants.hpp"
#include "runtime/sim_runtime.hpp"
#include "smr/byzantine.hpp"

namespace bft::ordering {
namespace {

using sim::kMillisecond;
using sim::kSecond;

enum class ScenarioKind : int {
  crash_recover = 0,
  healing_partition = 1,
  lossy_links = 2,
  equivocating_leader = 3,
  mute_leader = 4,
  corrupt_signer = 5,
};
constexpr int kScenarioKinds = 6;

const char* kind_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::crash_recover:       return "crash-recover";
    case ScenarioKind::healing_partition:   return "healing-partition";
    case ScenarioKind::lossy_links:         return "lossy-links";
    case ScenarioKind::equivocating_leader: return "equivocating-leader";
    case ScenarioKind::mute_leader:         return "mute-leader";
    case ScenarioKind::corrupt_signer:      return "corrupt-signer";
  }
  return "?";
}

constexpr std::uint64_t kEnvelopes = 60;
constexpr runtime::ProcessId kNodes = 4;

struct ScenarioResult {
  std::vector<std::string> violations;
  std::uint64_t delivered = 0;
  std::uint64_t blocks = 0;
  std::size_t height = 0;
  std::string tip;  // header digest of the submitter's chain tip
  consensus::Epoch max_honest_regency = 0;
  std::uint64_t tampered_sends = 0;
  std::uint64_t metric_delivered = 0;  // frontend.delivered_envelopes counter
  std::string metrics_json;            // full obs export for this scenario
};

ScenarioKind kind_of(std::uint64_t seed) {
  return static_cast<ScenarioKind>(seed % kScenarioKinds);
}

// Lossy links only between replicas: corrupting or duplicating the
// frontend->replica request path would mutate the workload itself, turning a
// transport fault into a spurious invariant violation.
void add_replica_link_faults(sim::FaultPlan& plan, Rng& rng) {
  const sim::SimTime from = 500 * kMillisecond;
  const sim::SimTime until = 5 * kSecond;
  const double drop_p = 0.03 + 0.05 * rng.uniform01();
  const double delay_p = 0.10 + 0.10 * rng.uniform01();
  const double dup_p = 0.05 + 0.05 * rng.uniform01();
  const double corrupt_p = 0.01 + 0.02 * rng.uniform01();
  for (sim::ProcessId a = 0; a < kNodes; ++a) {
    for (sim::ProcessId b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      const auto link = [&](sim::LinkFaultKind kind, double p,
                            sim::SimTime dmin, sim::SimTime dmax) {
        sim::LinkFault f;
        f.kind = kind;
        f.from = from;
        f.until = until;
        f.src = a;
        f.dst = b;
        f.probability = p;
        f.delay_min = dmin;
        f.delay_max = dmax;
        plan.link(f);
      };
      link(sim::LinkFaultKind::drop, drop_p, 0, 0);
      link(sim::LinkFaultKind::delay, delay_p, kMillisecond, 20 * kMillisecond);
      link(sim::LinkFaultKind::duplicate, dup_p, kMillisecond,
           5 * kMillisecond);
      link(sim::LinkFaultKind::corrupt, corrupt_p, 0, 0);
    }
  }
}

ScenarioResult run_scenario(std::uint64_t seed) {
  const ScenarioKind kind = kind_of(seed);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eedULL);  // scenario parameters

  obs::MetricsRegistry registry;
  obs::TraceRing trace(1 << 14);

  ServiceOptions options;
  options.nodes = {0, 1, 2, 3};
  options.block_size = 5;
  options.batch_timeout = runtime::msec(300);
  options.stub_signatures = true;
  options.signature_cost = runtime::usec(50);
  options.replica_params.forward_timeout = runtime::msec(300);
  options.replica_params.stop_timeout = runtime::msec(500);
  options.replica_params.checkpoint_period = 8;
  options.replica_params.state_transfer_gap = 4;
  options.replica_params.stall_timeout = runtime::msec(500);
  if (kind == ScenarioKind::corrupt_signer) {
    options.corrupt_signers = {static_cast<runtime::ProcessId>(
        rng.uniform(kNodes))};
  }
  options.metrics = &registry;
  options.trace = &trace;
  Service service = make_service(options);

  runtime::SimCluster cluster(
      sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, seed), seed);
  cluster.set_metrics(registry);

  std::unique_ptr<smr::ByzantineReplica> byz;
  if (kind == ScenarioKind::equivocating_leader ||
      kind == ScenarioKind::mute_leader) {
    byz = std::make_unique<smr::ByzantineReplica>(
        *service.nodes[0].replica,
        kind == ScenarioKind::equivocating_leader
            ? smr::ByzantineBehavior::equivocate_proposals
            : smr::ByzantineBehavior::mute_leader);
  }
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    runtime::Actor* actor = service.nodes[i].replica.get();
    if (i == 0 && byz != nullptr) actor = byz.get();
    cluster.add_process(service.cluster.members()[i], actor, sim::CpuConfig{});
  }

  FrontendOptions fo = make_frontend_options(service, options);
  if (kind == ScenarioKind::corrupt_signer) fo.verify_signatures = true;

  InvariantChecker checker;
  ledger::BlockStore store("channel-0");
  ScenarioResult result;
  FrontendOptions submitter_fo = fo;
  submitter_fo.metrics = &registry;  // frontend.* counters + submit spans
  submitter_fo.trace = &trace;
  Frontend submitter(service.cluster, submitter_fo,
                     [&checker, &store, &result](const ledger::Block& block) {
                       checker.observe(0, block);
                       const Status st = store.append(block);
                       if (!st.is_ok()) {
                         result.violations.push_back("store.append: " +
                                                     st.error());
                       }
                     });
  FrontendOptions observer_fo = fo;
  observer_fo.track_latency = false;
  Frontend observer(service.cluster, observer_fo, checker.observer(1));
  cluster.add_process(100, &submitter);
  cluster.add_process(101, &observer);

  sim::FaultPlan plan;
  plan.seed = seed;
  switch (kind) {
    case ScenarioKind::crash_recover: {
      const auto victim = static_cast<sim::ProcessId>(rng.uniform(kNodes));
      const sim::SimTime down_for =
          (1000 + static_cast<sim::SimTime>(rng.uniform(2500))) * kMillisecond;
      plan.crash_between(1 * kSecond, 1 * kSecond + down_for, victim);
      break;
    }
    case ScenarioKind::healing_partition: {
      const auto victim = static_cast<sim::ProcessId>(rng.uniform(kNodes));
      const sim::SimTime heal =
          (3000 + static_cast<sim::SimTime>(rng.uniform(1500))) * kMillisecond;
      plan.partition_between(1 * kSecond, heal, {victim});
      break;
    }
    case ScenarioKind::lossy_links:
      add_replica_link_faults(plan, rng);
      break;
    case ScenarioKind::equivocating_leader:
    case ScenarioKind::mute_leader:
    case ScenarioKind::corrupt_signer:
      break;  // the Byzantine actor itself is the fault
  }
  if (!plan.empty()) cluster.install_fault_plan(plan);

  for (std::uint64_t i = 0; i < kEnvelopes; ++i) {
    cluster.schedule_at((10 + i * 100) * kMillisecond, [&submitter, seed, i] {
      submitter.submit(to_bytes("chaos-" + std::to_string(seed) + "-" +
                                std::to_string(i)));
    });
  }
  cluster.run_until(35 * kSecond);

  checker.check_all_delivered("submitter", submitter, kEnvelopes);
  checker.check_all_delivered("observer", observer, kEnvelopes);
  // All faults heal and the workload ends well before 8s; recovery to a fully
  // delivered chain must not take the rest of the run.
  checker.check_recovered_by("submitter", submitter, 8 * kSecond,
                             20 * kSecond);
  const Status audit = store.verify();
  if (!audit.is_ok()) {
    result.violations.push_back("chain audit: " + audit.error());
  }

  for (const std::string& v : checker.violations()) {
    result.violations.push_back(v);
  }
  result.delivered = submitter.delivered_envelopes();
  result.blocks = checker.blocks_observed();
  result.height = store.height();
  if (!store.empty()) {
    result.tip = crypto::hash_hex(store.tip().header.digest());
  }
  for (std::size_t i = 0; i < service.nodes.size(); ++i) {
    if (i == 0 && byz != nullptr) continue;  // only honest replicas count
    result.max_honest_regency = std::max(result.max_honest_regency,
                                         service.nodes[i].replica->regency());
  }
  if (byz != nullptr) result.tampered_sends = byz->tampered_sends();
  cluster.export_metrics(registry, 0);
  result.metric_delivered =
      registry.counter("frontend.delivered_envelopes").value();
  result.metrics_json = obs::to_json(
      registry, &trace,
      {{"bench", "chaos"},
       {"scenario", kind_name(kind)},
       {"seed", std::to_string(seed)}},
      {{"delivered", static_cast<double>(result.delivered)},
       {"height", static_cast<double>(result.height)}});
  if (std::getenv("BFT_CHAOS_SEED") != nullptr) {
    std::fprintf(stderr, "[chaos %llu] delivered=%llu height=%zu\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(result.delivered),
                 result.height);
    for (std::size_t i = 0; i < service.nodes.size(); ++i) {
      std::fprintf(stderr,
                   "[chaos %llu] node %zu: ordered=%llu blocks=%llu "
                   "regency=%llu\n",
                   static_cast<unsigned long long>(seed), i,
                   static_cast<unsigned long long>(
                       service.nodes[i].app->envelopes_ordered()),
                   static_cast<unsigned long long>(
                       service.nodes[i].app->blocks_created()),
                   static_cast<unsigned long long>(
                       service.nodes[i].replica->regency()));
      std::fprintf(stderr,
                   "[chaos %llu] node %zu: confirmed=%llu transferring=%d "
                   "pending=%zu last_seq[100]=%llu\n",
                   static_cast<unsigned long long>(seed), i,
                   static_cast<unsigned long long>(
                       service.nodes[i].replica->last_confirmed()),
                   service.nodes[i].replica->state_transfer_in_progress()
                       ? 1
                       : 0,
                   service.nodes[i].replica->pending_request_count(),
                   static_cast<unsigned long long>(
                       service.nodes[i].replica->last_executed_seq(100)));
    }
  }
  return result;
}

/// Parses a whole decimal seed; nullopt for empty, signed, non-numeric,
/// partly numeric or out-of-range text.
std::optional<std::uint64_t> parse_seed(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end) return std::nullopt;
  return value;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

TEST(ChaosSweepTest, RandomizedFaultScenariosPreserveInvariants) {
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("BFT_CHAOS_SEED")) {
    const std::optional<std::uint64_t> seed = parse_seed(env);
    ASSERT_TRUE(seed.has_value())
        << "BFT_CHAOS_SEED must be a decimal seed, got '" << env << "'";
    seeds.push_back(*seed);
  } else {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) seeds.push_back(seed);
  }

  for (const std::uint64_t seed : seeds) {
    const ScenarioKind kind = kind_of(seed);
    SCOPED_TRACE("chaos seed " + std::to_string(seed) + " (" +
                 kind_name(kind) + "); rerun just this scenario with " +
                 "BFT_CHAOS_SEED=" + std::to_string(seed));
    const ScenarioResult result = run_scenario(seed);
    EXPECT_TRUE(result.violations.empty()) << join(result.violations);
    EXPECT_EQ(result.delivered, kEnvelopes);
    EXPECT_GT(result.height, 0u);
    // The instrumented submitter's counter must agree exactly with the
    // frontend's own bookkeeping, and the export must be well-formed.
    EXPECT_EQ(result.metric_delivered, result.delivered);
    EXPECT_NE(result.metrics_json.find("\"counters\""), std::string::npos);
    EXPECT_NE(result.metrics_json.find("\"trace\""), std::string::npos);
    if (const char* dir = std::getenv("BFT_CHAOS_METRICS_DIR")) {
      const std::string path =
          std::string(dir) + "/chaos_" + std::to_string(seed) + ".json";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fputs(result.metrics_json.c_str(), f);
        std::fputs("\n", f);
        std::fclose(f);
      } else {
        ADD_FAILURE() << "cannot write " << path;
      }
    }
    if (kind == ScenarioKind::equivocating_leader ||
        kind == ScenarioKind::mute_leader) {
      // The Byzantine leader actually tampered, and the honest majority had
      // to move past it via the synchronization phase.
      EXPECT_GT(result.tampered_sends, 0u);
      EXPECT_GE(result.max_honest_regency, 1u);
    }
  }
}

TEST(ChaosSweepTest, SeedParsingRejectsNonNumericText) {
  EXPECT_EQ(parse_seed("17"), std::optional<std::uint64_t>(17));
  EXPECT_EQ(parse_seed("18446744073709551615"),
            std::optional<std::uint64_t>(18446744073709551615ULL));
  for (const char* bad : {"", "abc", "12x", "-3", " 5", "18446744073709551616"}) {
    EXPECT_FALSE(parse_seed(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ChaosSweepTest, ScenariosAreDeterministic) {
  // Same seed, same world: the printed-seed repro promise depends on it.
  for (const std::uint64_t seed : {3ULL, 8ULL}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const ScenarioResult a = run_scenario(seed);
    const ScenarioResult b = run_scenario(seed);
    EXPECT_EQ(a.tip, b.tip);
    EXPECT_EQ(a.height, b.height);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.max_honest_regency, b.max_honest_regency);
    EXPECT_EQ(join(a.violations), join(b.violations));
    // Instrumentation is part of the determinism contract: counters,
    // histograms and the trace breakdown must be byte-identical per seed.
    EXPECT_EQ(a.metrics_json, b.metrics_json);
  }
}

}  // namespace
}  // namespace bft::ordering
