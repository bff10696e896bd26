// Property sweep: agreement and liveness across cluster sizes, execution
// modes and fault loads. Every configuration runs the same workload and must
// satisfy the same invariants:
//   * all surviving replicas end with identical history digests (safety);
//   * every tracked invocation completes (liveness);
//   * confirmed == applied on every survivor (no dangling speculation).
#include <gtest/gtest.h>

#include "tests/smr/test_support.hpp"

namespace bft::smr::testing {
namespace {

using sim::kMillisecond;
using sim::kSecond;

struct SweepCase {
  std::uint32_t n = 4;
  bool wheat = false;           // weighted quorums + tentative execution
  std::uint32_t crash = 0;      // non-leader crashes at t = 50 ms
  std::uint32_t drop_pct = 0;   // WRITE/ACCEPT loss rate, first 1.5 s
  std::uint64_t seed = 7;

  std::string name() const {
    std::string s = "n";
    s += std::to_string(n);
    s += wheat ? "wheat" : "classic";
    if (crash > 0) {
      s += "crash";
      s += std::to_string(crash);
    }
    if (drop_pct > 0) {
      s += "drop";
      s += std::to_string(drop_pct);
    }
    s += "seed";
    s += std::to_string(seed);
    return s;
  }
};

class SmrPropertySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SmrPropertySweep, AgreementAndCompletion) {
  const SweepCase c = GetParam();
  ReplicaParams params;
  params.forward_timeout = runtime::msec(250);
  params.stop_timeout = runtime::msec(400);
  params.sync_deadline = runtime::msec(1200);
  params.state_transfer_gap = 8;
  params.state_transfer_retry = runtime::msec(300);
  params.stall_timeout = runtime::msec(600);
  params.checkpoint_period = 16;
  params.tentative_execution = c.wheat;

  ClusterConfig config = c.wheat
                             ? ClusterConfig::wheat(
                                   [&] {
                                     std::vector<runtime::ProcessId> m;
                                     for (std::uint32_t i = 0; i < c.n; ++i) m.push_back(i);
                                     return m;
                                   }(),
                                   {0, 1})
                             : SimHarness::make_classic_config(c.n);
  SimHarness h(c.n, 2, params, config, c.seed);

  // Crash the last `crash` replicas (never the initial leader) at 50 ms.
  for (std::uint32_t k = 0; k < c.crash; ++k) {
    const runtime::ProcessId victim = c.n - 1 - k;
    h.cluster.schedule_at(50 * kMillisecond,
                          [&h, victim] { h.cluster.crash(victim); });
  }
  if (c.drop_pct > 0) {
    auto rng = std::make_shared<Rng>(c.seed ^ 0xdead);
    const std::uint32_t pct = c.drop_pct;
    h.cluster.set_filter([&h, rng, pct](runtime::ProcessId, runtime::ProcessId,
                                        ByteView payload) {
      if (h.cluster.now() < 1500 * kMillisecond && !payload.empty()) {
        const auto kind = peek_kind(payload);
        if ((kind == MsgKind::write || kind == MsgKind::accept) &&
            rng->uniform(100) < pct) {
          return sim::LinkVerdict{sim::LinkFaultKind::drop};
        }
      }
      return sim::LinkVerdict{};
    });
  }

  int completions = 0;
  for (int i = 0; i < 30; ++i) {
    h.invoke_at(100 * kMillisecond + i * 15 * kMillisecond, i % 2,
                delta_payload(1), [&](std::uint64_t, Bytes) { ++completions; });
  }
  h.cluster.run_until(30 * kSecond);

  EXPECT_EQ(completions, 30);
  std::vector<std::size_t> survivors;
  for (std::uint32_t i = 0; i < c.n - c.crash; ++i) survivors.push_back(i);
  EXPECT_TRUE(h.replicas_agree(survivors));
  for (std::size_t i : survivors) {
    EXPECT_EQ(h.machines[i]->value(), 30u) << "replica " << i;
    EXPECT_EQ(h.replicas[i]->last_confirmed(), h.replicas[i]->last_applied());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SmrPropertySweep,
    ::testing::Values(
        // Healthy clusters across sizes and modes.
        SweepCase{4, false, 0, 0, 7}, SweepCase{7, false, 0, 0, 7},
        SweepCase{10, false, 0, 0, 7}, SweepCase{5, true, 0, 0, 7},
        SweepCase{7, true, 0, 0, 7},
        // Crash faults up to f.
        SweepCase{4, false, 1, 0, 7}, SweepCase{7, false, 2, 0, 7},
        SweepCase{10, false, 3, 0, 7}, SweepCase{5, true, 1, 0, 7},
        // Transient message loss.
        SweepCase{4, false, 0, 10, 11}, SweepCase{4, false, 0, 25, 12},
        SweepCase{7, false, 0, 10, 13}, SweepCase{5, true, 0, 10, 14},
        // Loss and crash together.
        SweepCase{7, false, 1, 10, 15}, SweepCase{4, false, 1, 10, 16},
        // Different seeds exercise different interleavings.
        SweepCase{4, false, 0, 25, 21}, SweepCase{4, false, 0, 25, 22},
        SweepCase{5, true, 0, 10, 23}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name();
    });

}  // namespace
}  // namespace bft::smr::testing
