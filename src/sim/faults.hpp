// Declarative fault injection for the simulated runtime.
//
// A FaultPlan describes, ahead of a run, everything that will go wrong:
//
//   * scheduled process faults — crash at t, recover at t (the runtime wipes
//     the process's pending timers and worker completions on crash, so a
//     recovery starts from a clean event slate);
//   * partitions that heal — during [from, until) messages crossing the
//     boundary between `group` and the rest of the cluster are dropped;
//   * per-link message faults — seeded-random drop / delay / duplicate /
//     corrupt with an activity window, optional endpoint restriction and a
//     probability.
//
// The plan itself is passive data; LinkFaultModel evaluates the message-level
// faults deterministically from a seed, and the simulated runtime applies the
// verdicts (see SimCluster::install_fault_plan). Keeping the evaluation here,
// below the runtime layer, lets unit tests exercise fault selection without a
// cluster.
//
// The randomized chaos sweep (`ctest -L chaos`) builds one FaultPlan per
// seed; DESIGN.md §6c describes the scenario shapes and the
// BFT_CHAOS_SEED / BFT_CHAOS_METRICS_DIR reproduction workflow. Fault
// evaluation shares no state with the obs metrics layer, which is what keeps
// a chaos run that exports its metrics byte-identical to one that does not.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "sim/scheduler.hpp"

namespace bft::sim {

using ProcessId = std::uint32_t;

/// Activity window end meaning "never heals".
constexpr SimTime kSimForever = std::numeric_limits<SimTime>::max();

/// What a link fault does to a matched message.
enum class LinkFaultKind : std::uint8_t {
  drop,
  /// Deliver after an extra latency (LinkVerdict::delay).
  delay,
  /// Deliver normally plus a second copy after LinkVerdict::delay.
  duplicate,
  /// Flip one seeded-random byte of the payload, then deliver. Receivers must
  /// treat the result as Byzantine input (DecodeError, bad signature, ...).
  corrupt,
};

/// One probabilistic message-level fault rule.
struct LinkFault {
  LinkFaultKind kind = LinkFaultKind::drop;
  /// Active while from <= now < until.
  SimTime from = 0;
  SimTime until = kSimForever;
  /// Endpoint restriction; nullopt matches any process.
  std::optional<ProcessId> src;
  std::optional<ProcessId> dst;
  /// Probability in [0, 1] that a matched message is affected.
  double probability = 1.0;
  /// Extra latency for `delay`, offset of the second copy for `duplicate`
  /// (uniform in [delay_min, delay_max]).
  SimTime delay_min = 0;
  SimTime delay_max = 0;

  bool active_at(SimTime now) const { return now >= from && now < until; }
  bool matches(ProcessId f, ProcessId t) const {
    return (!src.has_value() || *src == f) && (!dst.has_value() || *dst == t);
  }
};

/// A group of processes cut off from everyone else during [from, until).
struct Partition {
  SimTime from = 0;
  SimTime until = kSimForever;
  std::vector<ProcessId> group;

  bool active_at(SimTime now) const { return now >= from && now < until; }
  bool severs(ProcessId a, ProcessId b) const {
    const auto in = [this](ProcessId p) {
      return std::find(group.begin(), group.end(), p) != group.end();
    };
    return in(a) != in(b);
  }
};

/// A scheduled process-lifecycle event.
struct ProcessFault {
  SimTime at = 0;
  ProcessId process = 0;
};

/// The full declarative schedule of faults for one run.
struct FaultPlan {
  std::vector<ProcessFault> crashes;
  std::vector<ProcessFault> recoveries;
  std::vector<Partition> partitions;
  std::vector<LinkFault> link_faults;
  /// Seeds the link-fault coin flips (combined with the cluster seed).
  std::uint64_t seed = 0;

  // Fluent builders, so test scenarios read as a schedule.
  FaultPlan& crash_at(SimTime at, ProcessId p);
  FaultPlan& recover_at(SimTime at, ProcessId p);
  /// Crash at `at`, recover at `until`.
  FaultPlan& crash_between(SimTime at, SimTime until, ProcessId p);
  FaultPlan& partition_between(SimTime from, SimTime until,
                               std::vector<ProcessId> group);
  FaultPlan& link(LinkFault fault);

  bool empty() const {
    return crashes.empty() && recoveries.empty() && partitions.empty() &&
           link_faults.empty();
  }
};

/// Outcome of evaluating the message-level faults for one send (also the
/// answer of a SimCluster test filter).
struct LinkVerdict {
  /// nullopt = deliver untouched.
  std::optional<LinkFaultKind> action;
  /// For delay: added latency. For duplicate: offset of the extra copy.
  SimTime delay = 0;
};

/// Deterministic evaluator for partitions and link faults. One instance per
/// run; verdicts depend only on the plan, the seed and the call sequence, so
/// a rerun with the same seed replays the identical fault pattern.
class LinkFaultModel {
 public:
  LinkFaultModel(const FaultPlan& plan, std::uint64_t runtime_seed);

  /// Decides the fate of one message. Partitions take precedence; otherwise
  /// the first matching link fault whose coin flip hits applies.
  LinkVerdict decide(ProcessId from, ProcessId to, SimTime now);

 private:
  std::vector<Partition> partitions_;
  std::vector<LinkFault> link_faults_;
  Rng rng_;
};

}  // namespace bft::sim
