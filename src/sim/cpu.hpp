// Per-node CPU model for the simulated runtime.
//
// Each node mirrors the paper's Dell R410 (16 hardware threads) running two
// kinds of work:
//
//   * the protocol thread — BFT-SMaRt's single-threaded message loop, modelled
//     as a FIFO server whose per-event service times the protocol code charges
//     explicitly (charge_cpu);
//   * the worker pool — the 16 signing threads (§5.1), modelled as k parallel
//     servers.
//
// §6.2 observes a "tug-of-war" between the two: with the protocol stack near
// saturation, effective signing throughput drops from 8.4 ksig/s to ~5 ksig/s.
// We reproduce that with a contention factor: worker service times inflate by
// (1 + beta * protocol_utilization), where utilization is an EWMA of the
// protocol server's busy fraction. beta defaults to 0.8, calibrated to the
// paper's 84k -> 50k tx/s drop for 10-envelope blocks.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"

namespace bft::sim {

struct CpuConfig {
  std::uint32_t worker_threads = 16;
  double contention_beta = 0.8;
  /// EWMA smoothing constant for the utilization estimate.
  double utilization_alpha = 0.05;
  /// Staged-pipeline verification workers (the `--workers N` knob, mirroring
  /// runtime::WorkerPoolRunner): 0 keeps the serial reference behavior where
  /// prologue work is charged to the protocol FIFO thread; N > 0 models N
  /// parallel servers absorbing the thread-safe prologue share of message
  /// handling (decode + signature checks), with epilogues released back to
  /// the protocol thread in arrival order.
  std::uint32_t prologue_workers = 0;
};

class CpuModel {
 public:
  explicit CpuModel(CpuConfig config);

  /// Serialized protocol-thread work: returns the completion time of a job of
  /// `cost` arriving at `now` (starts when the previous one finished).
  SimTime run_protocol_job(SimTime now, SimTime cost);

  /// Worker-pool job (block signing): returns completion time, inflating
  /// `cost` by the current contention factor.
  SimTime run_worker_job(SimTime now, SimTime cost);

  /// Staged-pipeline prologue job (message decode/verify offload): one of
  /// `prologue_workers` parallel servers, inflated by the same contention
  /// factor as the signing pool (both contend with the protocol stack).
  /// Never called when prologue_workers == 0.
  SimTime run_prologue_job(SimTime now, SimTime cost);

  std::uint32_t prologue_worker_count() const {
    return config_.prologue_workers;
  }

  /// Current EWMA of the protocol thread's busy fraction, in [0, 1].
  double protocol_utilization() const { return utilization_; }

 private:
  CpuConfig config_;
  SimTime protocol_free_ = 0;
  double utilization_ = 0.0;
  std::vector<SimTime> worker_free_;
  std::vector<SimTime> prologue_free_;
};

}  // namespace bft::sim
