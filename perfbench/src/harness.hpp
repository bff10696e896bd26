// One benchmark pass: a 4-node ordering service plus one frontend, each on
// its own loopback TCP address inside this process, driven by a constant-rate
// open-loop generator for a fixed window.
//
// Untraced passes host every process in a runtime::TcpCluster, exactly as the
// bft_node / bft_frontend binaries do. Traced passes compose the same thing
// by hand (RealCluster + TcpTransport) so decorators can sit on the public
// seams; see tracing.hpp.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Workload {
  std::string name;
  std::size_t envelope_bytes;
  std::size_t block_size;
  bool verify;    // frontend verifies block signatures (f+1 rule)
  double rate;    // envelopes per second, constant
  bool crash;     // stop the leader mid-window, restart it from disk later
};

/// The benchmark's workloads; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

struct PassOptions {
  Workload workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  int setups = 1;               // full set-ups in the pass; the last one runs
  double max_extension_s = 0;  // longest extension for want of quiet slices
  std::string workdir;          // data directories live below it
  std::string trace_out;        // span file (traced passes only)
};

struct PassResult {
  std::vector<double> setup_s;          // one per set-up
  std::vector<double> setup_steal_pct;  // host steal during each set-up
  double latency_p50_ms = 0;
  double latency_p99_ms = 0;
  std::uint64_t latency_samples = 0;
  double cpu_ms_per_kenv = 0;
  double peak_rss_mb = 0;
  double failover_ms = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // empty = every check passed
  int port_retries = 0;
  std::uint64_t regency_changes = 0;
  double gen_lag_ms_p99 = 0;
  double steal_pct = 0;  // host CPU stolen by the hypervisor in the window
  std::size_t slices = 0;               // one-second slices, extension included
  std::size_t quiet_slices = 0;         // slices the end-to-end figures use
  double quiet_steal_pct = 0;           // highest steal among them
  std::vector<double> slice_steal_pct;  // per slice: host steal
  std::vector<double> slice_p50_ms;     // per slice: p50 latency (0 if empty)
  std::uint64_t dropped_frames = 0;  // shed by transport queues and inboxes
  double first_lost_due_s = -1;      // due offsets of undelivered envelopes
  double last_lost_due_s = -1;
  /// Per-layer metrics (traced passes only), by name.
  std::map<std::string, double> layers;
};

PassResult run_pass(const PassOptions& options);

/// setup_s of a pass: the median time of its three set-ups with the least
/// host steal.
double quiet_setup_s(const PassResult& result);

/// Spins every core for `seconds` (untimed CPU pre-warm).
void prewarm_cpu(double seconds);
/// Times a fixed single-thread ALU loop; millions of iterations per second.
double cpu_probe_mops();

/// Nearest-rank quantile of `values` (q in [0, 1]); sorts in place.
double quantile(std::vector<double>& values, double q);

}  // namespace perfbench
