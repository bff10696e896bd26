// SMR client proxy: assigns request sequence numbers, broadcasts to the
// replica group, resends on timeout and gathers reply quorums.
//
// Two usage modes mirror BFT-SMaRt:
//   * invoke(payload, callback) — tracked invocation; the callback fires once
//     enough matching replies arrive (f+1-equivalent weight normally; a full
//     write-quorum weight when the cluster runs WHEAT tentative execution,
//     per §4);
//   * invoke_async(payload) — fire-and-forget, used by ordering frontends
//     whose results come back through the custom replier's block pushes.
#pragma once

#include <functional>
#include <map>

#include "runtime/actor.hpp"
#include "smr/config.hpp"
#include "smr/wire.hpp"

namespace bft::smr {

class Client : public runtime::Actor {
 public:
  struct Params {
    runtime::Duration resend_timeout = runtime::msec(2000);
    /// Cluster executes tentatively (WHEAT): wait for quorum-weight replies.
    bool tentative = false;
  };

  using ReplyCallback = std::function<void(std::uint64_t seq, Bytes reply)>;

  explicit Client(ClusterConfig config);
  Client(ClusterConfig config, Params params);

  void on_start(runtime::Env& env) override;
  void on_message(runtime::ProcessId from, ByteView payload) override;
  void on_timer(std::uint64_t timer_id) override;

  /// Tracked invocation. Call from the actor's execution context only.
  std::uint64_t invoke(Bytes payload, ReplyCallback callback,
                       RequestKind kind = RequestKind::application);

  /// Fire-and-forget invocation (no reply tracking, no resend).
  std::uint64_t invoke_async(Bytes payload,
                             RequestKind kind = RequestKind::application);

  const ClusterConfig& config() const { return config_; }

  std::uint64_t completed_count() const { return completed_; }
  std::size_t outstanding_count() const { return outstanding_.size(); }

 private:
  struct Outstanding {
    Bytes encoded_request;
    ReplyCallback callback;
    // reply-digest hex -> replica processes that sent it (+ one payload copy)
    std::map<std::string, std::pair<std::set<runtime::ProcessId>, Bytes>> replies;
  };

  consensus::Weight reply_threshold() const;
  void send_to_all(const Bytes& encoded);

  ClusterConfig config_;
  Params params_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, Outstanding> outstanding_;
  std::uint64_t resend_timer_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace bft::smr
