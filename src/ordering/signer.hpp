// Block-signature backends for ordering nodes.
//
// The real backend produces ECDSA signatures with the node's key (what the
// paper's service does via the HLF SDK). The stub backend produces keyed
// hashes with a calibrated simulated cost — used by the discrete-event
// benchmarks so simulating five minutes of cluster time does not require
// computing millions of real signatures. Frontends by default do not verify
// signatures at all (they collect 2f+1 matching blocks, §5), so the stub
// preserves the protocol behaviour exactly.
#pragma once

#include <memory>

#include "crypto/authenticator.hpp"
#include "crypto/ecdsa.hpp"
#include "runtime/actor.hpp"

namespace bft::ordering {

class BlockSigner {
 public:
  virtual ~BlockSigner() = default;

  /// Signs a block-header digest. Must be thread-safe: the real runtime calls
  /// this from the signing worker pool.
  virtual Bytes sign(const crypto::Hash256& header_digest) const = 0;

  /// Verifies a signature allegedly produced by node `signer`.
  virtual bool verify(runtime::ProcessId signer,
                      const crypto::Hash256& header_digest,
                      ByteView signature) const = 0;

  /// Simulated CPU cost of one sign() call.
  virtual runtime::Duration cost_hint() const = 0;
};

/// Real ECDSA over secp256k1 with the node's deterministic process key: a
/// thin adapter over crypto::Authenticator (crypto/authenticator.hpp).
class EcdsaBlockSigner final : public BlockSigner {
 public:
  /// `node` is the signing node's process id; `cost_hint` defaults to the
  /// paper-calibrated 1.905 ms (8.4 ksig/s across 16 workers, §6.1).
  explicit EcdsaBlockSigner(runtime::ProcessId node,
                            runtime::Duration cost_hint = runtime::usec(1905));

  Bytes sign(const crypto::Hash256& header_digest) const override;
  bool verify(runtime::ProcessId signer, const crypto::Hash256& header_digest,
              ByteView signature) const override;
  runtime::Duration cost_hint() const override { return cost_hint_; }

 private:
  crypto::Authenticator auth_;
  runtime::Duration cost_hint_;
};

/// Byzantine faulty signer: produces bit-flipped (invalid) signatures while
/// verifying honestly. Wraps any backend; used by chaos tests to exercise the
/// frontends' f+1-with-verification acceptance rule (footnote 8) against a
/// node whose blocks are correct but whose signatures never check out.
class CorruptingBlockSigner final : public BlockSigner {
 public:
  explicit CorruptingBlockSigner(std::shared_ptr<BlockSigner> inner);

  Bytes sign(const crypto::Hash256& header_digest) const override;
  bool verify(runtime::ProcessId signer, const crypto::Hash256& header_digest,
              ByteView signature) const override;
  runtime::Duration cost_hint() const override { return inner_->cost_hint(); }

 private:
  std::shared_ptr<BlockSigner> inner_;
};

/// Keyed-hash stand-in with identical interface and calibrated cost.
class StubBlockSigner final : public BlockSigner {
 public:
  explicit StubBlockSigner(runtime::ProcessId node,
                           runtime::Duration cost_hint = runtime::usec(1905));

  Bytes sign(const crypto::Hash256& header_digest) const override;
  bool verify(runtime::ProcessId signer, const crypto::Hash256& header_digest,
              ByteView signature) const override;
  runtime::Duration cost_hint() const override { return cost_hint_; }

 private:
  static Bytes compute(runtime::ProcessId node,
                       const crypto::Hash256& header_digest);

  runtime::ProcessId node_;
  runtime::Duration cost_hint_;
};

}  // namespace bft::ordering
