// Process-keyed authentication seam. Every signature the protocol produces
// or checks — FORWARD relays, WRITE attestations, STOPDATA certificates,
// ordered-block signatures — goes through this one class keyed by process
// id, so the staged runner prologue (runner.hpp) has a single thread-safe
// verification entry point.
//
// The scheme is the paper's: ECDSA (secp256k1, RFC-6979) over per-process
// keys from the deterministic simulated PKI. Signatures verify for everyone,
// which broadcast traffic (WRITEs, blocks) needs.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/sha256.hpp"

namespace bft::crypto {

/// Deterministic per-process key material (the simulated PKI): every process
/// derives its signing key from its id, so any process can reconstruct any
/// other's public key without a handshake.
PrivateKey process_private_key(std::uint32_t id);
/// Cached public counterpart (with its verification table); the reference
/// stays valid for the program's lifetime. Thread-safe, and lock-free after a
/// thread's first lookup of `id`.
const PublicKey& process_public_key(std::uint32_t id);

/// Signing with process `self`'s key and verification against any process's
/// key. Thread-safe: both methods are called concurrently from runner
/// prologue workers and from event-loop threads.
class Authenticator {
 public:
  explicit Authenticator(std::uint32_t self);

  /// This process's signature over `digest`.
  Bytes sign(const Hash256& digest) const;

  /// True iff `signature` is process `from`'s valid signature over `digest`.
  bool verify(std::uint32_t from, const Hash256& digest,
              ByteView signature) const;

 private:
  PrivateKey key_;
};

}  // namespace bft::crypto
