// ECDSA over secp256k1 with RFC-6979 deterministic nonces and low-s
// normalization. This is the signature scheme the ordering nodes use to sign
// blocks and the endorsing peers use to sign endorsements (the paper uses
// ECDSA via the HLF SDK).
#pragma once

#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"

namespace bft::crypto {

/// 64-byte signature: r || s, both 32-byte big-endian.
struct Signature {
  U256 r;
  U256 s;

  Bytes to_bytes() const;
  static Result<Signature> from_bytes(ByteView data);

  bool operator==(const Signature& other) const {
    return r == other.r && s == other.s;
  }
};

class PublicKey {
 public:
  /// `point` must be a finite curve point.
  explicit PublicKey(const secp256k1::Affine& point)
      : point_(point), table_(point) {}

  /// 33-byte SEC1 compressed encoding (02/03 prefix + x).
  Bytes to_bytes() const;
  /// Decodes and validates a compressed point.
  static Result<PublicKey> from_bytes(ByteView data);

  /// True iff `sig` is a valid signature on `digest`.
  bool verify(const Hash256& digest, const Signature& sig) const;

  const secp256k1::Affine& point() const { return point_; }
  bool operator==(const PublicKey& other) const { return point_ == other.point_; }

 private:
  secp256k1::Affine point_;
  secp256k1::PointTable table_;  // what every verify reads of the point
};

class PrivateKey {
 public:
  /// Fresh key from a deterministic generator (tests, simulations).
  static PrivateKey generate(Rng& rng);
  /// Key derived from arbitrary seed material (hashed then reduced mod n).
  static PrivateKey from_seed(ByteView seed);
  /// Exact scalar import; fails unless 0 < d < n.
  static Result<PrivateKey> from_bytes(ByteView data);

  Bytes to_bytes() const { return d_.to_be_bytes(); }
  PublicKey public_key() const;

  /// Deterministic (RFC 6979) signature over a 32-byte digest.
  Signature sign(const Hash256& digest) const;

 private:
  explicit PrivateKey(U256 d) : d_(d) {}
  U256 d_;
};

/// RFC-6979 nonce derivation, exposed for test vectors.
U256 rfc6979_nonce(const U256& priv, const Hash256& digest);

}  // namespace bft::crypto
