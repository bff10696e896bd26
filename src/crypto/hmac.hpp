// HMAC-SHA256 (RFC 2104), used by the RFC-6979 deterministic nonce generator.
#pragma once

#include "crypto/sha256.hpp"

namespace bft::crypto {

/// Streaming HMAC-SHA256 keyed at construction. A copy of a keyed instance
/// MACs under the same key without hashing the key pads again.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key);

  void update(ByteView data);
  Hash256 finish();

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

/// One-shot convenience.
Hash256 hmac_sha256(ByteView key, ByteView data);

}  // namespace bft::crypto
