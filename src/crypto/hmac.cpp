#include "crypto/hmac.hpp"

#include <cstring>

namespace bft::crypto {

HmacSha256::HmacSha256(ByteView key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const Hash256 shrunk = sha256(key);
    std::memcpy(block.data(), shrunk.data(), shrunk.size());
  } else {
    std::memcpy(block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, 64> ipad_key;
  std::array<std::uint8_t, 64> opad_key;
  for (std::size_t i = 0; i < block.size(); ++i) {
    ipad_key[i] = block[i] ^ 0x36;
    opad_key[i] = block[i] ^ 0x5c;
  }
  inner_.update(ByteView(ipad_key.data(), ipad_key.size()));
  outer_.update(ByteView(opad_key.data(), opad_key.size()));
}

void HmacSha256::update(ByteView data) { inner_.update(data); }

Hash256 HmacSha256::finish() {
  const Hash256 inner_digest = inner_.finish();
  outer_.update(ByteView(inner_digest.data(), inner_digest.size()));
  return outer_.finish();
}

Hash256 hmac_sha256(ByteView key, ByteView data) {
  HmacSha256 mac(key);
  mac.update(data);
  return mac.finish();
}

}  // namespace bft::crypto
