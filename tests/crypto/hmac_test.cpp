#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

namespace bft::crypto {
namespace {

std::string mac_hex(ByteView key, ByteView data) {
  return hash_hex(hmac_sha256(key, data));
}

// RFC 4231 test vectors.
TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(mac_hex(key, to_bytes("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(mac_hex(to_bytes("Jefe"), to_bytes("what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(mac_hex(key, data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t i = 1; i <= 25; ++i) key.push_back(i);
  const Bytes data(50, 0xcd);
  EXPECT_EQ(mac_hex(key, data),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(mac_hex(key, to_bytes("Test Using Larger Than Block-Size Key - "
                                  "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, Rfc4231Case7LongKeyAndData) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(mac_hex(key,
                    to_bytes("This is a test using a larger than block-size "
                             "key and a larger than block-size data. The key "
                             "needs to be hashed before being used by the "
                             "HMAC algorithm.")),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, StreamingMatchesOneShot) {
  const Bytes key = to_bytes("stream-key");
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  HmacSha256 mac(key);
  mac.update(ByteView(data.data(), 10));
  mac.update(ByteView(data.data() + 10, data.size() - 10));
  EXPECT_EQ(mac.finish(), hmac_sha256(key, data));
}

TEST(HmacTest, KeySensitivity) {
  const Bytes data = to_bytes("msg");
  EXPECT_NE(hmac_sha256(to_bytes("k1"), data), hmac_sha256(to_bytes("k2"), data));
}

TEST(HmacTest, CopiedKeyedInstanceMatchesFreshOne) {
  // RFC 4231 case 2 through a copy of a keyed instance, twice from the same
  // original: the copies share the absorbed key pads, not their state.
  const Bytes key = to_bytes("Jefe");
  const Bytes data = to_bytes("what do ya want for nothing?");
  const HmacSha256 keyed(key);
  for (int i = 0; i < 2; ++i) {
    HmacSha256 copy = keyed;
    copy.update(data);
    EXPECT_EQ(hash_hex(copy.finish()),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  }
}

TEST(HmacTest, CopiedKeyedInstanceMatchesFreshOneForAnyMessage) {
  // Empty, one-block and multi-block messages, under a long (hashed) key
  // and a short one.
  for (const Bytes& key : {Bytes(131, 0xaa), to_bytes("k")}) {
    const HmacSha256 keyed(key);
    for (const std::size_t size : {0u, 1u, 55u, 64u, 65u, 200u}) {
      const Bytes data(size, 0x5c);
      HmacSha256 copy = keyed;
      copy.update(data);
      HmacSha256 fresh(key);
      fresh.update(data);
      EXPECT_EQ(copy.finish(), fresh.finish()) << size;
    }
  }
}

}  // namespace
}  // namespace bft::crypto
