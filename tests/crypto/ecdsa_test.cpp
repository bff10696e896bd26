#include "crypto/ecdsa.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "crypto/field.hpp"
#include "crypto/scalar.hpp"

namespace bft::crypto {
namespace {

Hash256 msg_digest(std::string_view msg) { return sha256(to_bytes(msg)); }

TEST(EcdsaTest, JacobianXCheckCoversRPlusN) {
  // A nonce point whose x lies in [n, p) gives r = x - n; verification
  // compares without leaving Jacobian coordinates, so it must also try
  // (r + n) * Z^2.
  namespace ec = secp256k1;
  U256 x = ec::sc::kN;
  std::optional<ec::Affine> point;
  while (!(point = ec::lift_x(x, false))) add_with_carry(x, U256::one(), x);
  ASSERT_TRUE(x < ec::fe::kP);
  // P + G - G, so Z is not 1.
  const ec::Affine& g = ec::generator();
  ec::Jacobian jp = ec::add(ec::to_jacobian(*point), ec::to_jacobian(g));
  U256 neg_y;
  sub_with_borrow(ec::fe::kP, g.y, neg_y);
  jp = ec::add_mixed(jp, ec::Affine{g.x, neg_y, false});
  ASSERT_FALSE(jp.z == U256::one());
  ASSERT_EQ(ec::to_affine(jp), *point);

  U256 r;
  sub_with_borrow(x, ec::sc::kN, r);
  EXPECT_TRUE(ec::x_mod_n_equals(jp, r));
  U256 r_plus_1;
  add_with_carry(r, U256::one(), r_plus_1);
  EXPECT_FALSE(ec::x_mod_n_equals(jp, r_plus_1));
  EXPECT_FALSE(ec::x_mod_n_equals(ec::Jacobian::infinity(), r));
}

TEST(EcdsaTest, SignVerifyRoundTrip) {
  Rng rng(1);
  const PrivateKey key = PrivateKey::generate(rng);
  const PublicKey pub = key.public_key();
  const Hash256 digest = msg_digest("hello ordering service");
  const Signature sig = key.sign(digest);
  EXPECT_TRUE(pub.verify(digest, sig));
}

TEST(EcdsaTest, VerifyRejectsWrongMessage) {
  Rng rng(2);
  const PrivateKey key = PrivateKey::generate(rng);
  const Signature sig = key.sign(msg_digest("block 1"));
  EXPECT_FALSE(key.public_key().verify(msg_digest("block 2"), sig));
}

TEST(EcdsaTest, VerifyRejectsWrongKey) {
  Rng rng(3);
  const PrivateKey key1 = PrivateKey::generate(rng);
  const PrivateKey key2 = PrivateKey::generate(rng);
  const Hash256 digest = msg_digest("payload");
  EXPECT_FALSE(key2.public_key().verify(digest, key1.sign(digest)));
}

TEST(EcdsaTest, VerifyRejectsTamperedSignature) {
  Rng rng(4);
  const PrivateKey key = PrivateKey::generate(rng);
  const Hash256 digest = msg_digest("tamper");
  Signature sig = key.sign(digest);
  sig.r = secp256k1::sc::add(sig.r, U256::one());
  EXPECT_FALSE(key.public_key().verify(digest, sig));
}

TEST(EcdsaTest, VerifyRejectsZeroScalars) {
  Rng rng(5);
  const PrivateKey key = PrivateKey::generate(rng);
  const Hash256 digest = msg_digest("zeros");
  const Signature sig = key.sign(digest);
  EXPECT_FALSE(key.public_key().verify(digest, Signature{U256::zero(), sig.s}));
  EXPECT_FALSE(key.public_key().verify(digest, Signature{sig.r, U256::zero()}));
  EXPECT_FALSE(key.public_key().verify(
      digest, Signature{secp256k1::sc::kN, sig.s}));
}

TEST(EcdsaTest, DeterministicSignatures) {
  Rng rng(6);
  const PrivateKey key = PrivateKey::generate(rng);
  const Hash256 digest = msg_digest("same message");
  EXPECT_EQ(key.sign(digest), key.sign(digest));
}

TEST(EcdsaTest, LowSNormalization) {
  Rng rng(7);
  const PrivateKey key = PrivateKey::generate(rng);
  for (int i = 0; i < 20; ++i) {
    const Signature sig = key.sign(msg_digest("msg " + std::to_string(i)));
    EXPECT_FALSE(secp256k1::sc::kHalfN < sig.s) << "high-s signature produced";
  }
}

// Community-standard RFC 6979 vectors for secp256k1 (message hashed with
// SHA-256); used by bitcoin-core, trezor and python-ecdsa test suites.
TEST(EcdsaTest, Rfc6979NonceVector1) {
  const auto key = PrivateKey::from_bytes(from_hex(
      "0000000000000000000000000000000000000000000000000000000000000001"));
  ASSERT_TRUE(key.ok());
  const U256 k = rfc6979_nonce(
      U256::from_hex("1"), msg_digest("Satoshi Nakamoto"));
  EXPECT_EQ(to_hex(k.to_be_bytes()),
            "8f8a276c19f4149656b280621e358cce24f5f52542772691ee69063b74f15d15");
}

TEST(EcdsaTest, Rfc6979SignatureVector1) {
  const auto key = PrivateKey::from_bytes(from_hex(
      "0000000000000000000000000000000000000000000000000000000000000001"));
  ASSERT_TRUE(key.ok());
  const Signature sig = key.value().sign(msg_digest("Satoshi Nakamoto"));
  EXPECT_EQ(to_hex(sig.to_bytes()),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5");
}

TEST(EcdsaTest, Rfc6979SignatureVector2) {
  const auto key = PrivateKey::from_bytes(from_hex(
      "0000000000000000000000000000000000000000000000000000000000000001"));
  ASSERT_TRUE(key.ok());
  const Signature sig = key.value().sign(msg_digest(
      "All those moments will be lost in time, like tears in rain. Time to "
      "die..."));
  EXPECT_EQ(to_hex(sig.to_bytes()),
            "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b"
            "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21");
}

TEST(EcdsaTest, Rfc6979SignatureVector3) {
  // Private key n-1 with the same message exercises the big-scalar path.
  const auto key = PrivateKey::from_bytes(from_hex(
      "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140"));
  ASSERT_TRUE(key.ok());
  const Hash256 digest = msg_digest("Satoshi Nakamoto");
  const Signature sig = key.value().sign(digest);
  EXPECT_TRUE(key.value().public_key().verify(digest, sig));
  EXPECT_FALSE(secp256k1::sc::kHalfN < sig.s);
}

TEST(EcdsaTest, PublicKeySerializationRoundTrip) {
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    const PrivateKey key = PrivateKey::generate(rng);
    const PublicKey pub = key.public_key();
    const Bytes encoded = pub.to_bytes();
    ASSERT_EQ(encoded.size(), 33u);
    const auto decoded = PublicKey::from_bytes(encoded);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), pub);
  }
}

TEST(EcdsaTest, PublicKeyRejectsGarbage) {
  EXPECT_FALSE(PublicKey::from_bytes(Bytes{1, 2, 3}).ok());
  Bytes wrong_prefix(33, 0);
  wrong_prefix[0] = 0x05;
  EXPECT_FALSE(PublicKey::from_bytes(wrong_prefix).ok());
  // x == p is out of range.
  Bytes x_too_big = from_hex(
      "02fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  EXPECT_FALSE(PublicKey::from_bytes(x_too_big).ok());
}

TEST(EcdsaTest, SignatureSerializationRoundTrip) {
  Rng rng(9);
  const PrivateKey key = PrivateKey::generate(rng);
  const Signature sig = key.sign(msg_digest("serialize me"));
  const Bytes encoded = sig.to_bytes();
  ASSERT_EQ(encoded.size(), 64u);
  const auto decoded = Signature::from_bytes(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), sig);
}

TEST(EcdsaTest, SignatureFromBytesValidates) {
  EXPECT_FALSE(Signature::from_bytes(Bytes(63, 1)).ok());
  Bytes zero_r(64, 0);
  zero_r[63] = 1;  // r = 0, s = 1
  EXPECT_FALSE(Signature::from_bytes(zero_r).ok());
}

TEST(EcdsaTest, PrivateKeyValidation) {
  EXPECT_FALSE(PrivateKey::from_bytes(Bytes(32, 0)).ok());  // d = 0
  EXPECT_FALSE(PrivateKey::from_bytes(secp256k1::sc::kN.to_be_bytes()).ok());
  EXPECT_FALSE(PrivateKey::from_bytes(Bytes(31, 1)).ok());
  EXPECT_TRUE(PrivateKey::from_bytes(Bytes(32, 1)).ok());
}

TEST(EcdsaTest, FromSeedDeterministic) {
  const PrivateKey a = PrivateKey::from_seed(to_bytes("orderer-0"));
  const PrivateKey b = PrivateKey::from_seed(to_bytes("orderer-0"));
  const PrivateKey c = PrivateKey::from_seed(to_bytes("orderer-1"));
  EXPECT_EQ(a.to_bytes(), b.to_bytes());
  EXPECT_NE(a.to_bytes(), c.to_bytes());
}

TEST(EcdsaTest, ManyKeysSignVerify) {
  Rng rng(10);
  for (int i = 0; i < 8; ++i) {
    const PrivateKey key = PrivateKey::generate(rng);
    const Hash256 digest = msg_digest("bulk " + std::to_string(i));
    EXPECT_TRUE(key.public_key().verify(digest, key.sign(digest)));
  }
}

}  // namespace
}  // namespace bft::crypto
