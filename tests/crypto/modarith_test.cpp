#include "crypto/modarith.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "crypto/field.hpp"
#include "crypto/secp256k1.hpp"

namespace bft::crypto {
namespace {

// The generic class over the secp256k1 field prime (the curve code itself
// uses the dedicated field of field.hpp).
const ModArith& fp() {
  static const ModArith m(secp256k1::fe::kP);
  return m;
}

U256 random_elem(Rng& rng) {
  return fp().reduce(U256::from_be_bytes(rng.bytes(32)));
}

TEST(ModArithTest, RejectsEvenModulus) {
  U256 even = U256::from_hex(
      "8000000000000000000000000000000000000000000000000000000000000000");
  EXPECT_THROW(ModArith m(even), std::invalid_argument);
}

TEST(ModArithTest, RejectsSmallModulus) {
  EXPECT_THROW(ModArith m(U256::from_u64(17)), std::invalid_argument);
}

TEST(ModArithTest, MontRoundTrip) {
  Rng rng(101);
  for (int i = 0; i < 50; ++i) {
    const U256 a = random_elem(rng);
    EXPECT_EQ(fp().from_mont(fp().to_mont(a)), a);
  }
}

TEST(ModArithTest, MulMatchesSmallIntegers) {
  const U256 a = fp().to_mont(U256::from_u64(123456789));
  const U256 b = fp().to_mont(U256::from_u64(987654321));
  const U256 prod = fp().from_mont(fp().mul(a, b));
  EXPECT_EQ(prod, U256::from_u64(123456789ULL * 987654321ULL));
}

TEST(ModArithTest, MulCommutativeAssociative) {
  Rng rng(7);
  for (int i = 0; i < 25; ++i) {
    const U256 a = fp().to_mont(random_elem(rng));
    const U256 b = fp().to_mont(random_elem(rng));
    const U256 c = fp().to_mont(random_elem(rng));
    EXPECT_EQ(fp().mul(a, b), fp().mul(b, a));
    EXPECT_EQ(fp().mul(fp().mul(a, b), c), fp().mul(a, fp().mul(b, c)));
  }
}

TEST(ModArithTest, DistributiveLaw) {
  Rng rng(8);
  for (int i = 0; i < 25; ++i) {
    const U256 a = fp().to_mont(random_elem(rng));
    const U256 b = fp().to_mont(random_elem(rng));
    const U256 c = fp().to_mont(random_elem(rng));
    EXPECT_EQ(fp().mul(a, fp().add(b, c)),
              fp().add(fp().mul(a, b), fp().mul(a, c)));
  }
}

TEST(ModArithTest, AddSubNegIdentities) {
  Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    const U256 a = random_elem(rng);
    const U256 b = random_elem(rng);
    EXPECT_EQ(fp().sub(fp().add(a, b), b), a);
    EXPECT_EQ(fp().add(a, fp().neg(a)), U256::zero());
  }
  EXPECT_EQ(fp().neg(U256::zero()), U256::zero());
}

TEST(ModArithTest, AddWrapsModulus) {
  U256 m_minus_1;
  sub_with_borrow(fp().modulus(), U256::one(), m_minus_1);
  EXPECT_EQ(fp().add(m_minus_1, U256::one()), U256::zero());
  EXPECT_EQ(fp().add(m_minus_1, U256::from_u64(5)), U256::from_u64(4));
}

TEST(ModArithTest, InverseTimesSelfIsOne) {
  Rng rng(10);
  for (int i = 0; i < 20; ++i) {
    U256 a = random_elem(rng);
    if (a.is_zero()) a = U256::one();
    const U256 am = fp().to_mont(a);
    const U256 inv = fp().inv(am);
    EXPECT_EQ(fp().from_mont(fp().mul(am, inv)), U256::one());
  }
}

TEST(ModArithTest, InverseOfZeroThrows) {
  EXPECT_THROW(fp().inv(U256::zero()), std::domain_error);
}

TEST(ModArithTest, PowMatchesRepeatedMul) {
  const U256 base = fp().to_mont(U256::from_u64(3));
  U256 acc = fp().mont_one();
  for (int e = 0; e <= 20; ++e) {
    EXPECT_EQ(fp().pow(base, U256::from_u64(static_cast<std::uint64_t>(e))), acc);
    acc = fp().mul(acc, base);
  }
}

TEST(ModArithTest, FermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p.
  Rng rng(11);
  U256 p_minus_1;
  sub_with_borrow(fp().modulus(), U256::one(), p_minus_1);
  for (int i = 0; i < 5; ++i) {
    U256 a = random_elem(rng);
    if (a.is_zero()) a = U256::from_u64(2);
    EXPECT_EQ(fp().pow(fp().to_mont(a), p_minus_1), fp().mont_one());
  }
}

TEST(ModArithTest, ReduceHandlesAboveModulus) {
  U256 above;
  add_with_carry(fp().modulus(), U256::from_u64(42), above);
  EXPECT_EQ(fp().reduce(above), U256::from_u64(42));
  EXPECT_EQ(fp().reduce(U256::from_u64(42)), U256::from_u64(42));
}

TEST(ModArithTest, InvModMatchesFermat) {
  // inv_mod (safegcd) against a^(m-2) on both secp256k1 moduli, including
  // the extremes 1 and m-1.
  Rng rng(12);
  for (const ModArith* m : {&fp(), &secp256k1::order()}) {
    U256 m_minus_1, m_minus_2;
    sub_with_borrow(m->modulus(), U256::one(), m_minus_1);
    sub_with_borrow(m->modulus(), U256::from_u64(2), m_minus_2);
    std::vector<U256> values{U256::one(), U256::from_u64(2), m_minus_1};
    for (int i = 0; i < 200; ++i) {
      const U256 a = m->reduce(U256::from_be_bytes(rng.bytes(32)));
      if (!a.is_zero()) values.push_back(a);
    }
    for (const U256& a : values) {
      const U256 fermat = m->from_mont(m->pow(m->to_mont(a), m_minus_2));
      EXPECT_EQ(inv_mod(a, m->modulus()), fermat) << to_hex(a.to_be_bytes());
    }
  }
  EXPECT_THROW(inv_mod(U256::zero(), fp().modulus()), std::domain_error);
}

TEST(ModArithTest, ScalarFieldAlsoWorks) {
  const ModArith& fn = secp256k1::order();
  const U256 a = fn.to_mont(U256::from_u64(1234567));
  EXPECT_EQ(fn.from_mont(fn.mul(a, fn.inv(a))), U256::one());
}

}  // namespace
}  // namespace bft::crypto
