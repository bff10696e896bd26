// Modular arithmetic of the two secp256k1 moduli: the scalars mod n
// (scalar.hpp) and the base field mod p (field.hpp), both plain fully reduced
// U256 values, and inv_mod, the inversion they share.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/field.hpp"
#include "crypto/scalar.hpp"

namespace bft::crypto {
namespace {

namespace fe = secp256k1::fe;
namespace sc = secp256k1::sc;

using Wide = std::array<std::uint64_t, 8>;

/// One modulus and its arithmetic, so every algebraic case runs on both.
struct Modulus {
  const char* name;
  U256 m;
  U256 (*add)(const U256&, const U256&);
  U256 (*sub)(const U256&, const U256&);
  U256 (*neg)(const U256&);
  U256 (*mul)(const U256&, const U256&);
  /// a mod m for any a < 2^256.
  U256 (*reduce)(const U256&);
  U256 (*reduce_wide)(const Wide&);
};

const std::array<Modulus, 2>& moduli() {
  static const std::array<Modulus, 2> all{
      Modulus{"n", sc::kN, sc::add, sc::sub, sc::neg, sc::mul,
              [](const U256& a) { return sc::reduce(a); },
              [](const Wide& t) { return sc::reduce_wide(t); }},
      Modulus{"p", fe::kP, fe::add, fe::sub, fe::neg, fe::mul,
              [](const U256& a) {
                const std::uint64_t t[8] = {a.limbs[0], a.limbs[1], a.limbs[2],
                                            a.limbs[3], 0, 0, 0, 0};
                return fe::reduce_wide(t);
              },
              [](const Wide& w) {
                std::uint64_t t[8];
                std::copy(w.begin(), w.end(), t);
                return fe::reduce_wide(t);
              }}};
  return all;
}

U256 random_elem(const Modulus& m, Rng& rng) {
  return m.reduce(U256::from_be_bytes(rng.bytes(32)));
}

U256 minus(const U256& a, const U256& b) {
  U256 out;
  sub_with_borrow(a, b, out);
  return out;
}

/// a^e by square-and-multiply.
U256 pow(const Modulus& m, const U256& a, const U256& e) {
  U256 result = U256::one();
  for (int i = e.highest_bit(); i >= 0; --i) {
    result = m.mul(result, result);
    if (e.bit(static_cast<unsigned>(i))) result = m.mul(result, a);
  }
  return result;
}

/// t mod m one bit at a time, from the top: r = 2r + bit, less m when it
/// reaches m (m > 2^255, so 2r + 1 < 2m).
U256 bit_serial_reduce(const Wide& t, const U256& m) {
  U256 r;
  for (int i = 511; i >= 0; --i) {
    U256 twice;
    const std::uint64_t carry = add_with_carry(r, r, twice);
    twice.limbs[0] |= (t[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1;
    if (carry != 0 || !(twice < m)) sub_with_borrow(twice, m, twice);
    r = twice;
  }
  return r;
}

TEST(ModArithTest, MulMatchesSmallIntegers) {
  for (const Modulus& m : moduli()) {
    EXPECT_EQ(m.mul(U256::from_u64(123456789), U256::from_u64(987654321)),
              U256::from_u64(123456789ULL * 987654321ULL))
        << m.name;
  }
}

TEST(ModArithTest, MulCommutativeAssociative) {
  Rng rng(7);
  for (const Modulus& m : moduli()) {
    for (int i = 0; i < 25; ++i) {
      const U256 a = random_elem(m, rng);
      const U256 b = random_elem(m, rng);
      const U256 c = random_elem(m, rng);
      EXPECT_EQ(m.mul(a, b), m.mul(b, a)) << m.name;
      EXPECT_EQ(m.mul(m.mul(a, b), c), m.mul(a, m.mul(b, c))) << m.name;
    }
  }
}

TEST(ModArithTest, DistributiveLaw) {
  Rng rng(8);
  for (const Modulus& m : moduli()) {
    for (int i = 0; i < 25; ++i) {
      const U256 a = random_elem(m, rng);
      const U256 b = random_elem(m, rng);
      const U256 c = random_elem(m, rng);
      EXPECT_EQ(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c))) << m.name;
    }
  }
}

TEST(ModArithTest, AddSubNegIdentities) {
  Rng rng(9);
  for (const Modulus& m : moduli()) {
    for (int i = 0; i < 25; ++i) {
      const U256 a = random_elem(m, rng);
      const U256 b = random_elem(m, rng);
      EXPECT_EQ(m.sub(m.add(a, b), b), a) << m.name;
      EXPECT_EQ(m.add(a, m.neg(a)), U256::zero()) << m.name;
    }
    EXPECT_EQ(m.neg(U256::zero()), U256::zero()) << m.name;
  }
}

TEST(ModArithTest, AddWrapsModulus) {
  for (const Modulus& m : moduli()) {
    const U256 m_minus_1 = minus(m.m, U256::one());
    EXPECT_EQ(m.add(m_minus_1, U256::one()), U256::zero()) << m.name;
    EXPECT_EQ(m.add(m_minus_1, U256::from_u64(5)), U256::from_u64(4)) << m.name;
    EXPECT_EQ(m.add(m_minus_1, m_minus_1), minus(m.m, U256::from_u64(2)))
        << m.name;
    EXPECT_EQ(m.sub(U256::zero(), U256::one()), m_minus_1) << m.name;
  }
}

TEST(ModArithTest, InverseTimesSelfIsOne) {
  Rng rng(10);
  for (const Modulus& m : moduli()) {
    for (int i = 0; i < 20; ++i) {
      U256 a = random_elem(m, rng);
      if (a.is_zero()) a = U256::one();
      EXPECT_EQ(m.mul(a, inv_mod(a, m.m)), U256::one()) << m.name;
    }
  }
}

TEST(ModArithTest, InverseOfZeroThrows) {
  for (const Modulus& m : moduli()) {
    EXPECT_THROW(inv_mod(U256::zero(), m.m), std::domain_error) << m.name;
  }
  EXPECT_THROW(fe::inv(U256::zero()), std::domain_error);
}

TEST(ModArithTest, PowMatchesRepeatedMul) {
  // fe::pow, the library's one exponentiation (square roots in lift_x).
  const U256 base = U256::from_u64(3);
  U256 acc = U256::one();
  for (int e = 0; e <= 20; ++e) {
    EXPECT_EQ(fe::pow(base, U256::from_u64(static_cast<std::uint64_t>(e))), acc);
    acc = fe::mul(acc, base);
  }
}

TEST(ModArithTest, FermatLittleTheorem) {
  // a^(m-1) == 1 for prime m.
  Rng rng(11);
  for (const Modulus& m : moduli()) {
    const U256 m_minus_1 = minus(m.m, U256::one());
    for (int i = 0; i < 5; ++i) {
      U256 a = random_elem(m, rng);
      if (a.is_zero()) a = U256::from_u64(2);
      EXPECT_EQ(pow(m, a, m_minus_1), U256::one()) << m.name;
    }
  }
}

TEST(ModArithTest, ReduceHandlesAboveModulus) {
  for (const Modulus& m : moduli()) {
    U256 above;
    add_with_carry(m.m, U256::from_u64(42), above);
    EXPECT_EQ(m.reduce(above), U256::from_u64(42)) << m.name;
    EXPECT_EQ(m.reduce(U256::from_u64(42)), U256::from_u64(42)) << m.name;
    EXPECT_EQ(m.reduce(m.m), U256::zero()) << m.name;
  }
}

TEST(ModArithTest, InvModMatchesFermat) {
  // inv_mod (safegcd) against a^(m-2) on both secp256k1 moduli, including
  // the extremes 1 and m-1.
  Rng rng(12);
  for (const Modulus& m : moduli()) {
    const U256 m_minus_2 = minus(m.m, U256::from_u64(2));
    std::vector<U256> values{U256::one(), U256::from_u64(2),
                             minus(m.m, U256::one())};
    for (int i = 0; i < 200; ++i) {
      const U256 a = random_elem(m, rng);
      if (!a.is_zero()) values.push_back(a);
    }
    for (const U256& a : values) {
      EXPECT_EQ(inv_mod(a, m.m), pow(m, a, m_minus_2))
          << m.name << " " << to_hex(a.to_be_bytes());
    }
  }
}

TEST(ModArithTest, ScalarFieldAlsoWorks) {
  // The scalar constants: n + kFold == 2^256 and kHalfN == n / 2.
  U256 sum;
  EXPECT_EQ(add_with_carry(sc::kN, sc::kFold, sum), 1u);
  EXPECT_TRUE(sum.is_zero());
  EXPECT_EQ(sc::kHalfN, shr1(sc::kN));
  const U256 a = U256::from_u64(1234567);
  EXPECT_EQ(sc::mul(a, inv_mod(a, sc::kN)), U256::one());
}

TEST(ModArithTest, MulMatchesBitSerialReduction) {
  // mul against mul_wide then a bit-by-bit reduction, over 1,000 seeded
  // pairs and every pair of edge values; reduce_wide also on 512-bit values
  // whose high half is all ones (no product of two 256-bit values has one).
  const U256 lambda{{0xDF02967C1B23BD72ULL, 0x122E22EA20816678ULL,
                     0xA5261C028812645AULL, 0x5363AD4CC05C30E0ULL}};
  U256 top_bit;  // 2^255
  top_bit.limbs[3] = 1ULL << 63;
  const U256 all_ones{{~0ULL, ~0ULL, ~0ULL, ~0ULL}};
  Rng rng(13);
  for (const Modulus& m : moduli()) {
    const std::vector<U256> edges{U256::zero(),
                                  U256::one(),
                                  minus(m.m, U256::one()),
                                  minus(m.m, U256::from_u64(2)),
                                  top_bit,
                                  m.reduce(all_ones),
                                  lambda};
    std::vector<std::pair<U256, U256>> pairs;
    for (const U256& a : edges) {
      for (const U256& b : edges) pairs.emplace_back(a, b);
    }
    for (int i = 0; i < 1000; ++i) {
      const U256 a = random_elem(m, rng);
      pairs.emplace_back(a, i % 2 == 0 ? random_elem(m, rng)
                                       : edges[static_cast<std::size_t>(i) %
                                               edges.size()]);
    }
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(m.mul(a, b), bit_serial_reduce(mul_wide(a, b), m.m))
          << m.name << " " << to_hex(a.to_be_bytes()) << " "
          << to_hex(b.to_be_bytes());
    }
    for (int i = 0; i < 50; ++i) {
      Wide t{};
      const U256 lo = i == 0 ? all_ones : U256::from_be_bytes(rng.bytes(32));
      std::copy(lo.limbs.begin(), lo.limbs.end(), t.begin());
      std::fill(t.begin() + 4, t.end(), ~0ULL);
      EXPECT_EQ(m.reduce_wide(t), bit_serial_reduce(t, m.m)) << m.name;
    }
  }
}

}  // namespace
}  // namespace bft::crypto
