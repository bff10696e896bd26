#include "crypto/secp256k1.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "crypto/field.hpp"
#include "crypto/scalar.hpp"

namespace bft::crypto::secp256k1 {
namespace {

U256 neg_field(const U256& y) {
  U256 out;
  sub_with_borrow(fe::kP, y, out);
  return out;
}

/// The endomorphism's scalar: lambda*(x, y) = (beta*x, y).
const U256& lambda() {
  static const U256 l = U256::from_hex(
      "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
  return l;
}

/// k * P through the verification path, with u1 = 0.
Jacobian point_mul(const Affine& p, const U256& k) {
  return double_scalar_mul(U256::zero(), k, PointTable(p));
}

Affine mul_affine(const Affine& p, const U256& k) {
  return to_affine(point_mul(p, k));
}

TEST(Secp256k1Test, GeneratorOnCurve) {
  EXPECT_TRUE(on_curve(generator()));
}

TEST(Secp256k1Test, KnownMultiplesOfG) {
  // 2G and 3G from the standard secp256k1 reference tables.
  const Affine g2 = mul_affine(generator(), U256::from_u64(2));
  EXPECT_EQ(to_hex(g2.x.to_be_bytes()),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(to_hex(g2.y.to_be_bytes()),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");

  const Affine g3 = mul_affine(generator(), U256::from_u64(3));
  EXPECT_EQ(to_hex(g3.x.to_be_bytes()),
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9");
  EXPECT_EQ(to_hex(g3.y.to_be_bytes()),
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672");
}

TEST(Secp256k1Test, DoubleMatchesAdd) {
  const Jacobian g = to_jacobian(generator());
  const Affine via_dbl = to_affine(dbl(g));
  const Affine via_add = to_affine(add(g, g));
  EXPECT_EQ(via_dbl, via_add);
}

TEST(Secp256k1Test, MixedAddMatchesGeneralAdd) {
  const Jacobian g2 = dbl(to_jacobian(generator()));
  const Affine sum_mixed = to_affine(add_mixed(g2, generator()));
  const Affine sum_general = to_affine(add(g2, to_jacobian(generator())));
  EXPECT_EQ(sum_mixed, sum_general);
}

TEST(Secp256k1Test, AdditionCommutes) {
  const Jacobian g = to_jacobian(generator());
  const Jacobian g2 = dbl(g);
  EXPECT_EQ(to_affine(add(g, g2)), to_affine(add(g2, g)));
}

TEST(Secp256k1Test, InfinityIsIdentity) {
  const Jacobian g = to_jacobian(generator());
  const Jacobian inf = Jacobian::infinity();
  EXPECT_EQ(to_affine(add(g, inf)), generator());
  EXPECT_EQ(to_affine(add(inf, g)), generator());
  EXPECT_TRUE(dbl(inf).is_infinity());
  EXPECT_TRUE(add(inf, inf).is_infinity());
}

TEST(Secp256k1Test, InverseSumsToInfinity) {
  // G + (-G) = O, with -G = (x, p - y).
  const Affine& g = generator();
  const Affine neg_g{g.x, neg_field(g.y), false};
  EXPECT_TRUE(on_curve(neg_g));
  EXPECT_TRUE(add(to_jacobian(g), to_jacobian(neg_g)).is_infinity());
}

TEST(Secp256k1Test, OrderTimesGeneratorIsInfinity) {
  EXPECT_TRUE(point_mul(generator(), sc::kN).is_infinity());
  EXPECT_TRUE(generator_mul(sc::kN).is_infinity());
}

TEST(Secp256k1Test, NMinusOneGeneratorIsNegG) {
  U256 n_minus_1;
  sub_with_borrow(sc::kN, U256::one(), n_minus_1);
  const Affine p = to_affine(generator_mul(n_minus_1));
  EXPECT_EQ(p.x, generator().x);
  EXPECT_EQ(p.y, neg_field(generator().y));
}

TEST(Secp256k1Test, GeneratorMulMatchesScalarMul) {
  Rng rng(55);
  for (int i = 0; i < 10; ++i) {
    const U256 k = sc::reduce(U256::from_be_bytes(rng.bytes(32)));
    EXPECT_EQ(to_affine(generator_mul(k)), mul_affine(generator(), k));
  }
}

TEST(Secp256k1Test, ScalarMulDistributesOverAddition) {
  // (a+b)G == aG + bG for random scalars.
  Rng rng(66);
  for (int i = 0; i < 8; ++i) {
    const U256 a = sc::reduce(U256::from_be_bytes(rng.bytes(32)));
    const U256 b = sc::reduce(U256::from_be_bytes(rng.bytes(32)));
    const U256 ab = sc::add(a, b);
    const Affine lhs = to_affine(generator_mul(ab));
    const Affine rhs = to_affine(add(generator_mul(a), generator_mul(b)));
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Secp256k1Test, DoubleScalarMulMatchesSeparate) {
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    const U256 u1 = sc::reduce(U256::from_be_bytes(rng.bytes(32)));
    const U256 u2 = sc::reduce(U256::from_be_bytes(rng.bytes(32)));
    const Affine q = to_affine(generator_mul(
        sc::reduce(U256::from_be_bytes(rng.bytes(32)))));
    const Affine combined = to_affine(double_scalar_mul(u1, u2, PointTable(q)));
    const Affine separate =
        to_affine(add(generator_mul(u1), point_mul(q, u2)));
    EXPECT_EQ(combined, separate);
  }
}

TEST(Secp256k1Test, ResultsStayOnCurve) {
  Rng rng(88);
  for (int i = 0; i < 10; ++i) {
    const U256 k = sc::reduce(U256::from_be_bytes(rng.bytes(32)));
    if (k.is_zero()) continue;
    EXPECT_TRUE(on_curve(to_affine(generator_mul(k))));
  }
}

TEST(Secp256k1Test, LiftXRecoversPoints) {
  Rng rng(99);
  for (int i = 0; i < 10; ++i) {
    const U256 k = sc::reduce(U256::from_be_bytes(rng.bytes(32)));
    if (k.is_zero()) continue;
    const Affine p = to_affine(generator_mul(k));
    const auto lifted = lift_x(p.x, p.y.is_odd());
    ASSERT_TRUE(lifted.has_value());
    EXPECT_EQ(*lifted, p);
    const auto flipped = lift_x(p.x, !p.y.is_odd());
    ASSERT_TRUE(flipped.has_value());
    EXPECT_EQ(flipped->y, neg_field(p.y));
  }
}

TEST(Secp256k1Test, LiftXRejectsNonResidue) {
  // Scan a few x values; roughly half are non-residues.
  int rejected = 0;
  for (std::uint64_t x = 2; x < 30; ++x) {
    if (!lift_x(U256::from_u64(x), false).has_value()) ++rejected;
  }
  EXPECT_GT(rejected, 0);
}

TEST(Secp256k1Test, OnCurveRejectsOffCurvePoints) {
  Affine bogus{U256::from_u64(1), U256::from_u64(1), false};
  EXPECT_FALSE(on_curve(bogus));
  EXPECT_FALSE(on_curve(Affine{U256::zero(), U256::zero(), true}));
}

// --- Differential checks of the comb and the GLV/wNAF path ---------------

/// k * P by plain double-and-add over all 256 bits of k: the reference the
/// fast paths are checked against.
Jacobian reference_mul(const Affine& p, const U256& k) {
  Jacobian acc = Jacobian::infinity();
  for (int i = 255; i >= 0; --i) {
    acc = dbl(acc);
    if (k.bit(static_cast<unsigned>(i))) acc = add_mixed(acc, p);
  }
  return acc;
}

U256 random_scalar(Rng& rng) {
  return sc::reduce(U256::from_be_bytes(rng.bytes(32)));
}

U256 minus(const U256& a, const U256& b) {
  U256 out;
  sub_with_borrow(a, b, out);
  return out;
}

/// A scalar whose GLV halves have the given signs, from a seeded scan.
U256 scalar_with_signs(bool k1_negative, bool k2_negative) {
  Rng rng(4242);
  for (;;) {
    const U256 k = random_scalar(rng);
    const GlvSplit split = split_lambda(k);
    if (split.k1_negative == k1_negative && split.k2_negative == k2_negative) {
      return k;
    }
  }
}

/// 0, 1, 2, n-1, n-2, 2^255, all-15 nibbles (over 256, 252 and 128 bits),
/// lambda, n-lambda, and scalars for each pair of GLV half signs.
std::vector<U256> edge_scalars() {
  const U256& n = sc::kN;
  U256 top_bit;
  top_bit.limbs[3] = std::uint64_t{1} << 63;
  const U256 all_ones{{~0ULL, ~0ULL, ~0ULL, ~0ULL}};
  return {U256::zero(),
          U256::one(),
          U256::from_u64(2),
          minus(n, U256::one()),
          minus(n, U256::from_u64(2)),
          top_bit,
          all_ones,
          U256{{~0ULL, ~0ULL, ~0ULL, ~0ULL >> 4}},
          U256{{~0ULL, ~0ULL, 0, 0}},
          lambda(),
          minus(n, lambda()),
          scalar_with_signs(false, false),
          scalar_with_signs(true, false),
          scalar_with_signs(false, true),
          scalar_with_signs(true, true)};
}

std::vector<U256> differential_scalars() {
  std::vector<U256> scalars = edge_scalars();
  Rng rng(2024);
  for (int i = 0; i < 1000; ++i) scalars.push_back(random_scalar(rng));
  return scalars;
}

TEST(Secp256k1Test, GeneratorMulMatchesDoubleAndAdd) {
  for (const U256& k : differential_scalars()) {
    EXPECT_EQ(to_affine(generator_mul(k)), to_affine(reference_mul(generator(), k)))
        << to_hex(k.to_be_bytes());
  }
}

TEST(Secp256k1Test, DoubleScalarMulMatchesDoubleAndAdd) {
  const std::vector<U256> scalars = differential_scalars();
  const std::vector<U256> edges = edge_scalars();
  Rng rng(2025);
  Affine q = generator();
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    if (i % 10 == 0) q = to_affine(generator_mul(random_scalar(rng)));
    // Pair every scalar with each edge scalar in turn, on both sides.
    const U256& u1 = (i % 2 == 0) ? scalars[i] : edges[i % edges.size()];
    const U256& u2 = (i % 2 == 0) ? edges[i % edges.size()] : scalars[i];
    const Affine expected =
        to_affine(add(reference_mul(generator(), u1), reference_mul(q, u2)));
    EXPECT_EQ(to_affine(double_scalar_mul(u1, u2, PointTable(q))), expected)
        << to_hex(u1.to_be_bytes()) << " " << to_hex(u2.to_be_bytes());
    EXPECT_EQ(to_affine(point_mul(q, u2)), to_affine(reference_mul(q, u2)));
  }
}

TEST(Secp256k1Test, SplitLambdaRecombinesWithShortHalves) {
  U256 bound;  // 2^128
  bound.limbs[2] = 1;
  for (const U256& k : differential_scalars()) {
    const GlvSplit s = split_lambda(k);
    EXPECT_TRUE(s.k1 < bound);
    EXPECT_TRUE(s.k2 < bound);
    const U256 k1 = s.k1_negative ? sc::neg(s.k1) : s.k1;
    const U256 k2 = s.k2_negative ? sc::neg(s.k2) : s.k2;
    EXPECT_EQ(sc::add(k1, sc::mul(k2, lambda())), sc::reduce(k));
  }
}

TEST(Secp256k1Test, LambdaActsAsBetaOnX) {
  const Affine lg = to_affine(reference_mul(generator(), lambda()));
  EXPECT_EQ(lg.y, generator().y);
  EXPECT_NE(lg.x, generator().x);
  EXPECT_TRUE(on_curve(lg));
}

TEST(Secp256k1Test, ZeroScalarGivesInfinity) {
  EXPECT_TRUE(point_mul(generator(), U256::zero()).is_infinity());
  EXPECT_TRUE(generator_mul(U256::zero()).is_infinity());
}

}  // namespace
}  // namespace bft::crypto::secp256k1
