#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "crypto/field.hpp"
#include "crypto/scalar.hpp"

namespace bft::crypto::secp256k1 {

namespace {

constexpr U256 kGx{{0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL,
                    0x55A06295CE870B07ULL, 0x79BE667EF9DCBBACULL}};
constexpr U256 kGy{{0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL,
                    0x5DA4FBFC0E1108A8ULL, 0x483ADA7726A3C465ULL}};
constexpr U256 kLambda{{0xDF02967C1B23BD72ULL, 0x122E22EA20816678ULL,
                        0xA5261C028812645AULL, 0x5363AD4CC05C30E0ULL}};
constexpr U256 kBeta{{0xC1396C28719501EEULL, 0x9CF0497512F58995ULL,
                      0x6E64479EAC3434E9ULL, 0x7AE96A2B657C0710ULL}};
// GLV lattice: -b1, -b2, and g_i = round(2^384 * b_(3-i) / n) with the signs
// that make k*g_i / 2^384 round to the basis coefficients.
constexpr U256 kMinusB1{{0x6F547FA90ABFE4C3ULL, 0xE4437ED6010E8828ULL, 0, 0}};
constexpr U256 kMinusB2{{0xD765CDA83DB1562CULL, 0x8A280AC50774346DULL,
                         0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL}};
constexpr U256 kG1{{0xE893209A45DBB031ULL, 0x3DAA8A1471E8CA7FULL,
                    0xE86C90E49284EB15ULL, 0x3086D221A7D46BCDULL}};
constexpr U256 kG2{{0x1571B4AE8AC47F71ULL, 0x221208AC9DF506C6ULL,
                    0x6F547FA90ABFE4C4ULL, 0xE4437ED6010E8828ULL}};

// Width of the NAF digits for the generator half of double_scalar_mul.
constexpr int kGeneratorWindow = 8;

Affine neg(const Affine& p) { return Affine{p.x, fe::neg(p.y), p.infinity}; }

Affine endo(const Affine& p) {
  return Affine{fe::mul(p.x, kBeta), p.y, p.infinity};
}

/// Affine forms of finite points with one shared inversion (Montgomery's
/// trick).
std::vector<Affine> batch_to_affine(const std::vector<Jacobian>& points) {
  std::vector<U256> prefix(points.size());
  U256 acc = U256::one();
  for (std::size_t i = 0; i < points.size(); ++i) {
    prefix[i] = acc;
    acc = fe::mul(acc, points[i].z);
  }
  U256 inv = fe::inv(acc);  // 1 / (z_0 ... z_last)
  std::vector<Affine> out(points.size());
  for (std::size_t i = points.size(); i-- > 0;) {
    const U256 zinv = fe::mul(inv, prefix[i]);
    inv = fe::mul(inv, points[i].z);
    const U256 zinv2 = fe::sqr(zinv);
    out[i] = Affine{fe::mul(points[i].x, zinv2),
                    fe::mul(points[i].y, fe::mul(zinv2, zinv)), false};
  }
  return out;
}

/// P, 3P, ..., (2 * count - 1)P, affine.
std::vector<Affine> odd_multiples(const Affine& p, std::size_t count) {
  std::vector<Jacobian> jac(count);
  jac[0] = to_jacobian(p);
  const Jacobian twice = dbl(jac[0]);
  for (std::size_t i = 1; i < count; ++i) jac[i] = add(jac[i - 1], twice);
  return batch_to_affine(jac);
}

// Comb for k*G: table i holds j * 2^(kCombBits * i) * G for every nonzero
// digit j, so k*G is one mixed addition per nonzero digit of k.
constexpr unsigned kCombBits = 8;
constexpr unsigned kCombTables = 256 / kCombBits;
constexpr unsigned kCombDigits = (1u << kCombBits) - 1;

/// Entry (i, j) at i * kCombDigits + j - 1.
const std::vector<Affine>& comb() {
  static const std::vector<Affine> table = [] {
    std::vector<Jacobian> jac;
    jac.reserve(kCombTables * kCombDigits);
    Jacobian base = to_jacobian(generator());
    for (unsigned i = 0; i < kCombTables; ++i) {
      jac.push_back(base);
      for (unsigned j = 2; j <= kCombDigits; ++j) jac.push_back(add(jac.back(), base));
      base = add(jac.back(), base);
    }
    return batch_to_affine(jac);
  }();
  return table;
}

// Odd multiples of G and of lambda*G for the generator NAF digits.
const PointTable& generator_table() {
  static const PointTable table(generator(), kGeneratorWindow);
  return table;
}

/// round(k * g / 2^384).
U256 mul_shift_384(const U256& k, const U256& g) {
  const std::array<std::uint64_t, 8> t = mul_wide(k, g);
  U256 out{{t[6], t[7], 0, 0}};
  if ((t[5] >> 63) != 0 && ++out.limbs[0] == 0) ++out.limbs[1];
  return out;
}

/// `count` bits of k from bit `pos` (bits past 255 read as zero); count < 64.
unsigned bits(const U256& k, unsigned pos, unsigned count) {
  if (pos >= 256) return 0;
  const unsigned limb = pos / 64;
  const unsigned shift = pos % 64;
  std::uint64_t v = k.limbs[limb] >> shift;
  if (shift + count > 64 && limb < 3) v |= k.limbs[limb + 1] << (64 - shift);
  return static_cast<unsigned>(v & ((std::uint64_t{1} << count) - 1));
}

constexpr unsigned kMaxDigits = 257;

/// One term of an interleaved multiplication: the width-w NAF digits of a
/// scalar (negated for a negative GLV half) and the odd multiples they index.
struct NafTerm {
  std::array<int, kMaxDigits> digits;
  unsigned length = 0;  // index of the top nonzero digit + 1
  const Affine* table = nullptr;

  NafTerm(const U256& k, bool negative, int w, const Affine* odd) : table(odd) {
    digits.fill(0);
    const int sign = negative ? -1 : 1;
    unsigned carry = 0;
    unsigned bit = 0;
    while (bit < kMaxDigits) {
      if (bits(k, bit, 1) == carry) {
        ++bit;
        continue;
      }
      const unsigned now = std::min(static_cast<unsigned>(w), kMaxDigits - bit);
      int word = static_cast<int>(bits(k, bit, now) + carry);
      carry = (static_cast<unsigned>(word) >> (w - 1)) & 1;
      word -= static_cast<int>(carry << w);
      digits[bit] = sign * word;
      length = bit + 1;
      bit += now;
    }
  }

  /// acc + digit_i * P.
  Jacobian add_digit(const Jacobian& acc, unsigned i) const {
    const int d = digits[i];
    if (d > 0) return add_mixed(acc, table[(d - 1) / 2]);
    if (d < 0) return add_mixed(acc, neg(table[(-d - 1) / 2]));
    return acc;
  }
};

}  // namespace

const Affine& generator() {
  static const Affine g{kGx, kGy, false};
  return g;
}

bool Affine::operator==(const Affine& other) const {
  if (infinity || other.infinity) return infinity == other.infinity;
  return x == other.x && y == other.y;
}

Jacobian Jacobian::infinity() {
  return Jacobian{U256::one(), U256::one(), U256::zero()};
}

Jacobian to_jacobian(const Affine& p) {
  if (p.infinity) return Jacobian::infinity();
  return Jacobian{p.x, p.y, U256::one()};
}

Affine to_affine(const Jacobian& p) {
  if (p.is_infinity()) return Affine{U256::zero(), U256::zero(), true};
  const U256 zinv = fe::inv(p.z);
  const U256 zinv2 = fe::sqr(zinv);
  return Affine{fe::mul(p.x, zinv2), fe::mul(p.y, fe::mul(zinv2, zinv)), false};
}

Jacobian dbl(const Jacobian& p) {
  if (p.is_infinity() || p.y.is_zero()) return Jacobian::infinity();
  const U256 a = fe::sqr(p.x);
  const U256 b = fe::sqr(p.y);
  const U256 c = fe::sqr(b);
  U256 d = fe::sqr(fe::add(p.x, b));
  d = fe::sub(fe::sub(d, a), c);
  d = fe::add(d, d);
  const U256 e = fe::add(fe::add(a, a), a);
  const U256 f = fe::sqr(e);
  const U256 x3 = fe::sub(f, fe::add(d, d));
  U256 c8 = fe::add(c, c);
  c8 = fe::add(c8, c8);
  c8 = fe::add(c8, c8);
  const U256 y3 = fe::sub(fe::mul(e, fe::sub(d, x3)), c8);
  const U256 yz = fe::mul(p.y, p.z);
  const U256 z3 = fe::add(yz, yz);
  return Jacobian{x3, y3, z3};
}

Jacobian add(const Jacobian& p, const Jacobian& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  const U256 z1z1 = fe::sqr(p.z);
  const U256 z2z2 = fe::sqr(q.z);
  const U256 u1 = fe::mul(p.x, z2z2);
  const U256 u2 = fe::mul(q.x, z1z1);
  const U256 s1 = fe::mul(fe::mul(p.y, q.z), z2z2);
  const U256 s2 = fe::mul(fe::mul(q.y, p.z), z1z1);
  if (u1 == u2) {
    if (!(s1 == s2)) return Jacobian::infinity();
    return dbl(p);
  }
  const U256 h = fe::sub(u2, u1);
  const U256 h2 = fe::add(h, h);
  const U256 i = fe::sqr(h2);
  const U256 j = fe::mul(h, i);
  U256 r = fe::sub(s2, s1);
  r = fe::add(r, r);
  const U256 v = fe::mul(u1, i);
  const U256 x3 = fe::sub(fe::sub(fe::sqr(r), j), fe::add(v, v));
  const U256 s1j = fe::mul(s1, j);
  const U256 y3 = fe::sub(fe::mul(r, fe::sub(v, x3)), fe::add(s1j, s1j));
  U256 z3 = fe::sqr(fe::add(p.z, q.z));
  z3 = fe::sub(fe::sub(z3, z1z1), z2z2);
  z3 = fe::mul(z3, h);
  return Jacobian{x3, y3, z3};
}

Jacobian add_mixed(const Jacobian& p, const Affine& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return to_jacobian(q);
  const U256 z1z1 = fe::sqr(p.z);
  const U256 u2 = fe::mul(q.x, z1z1);
  const U256 s2 = fe::mul(fe::mul(q.y, p.z), z1z1);
  if (p.x == u2) {
    if (!(p.y == s2)) return Jacobian::infinity();
    return dbl(p);
  }
  const U256 h = fe::sub(u2, p.x);
  const U256 hh = fe::sqr(h);
  U256 i = fe::add(hh, hh);
  i = fe::add(i, i);
  const U256 j = fe::mul(h, i);
  U256 r = fe::sub(s2, p.y);
  r = fe::add(r, r);
  const U256 v = fe::mul(p.x, i);
  const U256 x3 = fe::sub(fe::sub(fe::sqr(r), j), fe::add(v, v));
  const U256 yj = fe::mul(p.y, j);
  const U256 y3 = fe::sub(fe::mul(r, fe::sub(v, x3)), fe::add(yj, yj));
  U256 z3 = fe::sqr(fe::add(p.z, h));
  z3 = fe::sub(fe::sub(z3, z1z1), hh);
  return Jacobian{x3, y3, z3};
}

GlvSplit split_lambda(const U256& k) {
  const U256 kr = sc::reduce(k);
  // k2 = c1*(-b1) + c2*(-b2) and k1 = k - k2*lambda, both mod n.
  const U256 c1 = mul_shift_384(kr, kG1);
  const U256 c2 = mul_shift_384(kr, kG2);
  const U256 k2 = sc::add(sc::mul(c1, kMinusB1), sc::mul(c2, kMinusB2));
  const U256 k1 = sc::sub(kr, sc::mul(k2, kLambda));
  GlvSplit out{k1, k2};
  // A half above n/2 stands for a negative one.
  if (sc::kHalfN < out.k1) {
    out.k1 = sc::neg(out.k1);
    out.k1_negative = true;
  }
  if (sc::kHalfN < out.k2) {
    out.k2 = sc::neg(out.k2);
    out.k2_negative = true;
  }
  return out;
}

PointTable::PointTable(const Affine& p, int w)
    : window(w), odd(odd_multiples(p, std::size_t{1} << (w - 2))) {
  for (const Affine& q : odd) odd_lambda.push_back(endo(q));
}

Jacobian generator_mul(const U256& k) {
  const std::vector<Affine>& table = comb();
  Jacobian acc = Jacobian::infinity();
  for (unsigned i = 0; i < kCombTables; ++i) {
    const unsigned digit = bits(k, kCombBits * i, kCombBits);
    if (digit != 0) acc = add_mixed(acc, table[i * kCombDigits + digit - 1]);
  }
  return acc;
}

Jacobian double_scalar_mul(const U256& u1, const U256& u2, const PointTable& q) {
  const PointTable& g = generator_table();
  const GlvSplit a = split_lambda(u1);
  const GlvSplit b = split_lambda(u2);
  const std::array<NafTerm, 4> terms{
      NafTerm(a.k1, a.k1_negative, g.window, g.odd.data()),
      NafTerm(a.k2, a.k2_negative, g.window, g.odd_lambda.data()),
      NafTerm(b.k1, b.k1_negative, q.window, q.odd.data()),
      NafTerm(b.k2, b.k2_negative, q.window, q.odd_lambda.data())};
  unsigned length = 0;
  for (const NafTerm& t : terms) length = std::max(length, t.length);
  Jacobian acc = Jacobian::infinity();
  for (unsigned i = length; i-- > 0;) {
    acc = dbl(acc);
    for (const NafTerm& t : terms) acc = t.add_digit(acc, i);
  }
  return acc;
}

bool x_mod_n_equals(const Jacobian& p, const U256& r) {
  if (p.is_infinity()) return false;
  // x = X / Z^2, so x == r  <=>  X == r * Z^2. Since n < p < 2n, x mod n == r
  // also holds for x == r + n when that is still below p.
  const U256 zz = fe::sqr(p.z);
  if (fe::mul(r, zz) == p.x) return true;
  U256 r_plus_n;
  if (add_with_carry(r, sc::kN, r_plus_n) != 0 || !(r_plus_n < fe::kP)) {
    return false;
  }
  return fe::mul(r_plus_n, zz) == p.x;
}

bool on_curve(const Affine& p) {
  if (p.infinity) return false;
  if (fe::geq_p(p.x) || fe::geq_p(p.y)) return false;
  const U256 rhs = fe::add(fe::mul(fe::sqr(p.x), p.x), U256::from_u64(7));
  return fe::sqr(p.y) == rhs;
}

std::optional<Affine> lift_x(const U256& x, bool y_odd) {
  if (fe::geq_p(x)) return std::nullopt;
  const U256 rhs = fe::add(fe::mul(fe::sqr(x), x), U256::from_u64(7));
  // p == 3 (mod 4), so sqrt(a) = a^((p+1)/4) when a is a QR.
  static const U256 exp = shr1(shr1(fe::add_word(fe::kP, 1)));
  U256 y = fe::pow(rhs, exp);
  if (!(fe::sqr(y) == rhs)) return std::nullopt;
  if (y.is_odd() != y_odd) y = fe::neg(y);
  return Affine{x, y, false};
}

namespace fe {

U256 inv(const U256& a) { return inv_mod(a, kP); }

U256 pow(const U256& a, const U256& e) {
  U256 result = U256::one();
  for (int i = e.highest_bit(); i >= 0; --i) {
    result = sqr(result);
    if (e.bit(static_cast<unsigned>(i))) result = mul(result, a);
  }
  return result;
}

}  // namespace fe

}  // namespace bft::crypto::secp256k1
