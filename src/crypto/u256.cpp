#include "crypto/u256.hpp"

#include <algorithm>
#include <stdexcept>

namespace bft::crypto {

using u128 = unsigned __int128;

U256 U256::from_hex(std::string_view hex) {
  if (hex.empty() || hex.size() > 64) {
    throw std::invalid_argument("U256::from_hex: need 1..64 hex digits");
  }
  std::string padded(64 - hex.size(), '0');
  padded.append(hex);
  return from_be_bytes(bft::from_hex(padded));
}

U256 U256::from_be_bytes(ByteView data) {
  if (data.size() != 32) {
    throw std::invalid_argument("U256::from_be_bytes: expected 32 bytes");
  }
  U256 out;
  for (int limb = 0; limb < 4; ++limb) {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v = (v << 8) | data[static_cast<std::size_t>((3 - limb) * 8 + b)];
    }
    out.limbs[static_cast<std::size_t>(limb)] = v;
  }
  return out;
}

Bytes U256::to_be_bytes() const {
  const auto arr = to_be_array();
  return Bytes(arr.begin(), arr.end());
}

std::array<std::uint8_t, 32> U256::to_be_array() const {
  std::array<std::uint8_t, 32> out;
  for (int limb = 0; limb < 4; ++limb) {
    const std::uint64_t v = limbs[static_cast<std::size_t>(limb)];
    for (int b = 0; b < 8; ++b) {
      out[static_cast<std::size_t>((3 - limb) * 8 + b)] =
          static_cast<std::uint8_t>(v >> (56 - 8 * b));
    }
  }
  return out;
}

bool U256::is_zero() const {
  return (limbs[0] | limbs[1] | limbs[2] | limbs[3]) == 0;
}

bool U256::bit(unsigned i) const {
  return ((limbs[i / 64] >> (i % 64)) & 1) != 0;
}

int U256::highest_bit() const {
  for (int limb = 3; limb >= 0; --limb) {
    const std::uint64_t v = limbs[static_cast<std::size_t>(limb)];
    if (v != 0) return limb * 64 + (63 - __builtin_clzll(v));
  }
  return -1;
}

int cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    const auto idx = static_cast<std::size_t>(i);
    if (a.limbs[idx] < b.limbs[idx]) return -1;
    if (a.limbs[idx] > b.limbs[idx]) return 1;
  }
  return 0;
}

bool operator<(const U256& a, const U256& b) { return cmp(a, b) < 0; }

std::uint64_t add_with_carry(const U256& a, const U256& b, U256& out) {
  u128 carry = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 sum = static_cast<u128>(a.limbs[i]) + b.limbs[i] + carry;
    out.limbs[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  return static_cast<std::uint64_t>(carry);
}

std::uint64_t sub_with_borrow(const U256& a, const U256& b, U256& out) {
  u128 borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 diff = static_cast<u128>(a.limbs[i]) - b.limbs[i] - borrow;
    out.limbs[i] = static_cast<std::uint64_t>(diff);
    borrow = (diff >> 64) & 1;
  }
  return static_cast<std::uint64_t>(borrow);
}

std::array<std::uint64_t, 8> mul_wide(const U256& a, const U256& b) {
  std::array<std::uint64_t, 8> out{};
  for (std::size_t i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.limbs[i]) * b.limbs[j] +
                       out[i + j] + carry;
      out[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out[i + 4] = carry;
  }
  return out;
}

U256 shr1(const U256& a) {
  U256 out;
  for (std::size_t i = 0; i < 4; ++i) {
    out.limbs[i] = a.limbs[i] >> 1;
    if (i < 3) out.limbs[i] |= a.limbs[i + 1] << 63;
  }
  return out;
}

namespace {

// inv_mod is the variable-time safegcd of Bernstein and Yang ("Fast
// constant-time gcd computation and modular inversion", 2019) in the form
// libsecp256k1 uses: batches of 62 divsteps on the low words of f and g,
// each batch applied to the full-width values as a 2x2 matrix. A bit-by-bit
// binary extended GCD is about 8x slower (~17 us against ~2 us on a 4-vCPU
// x86-64 VM), and a signature pays for two inversions.

using i128 = __int128;
constexpr std::uint64_t kLow62 = ~std::uint64_t{0} >> 2;

// Sum of v[i] * 2^(62 i); limbs 0..3 in [0, 2^62) between steps, the top
// one carries the sign.
using Signed62 = std::array<std::int64_t, 5>;

Signed62 to_signed62(const U256& a) {
  const auto& l = a.limbs;
  return {static_cast<std::int64_t>(l[0] & kLow62),
          static_cast<std::int64_t>((l[0] >> 62 | l[1] << 2) & kLow62),
          static_cast<std::int64_t>((l[1] >> 60 | l[2] << 4) & kLow62),
          static_cast<std::int64_t>((l[2] >> 58 | l[3] << 6) & kLow62),
          static_cast<std::int64_t>(l[3] >> 56)};
}

// The matrix of one batch: 2^62 * [f', g'] = [[u, v], [q, r]] * [f, g].
struct Transition {
  std::int64_t u, v, q, r;
};

/// 62 divsteps on the low words of f (odd) and g; returns the new eta.
std::int64_t divsteps_62(std::int64_t eta, std::uint64_t f, std::uint64_t g,
                         Transition& t) {
  std::uint64_t u = 1, v = 0, q = 0, r = 1;
  int left = 62;
  for (;;) {
    // Every zero bit of g is a divstep that only halves g; a sentinel bit
    // stops the count at the steps left.
    const int zeros = __builtin_ctzll(g | (~std::uint64_t{0} << left));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    left -= zeros;
    if (left == 0) break;
    // f and g are odd: add the multiple w of f to g that clears as many low
    // bits of g as the steps before eta changes sign allow.
    std::uint64_t w;
    std::uint64_t mask;
    if (eta < 0) {
      eta = -eta;
      const std::uint64_t f0 = f, u0 = u, v0 = v;
      f = g;
      g = 0 - f0;
      u = q;
      q = 0 - u0;
      v = r;
      r = 0 - v0;
      const int limit = static_cast<int>(std::min<std::int64_t>(eta + 1, left));
      mask = (~std::uint64_t{0} >> (64 - limit)) & 63;
      w = (f * g * (f * f - 2)) & mask;  // -g / f mod 2^6
    } else {
      const int limit = static_cast<int>(std::min<std::int64_t>(eta + 1, left));
      mask = (~std::uint64_t{0} >> (64 - limit)) & 15;
      w = f + (((f + 1) & 4) << 1);  // 1 / f mod 2^4
      w = (0 - w * g) & mask;
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t = Transition{static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
                 static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
  return eta;
}

/// [d, e] = t * [d, e] / 2^62 mod m, keeping both in (-2m, m); m_inv62 is
/// m^-1 mod 2^62.
void update_de(Signed62& d, Signed62& e, const Transition& t,
               const Signed62& m, std::uint64_t m_inv62) {
  // Add the multiples md, me of m that clear the low 62 bits, plus [u, q] if
  // d is negative and [v, r] if e is, which keeps the results in range.
  const std::int64_t sd = d[4] >> 63;
  const std::int64_t se = e[4] >> 63;
  std::int64_t md = (t.u & sd) + (t.v & se);
  std::int64_t me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d[0] + static_cast<i128>(t.v) * e[0];
  i128 ce = static_cast<i128>(t.q) * d[0] + static_cast<i128>(t.r) * e[0];
  md -= static_cast<std::int64_t>(
      (m_inv62 * static_cast<std::uint64_t>(cd) + static_cast<std::uint64_t>(md)) &
      kLow62);
  me -= static_cast<std::int64_t>(
      (m_inv62 * static_cast<std::uint64_t>(ce) + static_cast<std::uint64_t>(me)) &
      kLow62);
  cd += static_cast<i128>(m[0]) * md;
  ce += static_cast<i128>(m[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (std::size_t i = 1; i < 5; ++i) {
    cd += static_cast<i128>(t.u) * d[i] + static_cast<i128>(t.v) * e[i] +
          static_cast<i128>(m[i]) * md;
    ce += static_cast<i128>(t.q) * d[i] + static_cast<i128>(t.r) * e[i] +
          static_cast<i128>(m[i]) * me;
    d[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kLow62);
    e[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kLow62);
    cd >>= 62;
    ce >>= 62;
  }
  d[4] = static_cast<std::int64_t>(cd);
  e[4] = static_cast<std::int64_t>(ce);
}

/// [f, g] = t * [f, g] / 2^62 over their low `len` limbs (exact).
void update_fg(std::size_t len, Signed62& f, Signed62& g, const Transition& t) {
  i128 cf = static_cast<i128>(t.u) * f[0] + static_cast<i128>(t.v) * g[0];
  i128 cg = static_cast<i128>(t.q) * f[0] + static_cast<i128>(t.r) * g[0];
  cf >>= 62;
  cg >>= 62;
  for (std::size_t i = 1; i < len; ++i) {
    cf += static_cast<i128>(t.u) * f[i] + static_cast<i128>(t.v) * g[i];
    cg += static_cast<i128>(t.q) * f[i] + static_cast<i128>(t.r) * g[i];
    f[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cf) & kLow62);
    g[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cg) & kLow62);
    cf >>= 62;
    cg >>= 62;
  }
  f[len - 1] = static_cast<std::int64_t>(cf);
  g[len - 1] = static_cast<std::int64_t>(cg);
}

/// Moves the carries of limbs 0..3 up, leaving them in [0, 2^62).
void propagate(Signed62& d) {
  for (std::size_t i = 0; i < 4; ++i) {
    d[i + 1] += d[i] >> 62;
    d[i] &= static_cast<std::int64_t>(kLow62);
  }
}

/// sign(f) * d, for d in (-2m, m), as an integer in [0, m).
U256 normalize(Signed62 d, std::int64_t f_sign, const Signed62& m) {
  if (f_sign < 0) {
    for (std::int64_t& limb : d) limb = -limb;
  }
  propagate(d);
  while (d[4] < 0) {
    for (std::size_t i = 0; i < 5; ++i) d[i] += m[i];
    propagate(d);
  }
  for (;;) {
    Signed62 less_m = d;
    for (std::size_t i = 0; i < 5; ++i) less_m[i] -= m[i];
    propagate(less_m);
    if (less_m[4] < 0) break;
    d = less_m;
  }
  const auto limb = [&d](std::size_t i) { return static_cast<std::uint64_t>(d[i]); };
  return U256{{limb(0) | limb(1) << 62, limb(1) >> 2 | limb(2) << 60,
               limb(2) >> 4 | limb(3) << 58, limb(3) >> 6 | limb(4) << 56}};
}

}  // namespace

U256 inv_mod(const U256& a, const U256& m) {
  if (a.is_zero()) throw std::domain_error("inv_mod: zero has no inverse");
  const Signed62 modulus = to_signed62(m);
  std::uint64_t m_inv = m.limbs[0];  // Newton: doubles the correct low bits
  for (int i = 0; i < 5; ++i) m_inv *= 2 - m.limbs[0] * m_inv;
  const std::uint64_t m_inv62 = m_inv & kLow62;

  // Invariants: d * a == f and e * a == g (mod m); g reaches 0 with
  // f == +-gcd(a, m) == +-1.
  Signed62 d{0, 0, 0, 0, 0};
  Signed62 e{1, 0, 0, 0, 0};
  Signed62 f = modulus;
  Signed62 g = to_signed62(a);
  std::size_t len = 5;
  std::int64_t eta = -1;
  for (;;) {
    Transition t;
    eta = divsteps_62(eta, static_cast<std::uint64_t>(f[0]),
                      static_cast<std::uint64_t>(g[0]), t);
    update_de(d, e, t, modulus, m_inv62);
    update_fg(len, f, g, t);
    if (g[0] == 0) {
      std::int64_t rest = 0;
      for (std::size_t j = 1; j < len; ++j) rest |= g[j];
      if (rest == 0) break;
    }
    // Drop the top limb once it is only sign in both f and g.
    const std::int64_t fn = f[len - 1];
    const std::int64_t gn = g[len - 1];
    if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      f[len - 2] |= static_cast<std::int64_t>(static_cast<std::uint64_t>(fn) << 62);
      g[len - 2] |= static_cast<std::int64_t>(static_cast<std::uint64_t>(gn) << 62);
      --len;
    }
  }
  return normalize(d, f[len - 1], modulus);
}

}  // namespace bft::crypto
