// secp256k1 elliptic-curve group operations (y^2 = x^3 + 7 over F_p).
//
// Points are kept in Jacobian coordinates over the dedicated field of
// field.hpp; `Affine` is the external representation, and since field
// elements are plain integers the two share coordinates. Two scalar
// multiplications serve ECDSA:
//   - k*G (signing, key derivation) sums one entry per 8-bit digit of k from
//     a fixed-base comb: 32 affine tables j*256^i*G (0.6 MB, built once with
//     one batched inversion), no doublings.
//   - u1*G + u2*Q (verification) splits both scalars with the GLV
//     endomorphism lambda*(x, y) = (beta*x, y) into ~128-bit halves and
//     interleaves the width-w NAFs of all four over affine odd-multiple
//     tables of G, lambda*G (static) and of Q, lambda*Q (PointTable).
// Scalars mod n are plain integers too (scalar.hpp). Variable time — see the
// side-channel note in u256.hpp.
#pragma once

#include <optional>
#include <vector>

#include "crypto/u256.hpp"

namespace bft::crypto::secp256k1 {

/// Affine point.
struct Affine {
  U256 x;
  U256 y;
  bool infinity = false;

  bool operator==(const Affine& other) const;
};

/// Jacobian point (X/Z^2, Y/Z^3) over the field of field.hpp.
struct Jacobian {
  U256 x;
  U256 y;
  U256 z;  // zero <=> point at infinity

  static Jacobian infinity();
  bool is_infinity() const { return z.is_zero(); }
};

/// The group generator G.
const Affine& generator();

Jacobian to_jacobian(const Affine& p);
Affine to_affine(const Jacobian& p);

Jacobian dbl(const Jacobian& p);
Jacobian add(const Jacobian& p, const Jacobian& q);
/// p + q with q affine (faster mixed addition).
Jacobian add_mixed(const Jacobian& p, const Affine& q);

/// k = k1 + k2*lambda (mod n) with |k1|, |k2| < 2^128: each half is held as
/// its magnitude and a sign.
struct GlvSplit {
  U256 k1;
  U256 k2;
  bool k1_negative = false;
  bool k2_negative = false;
};
GlvSplit split_lambda(const U256& k);

/// Odd multiples P, 3P, ..., (2^(w-1) - 1)P of a finite point P and the same
/// of lambda*P, affine: what the width-w NAF digits of double_scalar_mul
/// index. Building one costs a field inversion, so whoever verifies against
/// one key keeps it (PublicKey does).
struct PointTable {
  /// Width 5 (8 multiples each) suits a per-key table.
  explicit PointTable(const Affine& p, int w = 5);

  int window;
  std::vector<Affine> odd;
  std::vector<Affine> odd_lambda;
};

/// k * G from the fixed-base comb.
Jacobian generator_mul(const U256& k);

/// u1*G + u2*Q, the ECDSA verification workhorse; u1 and u2 are taken mod n.
Jacobian double_scalar_mul(const U256& u1, const U256& u2, const PointTable& q);

/// True iff p is finite and its affine x, reduced mod n, equals r (r < n),
/// decided in Jacobian coordinates without an inversion.
bool x_mod_n_equals(const Jacobian& p, const U256& r);

/// Checks the affine point satisfies the curve equation (and is not infinity).
bool on_curve(const Affine& p);

/// Lifts an x coordinate to a curve point with the given y parity; nullopt if
/// x^3 + 7 is not a quadratic residue.
std::optional<Affine> lift_x(const U256& x, bool y_odd);

}  // namespace bft::crypto::secp256k1
