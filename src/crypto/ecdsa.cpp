#include "crypto/ecdsa.hpp"

#include <cstring>

#include "crypto/hmac.hpp"
#include "crypto/scalar.hpp"

namespace bft::crypto {

namespace {

namespace ec = secp256k1;
namespace sc = secp256k1::sc;

/// bits2int for a 256-bit curve with a 256-bit hash: interpret big-endian,
/// then reduce mod n (one conditional subtraction suffices).
U256 digest_to_scalar(const Hash256& digest) {
  const U256 e = U256::from_be_bytes(ByteView(digest.data(), digest.size()));
  return sc::reduce(e);
}

}  // namespace

Bytes Signature::to_bytes() const {
  Bytes out = r.to_be_bytes();
  append(out, s.to_be_bytes());
  return out;
}

Result<Signature> Signature::from_bytes(ByteView data) {
  if (data.size() != 64) {
    return Result<Signature>::failure("signature must be 64 bytes");
  }
  Signature sig{U256::from_be_bytes(data.subspan(0, 32)),
                U256::from_be_bytes(data.subspan(32, 32))};
  const U256& n = sc::kN;
  if (sig.r.is_zero() || sig.s.is_zero() || !(sig.r < n) || !(sig.s < n)) {
    return Result<Signature>::failure("signature scalar out of range");
  }
  return sig;
}

Bytes PublicKey::to_bytes() const {
  Bytes out;
  out.reserve(33);
  out.push_back(point_.y.is_odd() ? 0x03 : 0x02);
  append(out, point_.x.to_be_bytes());
  return out;
}

Result<PublicKey> PublicKey::from_bytes(ByteView data) {
  if (data.size() != 33 || (data[0] != 0x02 && data[0] != 0x03)) {
    return Result<PublicKey>::failure("invalid compressed point encoding");
  }
  const U256 x = U256::from_be_bytes(data.subspan(1, 32));
  const auto point = ec::lift_x(x, data[0] == 0x03);
  if (!point) {
    return Result<PublicKey>::failure("x coordinate not on curve");
  }
  return PublicKey(*point);
}

bool PublicKey::verify(const Hash256& digest, const Signature& sig) const {
  const U256& n = sc::kN;
  if (sig.r.is_zero() || sig.s.is_zero() || !(sig.r < n) || !(sig.s < n)) {
    return false;
  }
  const U256 w = inv_mod(sig.s, n);
  const U256 u1 = sc::mul(digest_to_scalar(digest), w);
  const U256 u2 = sc::mul(sig.r, w);
  return ec::x_mod_n_equals(ec::double_scalar_mul(u1, u2, table_), sig.r);
}

PrivateKey PrivateKey::generate(Rng& rng) {
  for (;;) {
    const Bytes candidate = rng.bytes(32);
    auto key = from_bytes(candidate);
    if (key.ok()) return std::move(key).take();
  }
}

PrivateKey PrivateKey::from_seed(ByteView seed) {
  Bytes material(seed.begin(), seed.end());
  for (;;) {
    const Hash256 h = sha256(material);
    auto key = from_bytes(ByteView(h.data(), h.size()));
    if (key.ok()) return std::move(key).take();
    material = hash_bytes(h);  // extremely unlikely; rehash and retry
  }
}

Result<PrivateKey> PrivateKey::from_bytes(ByteView data) {
  if (data.size() != 32) {
    return Result<PrivateKey>::failure("private key must be 32 bytes");
  }
  const U256 d = U256::from_be_bytes(data);
  if (d.is_zero() || !(d < sc::kN)) {
    return Result<PrivateKey>::failure("private scalar out of range");
  }
  return PrivateKey(d);
}

PublicKey PrivateKey::public_key() const {
  return PublicKey(ec::to_affine(ec::generator_mul(d_)));
}

U256 rfc6979_nonce(const U256& priv, const Hash256& digest) {
  // RFC 6979 §3.2 with SHA-256; h1 is already the message digest.
  const std::array<std::uint8_t, 32> x = priv.to_be_array();
  const std::array<std::uint8_t, 32> h1 =
      digest_to_scalar(digest).to_be_array();  // bits2octets(H(m))

  Hash256 v;
  v.fill(0x01);
  const Hash256 k0{};  // K = 0x00 ... 00

  // One keyed HMAC per K, copied for each MAC under that key.
  HmacSha256 keyed(ByteView(k0.data(), k0.size()));
  auto mac = [&keyed](std::initializer_list<ByteView> parts) {
    HmacSha256 h = keyed;
    for (const auto& p : parts) h.update(p);
    return h.finish();
  };
  auto set_k = [&keyed](const Hash256& k) {
    keyed = HmacSha256(ByteView(k.data(), k.size()));
  };
  const ByteView vv(v.data(), v.size());
  const ByteView xv(x.data(), x.size());
  const ByteView hv(h1.data(), h1.size());
  const std::uint8_t zero = 0x00;
  const std::uint8_t one = 0x01;

  set_k(mac({vv, ByteView(&zero, 1), xv, hv}));
  v = mac({vv});
  set_k(mac({vv, ByteView(&one, 1), xv, hv}));
  v = mac({vv});

  for (;;) {
    v = mac({vv});
    const U256 candidate = U256::from_be_bytes(vv);
    if (!candidate.is_zero() && candidate < sc::kN) return candidate;
    set_k(mac({vv, ByteView(&zero, 1)}));
    v = mac({vv});
  }
}

Signature PrivateKey::sign(const Hash256& digest) const {
  const U256 e = digest_to_scalar(digest);

  U256 nonce = rfc6979_nonce(d_, digest);
  for (;;) {
    const ec::Affine rp = ec::to_affine(ec::generator_mul(nonce));
    const U256 r = sc::reduce(rp.x);
    if (!r.is_zero()) {
      // s = k^-1 (e + r d) mod n.
      U256 s = sc::mul(sc::add(e, sc::mul(r, d_)), inv_mod(nonce, sc::kN));
      if (!s.is_zero()) {
        if (sc::kHalfN < s) s = sc::neg(s);
        return Signature{r, s};
      }
    }
    // Degenerate nonce (probability ~2^-256): derive a fresh one.
    const std::array<std::uint8_t, 32> seed = nonce.to_be_array();
    const Hash256 retry = sha256(ByteView(seed.data(), seed.size()));
    nonce = sc::reduce(U256::from_be_bytes(ByteView(retry.data(), retry.size())));
    if (nonce.is_zero()) nonce = U256::one();
  }
}

}  // namespace bft::crypto
