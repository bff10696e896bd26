#include "ordering/signer.hpp"

#include <stdexcept>

#include "common/serial.hpp"

namespace bft::ordering {

EcdsaBlockSigner::EcdsaBlockSigner(runtime::ProcessId node,
                                   runtime::Duration cost_hint)
    : auth_(node), cost_hint_(cost_hint) {}

Bytes EcdsaBlockSigner::sign(const crypto::Hash256& header_digest) const {
  return auth_.sign(header_digest);
}

bool EcdsaBlockSigner::verify(runtime::ProcessId signer,
                              const crypto::Hash256& header_digest,
                              ByteView signature) const {
  return auth_.verify(signer, header_digest, signature);
}

CorruptingBlockSigner::CorruptingBlockSigner(std::shared_ptr<BlockSigner> inner)
    : inner_(std::move(inner)) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("CorruptingBlockSigner: null inner signer");
  }
}

Bytes CorruptingBlockSigner::sign(const crypto::Hash256& header_digest) const {
  Bytes signature = inner_->sign(header_digest);
  // Flip bits across the first word so the result is well-formed enough to
  // parse but can never verify against the node's public key.
  for (std::size_t i = 0; i < signature.size() && i < 8; ++i) {
    signature[i] ^= 0xa5;
  }
  return signature;
}

bool CorruptingBlockSigner::verify(runtime::ProcessId signer,
                                   const crypto::Hash256& header_digest,
                                   ByteView signature) const {
  return inner_->verify(signer, header_digest, signature);
}

StubBlockSigner::StubBlockSigner(runtime::ProcessId node,
                                 runtime::Duration cost_hint)
    : node_(node), cost_hint_(cost_hint) {}

Bytes StubBlockSigner::compute(runtime::ProcessId node,
                               const crypto::Hash256& header_digest) {
  Writer w(48);
  w.str("stub-block-signature");
  w.u32(node);
  w.raw(ByteView(header_digest.data(), header_digest.size()));
  return crypto::hash_bytes(crypto::sha256(w.data()));
}

Bytes StubBlockSigner::sign(const crypto::Hash256& header_digest) const {
  return compute(node_, header_digest);
}

bool StubBlockSigner::verify(runtime::ProcessId signer,
                             const crypto::Hash256& header_digest,
                             ByteView signature) const {
  const Bytes expected = compute(signer, header_digest);
  return constant_time_equal(expected, signature);
}

}  // namespace bft::ordering
