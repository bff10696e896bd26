#include "crypto/authenticator.hpp"

#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

namespace bft::crypto {

PrivateKey process_private_key(std::uint32_t id) {
  return PrivateKey::from_seed(to_bytes("bft-process-" + std::to_string(id)));
}

const PublicKey& process_public_key(std::uint32_t id) {
  // Entries are never erased, so each thread remembers the ones it looked
  // up and takes the lock only the first time it sees an id.
  thread_local std::unordered_map<std::uint32_t, const PublicKey*> seen;
  if (const auto hit = seen.find(id); hit != seen.end()) return *hit->second;
  static std::mutex mutex;
  static std::map<std::uint32_t, PublicKey> cache;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(id);
  if (it == cache.end()) {
    it = cache.emplace(id, process_private_key(id).public_key()).first;
  }
  seen.emplace(id, &it->second);
  return it->second;
}

Authenticator::Authenticator(std::uint32_t self)
    : key_(process_private_key(self)) {}

Bytes Authenticator::sign(const Hash256& digest) const {
  return key_.sign(digest).to_bytes();
}

bool Authenticator::verify(std::uint32_t from, const Hash256& digest,
                           ByteView signature) const {
  const auto sig = Signature::from_bytes(signature);
  if (!sig.ok()) return false;
  return process_public_key(from).verify(digest, sig.value());
}

}  // namespace bft::crypto
