#include "storage/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>

#include "storage/io.hpp"

namespace bft::storage {

namespace fs = std::filesystem;

namespace {

constexpr std::uint8_t kMagicBytes[8] = {'B', 'F', 'T', 'C',
                                         'K', 'P', 'T', '1'};
constexpr ByteView kMagic(kMagicBytes);

std::optional<Checkpoint> read_slot(const std::string& path) {
  const std::optional<Bytes> contents = read_file(path);
  if (!contents) return std::nullopt;
  const ByteView file = *contents;
  if (!has_magic(file, kMagic)) return std::nullopt;
  Reader in(file.subspan(kMagic.size()));
  const std::optional<ByteView> payload = read_frame(in);
  // Exactly one frame: a short file is a torn write, extra bytes are garbage.
  if (!payload || !in.done()) return std::nullopt;

  try {
    Reader r(*payload);
    Checkpoint cp;
    cp.cid = r.u64();
    cp.integrity = crypto::hash_from_bytes(r.raw(32));
    cp.snapshot = r.bytes();
    r.expect_done();
    return cp;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace

CheckpointStore::CheckpointStore(std::string directory)
    : directory_(std::move(directory)) {}

Result<std::unique_ptr<CheckpointStore>> CheckpointStore::open(
    std::string directory) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Result<std::unique_ptr<CheckpointStore>>::failure(
        "checkpoint: cannot create " + directory + ": " + ec.message());
  }
  std::unique_ptr<CheckpointStore> store(
      new CheckpointStore(std::move(directory)));
  for (int slot = 0; slot < 2; ++slot) {
    if (const auto cp = read_slot(store->slot_path(slot))) {
      store->slot_cids_[slot] = cp->cid;
    }
  }
  return store;
}

std::string CheckpointStore::slot_path(int slot) const {
  return directory_ + (slot == 0 ? "/checkpoint-a.ckpt" : "/checkpoint-b.ckpt");
}

std::vector<Checkpoint> CheckpointStore::load() const {
  std::vector<Checkpoint> out;
  for (int slot = 0; slot < 2; ++slot) {
    auto cp = read_slot(slot_path(slot));
    if (cp.has_value()) out.push_back(std::move(*cp));
  }
  std::sort(out.begin(), out.end(),
            [](const Checkpoint& a, const Checkpoint& b) { return a.cid > b.cid; });
  return out;
}

Result<std::uint64_t> CheckpointStore::write(const Checkpoint& cp) {
  // Pick the victim slot: the one with the older checkpoint (invalid =
  // oldest). The other slot survives and bounds the retain floor.
  const int victim =
      slot_cids_[1].value_or(0) < slot_cids_[0].value_or(0) ? 1 : 0;
  const std::optional<std::uint64_t> survivor = slot_cids_[1 - victim];

  Writer payload;
  payload.u64(cp.cid);
  payload.raw(ByteView(cp.integrity.data(), cp.integrity.size()));
  payload.bytes(cp.snapshot);

  Writer file(kMagic.size() + kFrameHeaderBytes + payload.size());
  file.raw(kMagic);
  append_frame(file, {payload.data()});

  // The WAL is pruned behind this checkpoint, so it must be durable first.
  // Until it is, the victim slot holds nothing we can count on.
  slot_cids_[victim].reset();
  const Status written = replace_file(slot_path(victim), file.data());
  if (!written.is_ok()) {
    return Result<std::uint64_t>::failure("checkpoint: " + written.error());
  }
  slot_cids_[victim] = cp.cid;
  last_written_bytes_ = file.size();
  return survivor.has_value() ? std::min(*survivor, cp.cid) : cp.cid;
}

}  // namespace bft::storage
