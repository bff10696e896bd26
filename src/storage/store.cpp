#include "storage/store.hpp"

#include <filesystem>

#include "storage/io.hpp"

namespace bft::storage {

namespace fs = std::filesystem;

NodeStore::NodeStore(StoreOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics),
      replayed_metric_(metrics_->counter(
          "storage.replayed_blocks", "decisions replayed from disk at restart")),
      checkpoint_bytes_(metrics_->counter(
          "storage.checkpoint_bytes", "bytes written to checkpoint files")) {}

Result<std::unique_ptr<NodeStore>> NodeStore::open(StoreOptions options) {
  using R = Result<std::unique_ptr<NodeStore>>;

  std::error_code ec;
  fs::create_directories(options.directory, ec);
  if (ec) {
    return R::failure("storage: cannot create " + options.directory + ": " +
                      ec.message());
  }

  // Node-id stamp: refuse to adopt another node's history. A mis-addressed
  // --data-dir must fail loudly, not replay a different replica's chain.
  const std::string stamp_path = options.directory + "/NODE";
  const std::string want = "node " + std::to_string(options.node_id) + "\n";
  const std::optional<Bytes> stamp = read_file(stamp_path);
  const std::string have = stamp ? to_string(*stamp) : "";
  if (have.empty()) {
    const Status written = replace_file(stamp_path, to_bytes(want));
    if (!written.is_ok()) return R::failure("storage: " + written.error());
  } else if (have != want) {
    return R::failure("storage: data dir " + options.directory +
                      " is stamped \"" +
                      have.substr(0, have.find('\n')) +
                      "\" but this process is node " +
                      std::to_string(options.node_id) +
                      " — refusing to reuse another node's history");
  }

  std::unique_ptr<NodeStore> store(new NodeStore(options));

  WalOptions wal_options;
  wal_options.directory = options.directory + "/wal";
  wal_options.segment_bytes = options.wal_segment_bytes;
  wal_options.fsync = options.fsync;
  wal_options.metrics = store->metrics_.get();

  auto wal = WriteAheadLog::open(std::move(wal_options));
  if (!wal.ok()) return R::failure(wal.error());
  store->wal_ = std::move(wal).take();

  auto checkpoints = CheckpointStore::open(options.directory);
  if (!checkpoints.ok()) return R::failure(checkpoints.error());
  store->checkpoints_ = std::move(checkpoints).take();

  return R(std::move(store));
}

Status NodeStore::append_decision(std::uint64_t cid, ByteView value) {
  return wal_->append(cid, value);
}

Status NodeStore::write_checkpoint(const Checkpoint& cp) {
  const Result<std::uint64_t> floor = checkpoints_->write(cp);
  if (!floor.ok()) return Status::failure(floor.error());
  checkpoint_bytes_.add(checkpoints_->last_written_bytes());
  // Everything below the older surviving slot is unreachable by recovery.
  if (floor.value() > 0) wal_->prune_below(floor.value());
  return Status::ok();
}

std::uint64_t NodeStore::replay(
    std::uint64_t after,
    const std::function<void(std::uint64_t cid, ByteView value)>& fn) {
  const std::uint64_t n = wal_->replay(after, fn);
  replayed_ += n;
  replayed_metric_.add(n);
  return n;
}

}  // namespace bft::storage
