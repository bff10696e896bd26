// End-to-end durability: an ordering cluster whose nodes persist decisions
// and checkpoints restarts from disk — fresh processes (new Replica objects
// over reopened NodeStores) resume the chain exactly where it stopped, and a
// checkpoint failing integrity verification is refused rather than adopted.
#include <filesystem>
#include <map>

#include <gtest/gtest.h>

#include "ledger/chain.hpp"
#include "ordering/deployment.hpp"
#include "runtime/sim_runtime.hpp"
#include "storage/store.hpp"

namespace bft::ordering {
namespace {

namespace fs = std::filesystem;
using sim::kMillisecond;
using sim::kSecond;

ServiceOptions base_options() {
  ServiceOptions options;
  options.nodes = {0, 1, 2, 3};
  options.block_size = 5;
  options.replica_params.forward_timeout = runtime::msec(300);
  options.replica_params.stop_timeout = runtime::msec(500);
  options.replica_params.checkpoint_period = 8;
  options.replica_params.state_transfer_gap = 4;
  options.replica_params.stall_timeout = runtime::msec(500);
  return options;
}

std::unique_ptr<storage::NodeStore> open_store(const fs::path& root,
                                               runtime::ProcessId id,
                                               std::size_t segment_bytes =
                                                   8u << 20) {
  storage::StoreOptions so;
  so.directory = (root / ("node-" + std::to_string(id))).string();
  so.node_id = id;
  so.fsync = storage::FsyncPolicy::off;  // sim: no real power failures
  so.wal_segment_bytes = segment_bytes;
  return storage::NodeStore::open(std::move(so)).take();
}

/// All four nodes with their stores opened against `root`.
struct DurableNodes {
  std::vector<std::unique_ptr<storage::NodeStore>> stores;
  std::vector<SingleNode> nodes;
};

DurableNodes build_nodes(const fs::path& root) {
  DurableNodes out;
  const ServiceOptions base = base_options();
  for (const runtime::ProcessId id : base.nodes) {
    out.stores.push_back(open_store(root, id));
    ServiceOptions options = base;
    options.replica_params.storage = out.stores.back().get();
    out.nodes.push_back(make_node(options, id));
  }
  return out;
}

class DurableRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            (std::string("bft_durable_test_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(DurableRestartTest, ClusterRestartsFromDiskAndExtendsTheSameChain) {
  std::uint64_t pre_blocks = 0;
  std::uint64_t pre_cid = 0;
  std::uint64_t pre_envelopes = 0;
  crypto::Hash256 pre_tip_digest{};

  {  // ---- first life: order 30 envelopes, then the whole cluster dies ----
    DurableNodes life1 = build_nodes(root_);
    runtime::SimCluster cluster(
        sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, 17), 17);
    for (std::size_t i = 0; i < life1.nodes.size(); ++i) {
      cluster.add_process(life1.nodes[i].cluster.members()[i],
                          life1.nodes[i].node.replica.get(), sim::CpuConfig{});
    }
    ledger::BlockStore chain("channel-0");
    Frontend frontend(life1.nodes[0].cluster,
                      make_frontend_options(base_options()),
                      [&chain](const ledger::Block& block) {
                        ASSERT_TRUE(chain.append(block).is_ok());
                      });
    cluster.add_process(100, &frontend);
    for (int i = 0; i < 30; ++i) {
      cluster.schedule_at((10 + i * 20) * kMillisecond, [&frontend, i] {
        frontend.submit(to_bytes("tx-" + std::to_string(i)));
      });
    }
    cluster.run_until(10 * kSecond);

    ASSERT_EQ(chain.height(), 6u);  // 30 envelopes / 5 per block
    ASSERT_TRUE(chain.verify().is_ok());
    pre_blocks = life1.nodes[0].node.app->blocks_created();
    pre_envelopes = life1.nodes[0].node.app->envelopes_ordered();
    pre_cid = life1.nodes[0].node.replica->last_confirmed();
    pre_tip_digest = chain.tip().header.digest();
    ASSERT_GT(pre_cid, 0u);
    ASSERT_GT(life1.stores[0]->wal_tail_cid(), 0u);
  }  // processes die; only the data directories survive

  // ---- second life: fresh replicas over reopened stores ----
  DurableNodes life2 = build_nodes(root_);
  runtime::SimCluster cluster(
      sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, 18), 18);
  for (std::size_t i = 0; i < life2.nodes.size(); ++i) {
    cluster.add_process(life2.nodes[i].cluster.members()[i],
                        life2.nodes[i].node.replica.get(), sim::CpuConfig{});
  }
  // A fresh frontend identity: the restored dedup window remembers client
  // 100's pre-crash sequence numbers, so reusing that id would (correctly)
  // drop the new submissions as duplicates.
  std::map<std::uint64_t, ledger::Block> new_blocks;
  Frontend frontend(life2.nodes[0].cluster,
                    make_frontend_options(base_options()),
                    [&new_blocks](const ledger::Block& block) {
                      new_blocks[block.header.number] = block;
                    });
  cluster.add_process(101, &frontend);

  // Nothing submitted yet: just starting must recover the pre-crash state.
  cluster.run_until(500 * kMillisecond);
  for (std::size_t i = 0; i < life2.nodes.size(); ++i) {
    EXPECT_EQ(life2.nodes[i].node.app->blocks_created(), pre_blocks)
        << "node " << i;
    EXPECT_EQ(life2.nodes[i].node.app->envelopes_ordered(), pre_envelopes)
        << "node " << i;
    EXPECT_EQ(life2.nodes[i].node.replica->last_confirmed(), pre_cid)
        << "node " << i;
    EXPECT_GT(life2.stores[i]->replayed_records(), 0u) << "node " << i;
  }

  // New traffic must extend the restored chain, not restart it at block 1.
  for (int i = 0; i < 10; ++i) {
    cluster.schedule_at(600 * kMillisecond + i * 20 * kMillisecond,
                        [&frontend, i] {
                          frontend.submit(to_bytes("tx2-" + std::to_string(i)));
                        });
  }
  cluster.run_until(10 * kSecond);

  // The restart re-announces the cached pre-crash window (blocks 1..6, so a
  // late-joining frontend can deliver them) and the new traffic extends the
  // chain with blocks 7 and 8 — not a second block 1.
  ASSERT_EQ(new_blocks.size(), 8u);
  EXPECT_EQ(new_blocks.begin()->first, 1u);
  EXPECT_EQ(new_blocks.rbegin()->first, 8u);
  ASSERT_EQ(new_blocks.count(7u), 1u);
  EXPECT_EQ(new_blocks[7u].header.previous_hash, pre_tip_digest);
}

TEST_F(DurableRestartTest, TamperedCheckpointIsRefusedFailClosed) {
  // Four-node cluster; only node 0 is durable, with tiny WAL segments so
  // checkpointing actually prunes the genesis-side history (otherwise the
  // WAL alone could rebuild state and mask the refused checkpoint).
  ServiceOptions options = base_options();
  std::uint64_t pre_blocks = 0;
  {
    auto store = open_store(root_, 0, 256);
    std::vector<SingleNode> nodes;
    for (const runtime::ProcessId id : options.nodes) {
      ServiceOptions per_node = options;
      if (id == 0) per_node.replica_params.storage = store.get();
      nodes.push_back(make_node(per_node, id));
    }
    runtime::SimCluster cluster(
        sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, 19), 19);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      cluster.add_process(options.nodes[i], nodes[i].node.replica.get(),
                          sim::CpuConfig{});
    }
    ledger::BlockStore chain("channel-0");
    Frontend frontend(nodes[0].cluster, make_frontend_options(options),
                      [&chain](const ledger::Block& block) {
                        ASSERT_TRUE(chain.append(block).is_ok());
                      });
    cluster.add_process(100, &frontend);
    for (int i = 0; i < 100; ++i) {
      cluster.schedule_at((10 + i * 10) * kMillisecond, [&frontend, i] {
        frontend.submit(to_bytes("tx-" + std::to_string(i)));
      });
    }
    cluster.run_until(10 * kSecond);
    pre_blocks = nodes[0].node.app->blocks_created();
    ASSERT_GT(pre_blocks, 0u);
    // The WAL must no longer reach back to cid 1, or the test proves nothing.
    ASSERT_EQ(store->replay(0, [](std::uint64_t, ByteView) {}), 0u);
  }

  // Tamper: rewrite both checkpoint slots with a wrong integrity digest but
  // valid CRC (a fork/mis-restore, not random corruption).
  {
    auto checkpoints =
        storage::CheckpointStore::open((root_ / "node-0").string()).take();
    auto slots = checkpoints->load();
    ASSERT_FALSE(slots.empty());
    for (int i = 0; i < 2; ++i) {
      storage::Checkpoint bad = slots.front();
      // Strictly newer than every genuine slot so both get evicted (write
      // always replaces the oldest slot).
      bad.cid += static_cast<std::uint64_t>(i) + 1;
      bad.integrity[0] ^= 0xFF;
      ASSERT_TRUE(checkpoints->write(bad).ok());
    }
  }

  // Restart: both checkpoints must be refused, and with the WAL pruned below
  // them nothing replays — the node comes up empty (and would state-transfer
  // in a real cluster) instead of adopting an unverifiable history.
  auto store = open_store(root_, 0, 256);
  options.replica_params.storage = store.get();
  SingleNode node = make_node(options, 0);
  runtime::SimCluster cluster(
      sim::make_lan(110, kMillisecond / 10, sim::NetworkConfig{}, 20), 20);
  cluster.add_process(0, node.node.replica.get(), sim::CpuConfig{});
  cluster.run_until(500 * kMillisecond);

  EXPECT_EQ(node.node.app->blocks_created(), 0u);
  EXPECT_EQ(node.node.replica->last_confirmed(), 0u);
  EXPECT_EQ(store->replayed_records(), 0u);
}

}  // namespace
}  // namespace bft::ordering
