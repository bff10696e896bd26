// WAL micro-benchmark: append throughput vs fsync policy.
//
// Drives storage::WriteAheadLog directly with fixed-size values and reports,
// per policy (always | group | off), the sustained append rate and payload
// bandwidth. `always` pays one fsync per append, `group` amortizes one fsync
// over every append in a flusher window (DESIGN.md §9), `off` never syncs —
// so the spread between the three rows is the price of each durability level
// on this machine's storage stack.
//
//   bench_wal_append [--records 5000] [--bytes 512] [--segment-mb 8]
//                    [--policies always,group,off] [--json-out FILE]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "storage/wal.hpp"

using namespace bft;

namespace {

struct Row {
  std::string policy;
  std::uint64_t records = 0;
  std::size_t payload_bytes = 0;
  double append_per_s = 0;
  double mb_per_s = 0;
  double wall_s = 0;
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? csv.npos : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const std::uint64_t records =
      static_cast<std::uint64_t>(flags.get_int("records", 5000));
  const std::size_t payload_bytes =
      static_cast<std::size_t>(flags.get_int("bytes", 512));
  const std::size_t segment_bytes =
      static_cast<std::size_t>(flags.get_int("segment-mb", 8)) << 20;
  const std::vector<std::string> policies =
      split_csv(flags.get("policies", "always,group,off"));
  const std::string json_out = flags.get("json-out", "");
  if (!flags.unused().empty()) {
    std::fprintf(stderr,
                 "usage: bench_wal_append [--records N] [--bytes B] "
                 "[--segment-mb M] [--policies a,b,...] [--json-out FILE]\n%s\n",
                 flags.unused().c_str());
    return 2;
  }

  char dir_template[] = "/tmp/bft-wal-bench-XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::filesystem::path base(dir_template);

  std::printf("WAL append throughput (%llu records x %zu B, %zu MiB segments)\n\n",
              static_cast<unsigned long long>(records), payload_bytes,
              segment_bytes >> 20);
  std::printf("%8s %14s %12s %10s\n", "fsync", "appends/s", "bandwidth",
              "wall");

  const Bytes value(payload_bytes, 0xa5);
  std::vector<Row> rows;
  for (const std::string& name : policies) {
    const auto policy = storage::parse_fsync_policy(name);
    if (!policy.ok()) {
      std::fprintf(stderr, "unknown fsync policy: %s\n", name.c_str());
      return 2;
    }

    storage::WalOptions options;
    options.directory = (base / name).string();
    options.segment_bytes = segment_bytes;
    options.fsync = policy.value();
    auto opened = storage::WriteAheadLog::open(std::move(options));
    if (!opened.ok()) {
      std::fprintf(stderr, "open failed: %s\n", opened.error().c_str());
      return 1;
    }
    std::unique_ptr<storage::WriteAheadLog> wal = std::move(opened).take();

    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t cid = 1; cid <= records; ++cid) {
      const Status st = wal->append(cid, value);
      if (!st.is_ok()) {
        std::fprintf(stderr, "append failed: %s\n", st.error().c_str());
        return 1;
      }
    }
    // Count the outstanding group-commit window against the run, so `group`
    // reports durable throughput rather than page-cache throughput.
    const Status flushed = wal->flush();
    if (!flushed.is_ok()) {
      std::fprintf(stderr, "flush failed: %s\n", flushed.error().c_str());
      return 1;
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    Row row;
    row.policy = name;
    row.records = records;
    row.payload_bytes = payload_bytes;
    row.wall_s = elapsed;
    row.append_per_s = static_cast<double>(records) / elapsed;
    row.mb_per_s =
        row.append_per_s * static_cast<double>(payload_bytes) / 1e6;
    rows.push_back(row);
    std::printf("%8s %12.0f/s %9.1fMB/s %9.3fs\n", name.c_str(),
                row.append_per_s, row.mb_per_s, row.wall_s);

    wal.reset();  // close before deleting the directory
    std::error_code ec;
    std::filesystem::remove_all(base / name, ec);
  }
  std::error_code ec;
  std::filesystem::remove_all(base, ec);

  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::perror("fopen --json-out");
      return 1;
    }
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "  {\"bench\": \"wal_append\", \"mode\": \"wall\", "
                   "\"fsync\": \"%s\", \"records\": %llu, \"payload_bytes\": %zu, "
                   "\"appends_per_s\": %.0f, \"mb_per_s\": %.2f, "
                   "\"wall_s\": %.4f}%s\n",
                   r.policy.c_str(),
                   static_cast<unsigned long long>(r.records), r.payload_bytes,
                   r.append_per_s, r.mb_per_s, r.wall_s,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_out.c_str());
  }
  return 0;
}
