#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "kvstore/db.h"
#include "kvstore/scan_filter.h"

namespace tman::kv {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = std::string(::testing::TempDir()) + "tman_mscan_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Key(uint32_t n) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08u", n);
  return buf;
}

// Accepts rows whose value ends in an even digit (exercises push-down on
// both paths identically).
class EvenValueFilter : public ScanFilter {
 public:
  bool Matches(const Slice& key, const Slice& value) const override {
    (void)key;
    if (value.empty()) return false;
    return (value[value.size() - 1] - '0') % 2 == 0;
  }
};

// Collects rows and optionally stops after `stop_after` accepts (0 = never).
class RecordingSink : public RowSink {
 public:
  explicit RecordingSink(size_t stop_after = 0) : stop_after_(stop_after) {}

  bool Accept(const Slice& key, const Slice& value) override {
    if (stopped_) return false;  // "stopped" is sticky, like a stopped batch
    rows.emplace_back(key.ToString(), value.ToString());
    if (stop_after_ != 0 && rows.size() >= stop_after_) {
      stopped_ = true;
      return false;
    }
    return true;
  }

  bool stopped() const { return stopped_; }

  std::vector<std::pair<std::string, std::string>> rows;

 private:
  size_t stop_after_;
  bool stopped_ = false;
};

// The reference semantics MultiScan must reproduce byte for byte: one
// DB::Scan per window, in order, sharing one sink; a sink stop ends the
// whole sequence.
void SequentialScans(DB* db, const std::vector<ScanWindow>& windows,
                     const ScanFilter* filter, size_t limit,
                     RecordingSink* sink, ScanStats* stats) {
  for (const ScanWindow& w : windows) {
    if (sink->stopped()) break;
    ASSERT_TRUE(
        db->Scan(ReadOptions(), w.start, w.end, filter, limit, sink, stats)
            .ok());
  }
}

// Loads a DB whose snapshot spans every storage tier: compacted levels,
// L0 tables, and the live memtable (plus overwrites and tombstones so the
// version-collapsing logic is on the differential path too).
void LoadTieredDB(DB* db, uint32_t n, Random* rng) {
  auto put_range = [&](uint32_t lo, uint32_t hi) {
    for (uint32_t i = lo; i < hi; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), Key(i),
                          "v" + std::to_string(rng->Uniform(1000)))
                      .ok());
    }
  };
  // Tier 1: compacted down.
  put_range(0, n / 2);
  ASSERT_TRUE(db->CompactAll().ok());
  // Tier 2: L0 only, overwriting a slice of tier 1.
  put_range(n / 3, (n * 3) / 4);
  ASSERT_TRUE(db->Flush().ok());
  // Tier 3: memtable, with deletions punched into the older tiers.
  put_range((n * 2) / 3, n);
  for (uint32_t i = 0; i < n; i += 17) {
    ASSERT_TRUE(db->Delete(WriteOptions(), Key(i)).ok());
  }
  // All three tiers hold data.
  const DB::Stats stats = db->GetStats();
  EXPECT_GT(stats.memtable_bytes, 0u);
  EXPECT_GE(stats.files_per_level[0], 1);
  int deeper = 0;
  for (size_t l = 1; l < stats.files_per_level.size(); l++) {
    deeper += stats.files_per_level[l];
  }
  EXPECT_GE(deeper, 1);
}

std::vector<std::string> MakeWindowKeys(uint32_t n, size_t num_windows,
                                        Random* rng) {
  std::vector<std::string> keys;
  keys.reserve(num_windows * 2);
  for (size_t i = 0; i < num_windows * 2; i++) {
    keys.push_back(Key(static_cast<uint32_t>(rng->Uniform(n + n / 10))));
  }
  return keys;
}

TEST(MultiScanTest, RandomizedDifferentialAgainstSequentialScans) {
  const std::string dir = TestDir("diff");
  Options options;
  options.write_buffer_size = 64 * 1024;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  Random rng(20260806);
  LoadTieredDB(db.get(), 4000, &rng);

  EvenValueFilter filter;
  for (int round = 0; round < 12; round++) {
    const size_t num_windows = 1 + rng.Uniform(96);
    std::vector<std::string> keys = MakeWindowKeys(4000, num_windows, &rng);
    std::vector<ScanWindow> windows;
    const bool sorted = round % 2 == 0;
    if (sorted) std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i + 1 < keys.size(); i += 2) {
      Slice a(keys[i]), b(keys[i + 1]);
      if (sorted || a.compare(b) <= 0) {
        windows.push_back(ScanWindow{a, b});
      } else {
        windows.push_back(ScanWindow{b, a});
      }
    }
    if (round % 3 == 0 && !windows.empty()) {
      windows.back().end = Slice();  // one unbounded window per third round
    }
    const ScanFilter* f = round % 2 == 0 ? &filter : nullptr;
    const size_t limit = rng.Uniform(3) == 0 ? 1 + rng.Uniform(20) : 0;

    RecordingSink expected;
    ScanStats expected_stats;
    SequentialScans(db.get(), windows, f, limit, &expected, &expected_stats);

    RecordingSink actual;
    ScanStats actual_stats;
    MultiScanPerf perf;
    ASSERT_TRUE(db->MultiScan(ReadOptions(), windows, f, limit, &actual,
                              &actual_stats, &perf)
                    .ok());

    ASSERT_EQ(expected.rows, actual.rows) << "round " << round;
    EXPECT_EQ(expected_stats.scanned, actual_stats.scanned);
    EXPECT_EQ(expected_stats.matched, actual_stats.matched);
    EXPECT_EQ(perf.windows, windows.size());
    EXPECT_EQ(perf.seeks_issued + perf.seeks_saved, windows.size());
  }
}

TEST(MultiScanTest, SortedWindowsSaveSeeks) {
  const std::string dir = TestDir("seeksave");
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (uint32_t i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "v").ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());

  // Sorted, non-overlapping, back-to-back windows: after the first Seek the
  // cursor is always inside the next window already.
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < 3000; i += 100) keys.push_back(Key(i));
  std::vector<ScanWindow> windows;
  for (size_t i = 0; i + 1 < keys.size(); i++) {
    windows.push_back(ScanWindow{Slice(keys[i]), Slice(keys[i + 1])});
  }

  RecordingSink sink;
  MultiScanPerf perf;
  ASSERT_TRUE(db->MultiScan(ReadOptions(), windows, nullptr, 0, &sink,
                            nullptr, &perf)
                  .ok());
  EXPECT_EQ(sink.rows.size(), 2900u);  // [0, 2900) contiguous
  EXPECT_EQ(perf.seeks_issued, 1u);  // only the very first window seeks
  EXPECT_EQ(perf.seeks_saved, windows.size() - 1);
  EXPECT_GT(perf.block_reuse + perf.blocks_readahead, 0u);

  // An exhausted cursor proves later in-order windows empty with no seeks.
  std::string past1 = Key(5000), past2 = Key(6000), past3 = Key(7000);
  std::vector<ScanWindow> past = {{Slice(keys.back()), Slice(past1)},
                                  {Slice(past1), Slice(past2)},
                                  {Slice(past2), Slice(past3)}};
  RecordingSink tail_sink;
  MultiScanPerf tail_perf;
  ASSERT_TRUE(db->MultiScan(ReadOptions(), past, nullptr, 0, &tail_sink,
                            nullptr, &tail_perf)
                  .ok());
  EXPECT_EQ(tail_sink.rows.size(), 100u);  // [2900, 3000)
  EXPECT_EQ(tail_perf.seeks_issued, 1u);
  EXPECT_EQ(tail_perf.seeks_saved, 2u);
}

TEST(MultiScanTest, MidScanFlushDoesNotPerturbSnapshot) {
  const std::string dir = TestDir("midflush");
  Options options;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  Random rng(7);
  LoadTieredDB(db.get(), 2000, &rng);

  std::string lo = Key(0), hi = Key(2000);
  std::vector<ScanWindow> windows = {{Slice(lo), Slice(hi)}};
  RecordingSink expected;
  SequentialScans(db.get(), windows, nullptr, 0, &expected, nullptr);
  ASSERT_FALSE(expected.rows.empty());

  // Sink that mutates and flushes the DB mid-scan: the running MultiScan
  // reads its own snapshot, so the result must be unchanged.
  class FlushingSink : public RowSink {
   public:
    FlushingSink(DB* db, size_t flush_at) : db_(db), flush_at_(flush_at) {}
    bool Accept(const Slice& key, const Slice& value) override {
      rows.emplace_back(key.ToString(), value.ToString());
      if (rows.size() == flush_at_) {
        EXPECT_TRUE(db_->Put(WriteOptions(), "k00000500", "mutated").ok());
        EXPECT_TRUE(db_->Delete(WriteOptions(), "k00001500").ok());
        EXPECT_TRUE(db_->Flush().ok());
      }
      return true;
    }
    std::vector<std::pair<std::string, std::string>> rows;

   private:
    DB* db_;
    size_t flush_at_;
  };

  FlushingSink actual(db.get(), expected.rows.size() / 2);
  ASSERT_TRUE(
      db->MultiScan(ReadOptions(), windows, nullptr, 0, &actual, nullptr)
          .ok());
  ASSERT_EQ(expected.rows, actual.rows);
}

TEST(MultiScanTest, DifferentialUnderConcurrentBackgroundWork) {
  const std::string dir = TestDir("concurrent");
  Options options;
  options.write_buffer_size = 32 * 1024;  // frequent flush/compaction churn
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dir, &db).ok());
  for (uint32_t i = 0; i < 1500; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "stable" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  // Reference result over the stable "k........" keyspace, computed before
  // any concurrent writer starts.
  std::vector<std::string> keys;
  for (uint32_t i = 0; i < 1500; i += 50) keys.push_back(Key(i));
  std::vector<ScanWindow> windows;
  for (size_t i = 0; i + 1 < keys.size(); i++) {
    windows.push_back(ScanWindow{Slice(keys[i]), Slice(keys[i + 1])});
  }
  RecordingSink expected;
  SequentialScans(db.get(), windows, nullptr, 0, &expected, nullptr);

  // Writers churn a disjoint prefix ("z...") hard enough to keep background
  // flushes and compactions running while the scans execute.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; t++) {
    writers.emplace_back([&db, &stop, t] {
      Random wrng(100 + t);
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string key = "z" + std::to_string(t) + "-" +
                          std::to_string(wrng.Uniform(4096));
        EXPECT_TRUE(db->Put(WriteOptions(), key,
                            std::string(256, 'x') + std::to_string(i++))
                        .ok());
      }
    });
  }

  // At least 25 rounds, and more until the churn has flushed and compacted
  // while scans ran (bounded so a stuck flush fails instead of hanging).
  const DB::Stats before = db->GetStats();
  auto churned = [&] {
    const DB::Stats now = db->GetStats();
    return now.flush_count >= before.flush_count + 8 &&
           now.compaction_count >= before.compaction_count + 1;
  };
  for (int round = 0; round < 25 || (!churned() && round < 5000); round++) {
    RecordingSink actual;
    MultiScanPerf perf;
    ASSERT_TRUE(db->MultiScan(ReadOptions(), windows, nullptr, 0, &actual,
                              nullptr, &perf)
                    .ok());
    ASSERT_EQ(expected.rows, actual.rows) << "round " << round;
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  EXPECT_TRUE(churned());
}

// ---------------------------------------------------------------------------
// Cluster layer

TEST(ClusterMultiScanTest, MatchesParallelScan) {
  const std::string dir = TestDir("cluster");
  kv::Options kv_options;
  cluster::Cluster cluster_inst(dir, 3, kv_options);
  ASSERT_TRUE(cluster_inst.CreateTable("t", 4).ok());
  cluster::ClusterTable* table = cluster_inst.GetTable("t");
  // A fresh 4-region table splits at the one-byte keys \x01..\x03, so
  // first bytes 0..4 put rows in every region (region 3 holds 3 and 4).
  Random rng(99);
  std::vector<cluster::Row> rows;
  for (int i = 0; i < 3000; i++) {
    std::string key;
    key.push_back(static_cast<char>(rng.Uniform(5)));
    key += Key(static_cast<uint32_t>(i));
    rows.push_back(cluster::Row{key, "v" + std::to_string(i)});
  }
  ASSERT_TRUE(table->BatchPut(rows).ok());
  ASSERT_TRUE(table->Flush().ok());

  EvenValueFilter filter;
  std::set<int> regions_matched;
  for (int round = 0; round < 6; round++) {
    std::vector<cluster::KeyRange> ranges;
    for (int i = 0; i < 8; i++) {
      // Half the ranges stay inside one first byte; the other half end in
      // the next one, straddling the region boundary there when `first`
      // is 0..2.
      const char first = static_cast<char>(rng.Uniform(5));
      const uint32_t lo = rng.Uniform(3000);
      const bool straddle = rng.Uniform(2) == 0;
      const uint32_t hi =
          straddle ? rng.Uniform(3000) : lo + 1 + rng.Uniform(600);
      ranges.push_back(cluster::KeyRange{
          std::string(1, first) + Key(lo),
          std::string(1, static_cast<char>(first + (straddle ? 1 : 0))) +
              Key(hi)});
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const cluster::KeyRange& x, const cluster::KeyRange& y) {
                return x.start < y.start;
              });

    std::vector<cluster::Row> via_scan, via_multi;
    kv::ScanStats scan_stats, multi_stats;
    ASSERT_TRUE(
        table->ParallelScan(ranges, &filter, 0, &via_scan, &scan_stats).ok());
    RecordingSink sink;
    MultiScanPerf perf;
    std::vector<cluster::ClusterTable::RegionScanStat> breakdown;
    ASSERT_TRUE(table
                    ->MultiScan(ranges, &filter, 0, &sink, &multi_stats,
                                &breakdown, &perf)
                    .ok());

    // Arrival order across regions is unspecified on both paths: compare as
    // sorted sets.
    auto row_less = [](const cluster::Row& a, const cluster::Row& b) {
      return a.key < b.key;
    };
    std::sort(via_scan.begin(), via_scan.end(), row_less);
    std::sort(sink.rows.begin(), sink.rows.end());
    ASSERT_EQ(via_scan.size(), sink.rows.size()) << "round " << round;
    for (size_t i = 0; i < via_scan.size(); i++) {
      EXPECT_EQ(via_scan[i].key, sink.rows[i].first);
      EXPECT_EQ(via_scan[i].value, sink.rows[i].second);
    }
    EXPECT_EQ(scan_stats.scanned, multi_stats.scanned);
    EXPECT_EQ(scan_stats.matched, multi_stats.matched);
    // One task per region, never one per (region, window).
    EXPECT_LE(breakdown.size(), 4u);
    EXPECT_EQ(perf.seeks_issued + perf.seeks_saved, perf.windows);
    for (const auto& r : breakdown) {
      if (r.matched > 0) regions_matched.insert(r.shard);
    }
  }
  // The comparison covered every region, not just the last one.
  EXPECT_EQ(regions_matched.size(), 4u);
  ASSERT_TRUE(cluster_inst.DropTable("t").ok());
}

// Windows clamped to a routing boundary borrow the boundary key from the
// routing snapshot rather than from the query window; both paths must still
// return exactly the rows inside the windows on each side of every
// boundary, with an open-ended last window too. A split leaves the moved
// rows in the source store until compaction, so a window clamped to the
// wrong end would return them twice.
TEST(ClusterMultiScanTest, WindowsStraddlingRegionBoundaries) {
  const std::string dir = TestDir("straddle");
  kv::Options kv_options;
  cluster::Cluster cluster_inst(dir, 3, kv_options);
  ASSERT_TRUE(cluster_inst.CreateTable("t", 4).ok());
  cluster::ClusterTable* table = cluster_inst.GetTable("t");
  std::vector<cluster::Row> rows;
  // A fresh 4-region table splits the key space at one-byte keys 1, 2, 3.
  for (int first = 0; first < 6; first++) {
    for (uint32_t i = 0; i < 20; i++) {
      std::string key(1, static_cast<char>(first));
      key += Key(i * 100);
      rows.push_back(cluster::Row{key, "v" + std::to_string(first + i)});
    }
  }
  ASSERT_TRUE(table->BatchPut(rows).ok());
  ASSERT_TRUE(table->Flush().ok());

  const auto regions = table->GetPerRegionStats();
  ASSERT_EQ(regions.size(), 4u);
  // Just below each boundary key.
  auto below = [](std::string boundary) {
    EXPECT_FALSE(boundary.empty());
    EXPECT_NE(boundary.back(), '\0');
    boundary.back() = static_cast<char>(boundary.back() - 1);
    return boundary;
  };
  std::vector<cluster::KeyRange> ranges;
  // Starts before the first key and ends inside the second region.
  ranges.push_back(cluster::KeyRange{"", regions[1].range.start + Key(300)});
  // Straddles the second boundary.
  ranges.push_back(cluster::KeyRange{below(regions[1].range.end) + Key(500),
                                     regions[1].range.end + Key(900)});
  // Straddles the last boundary and runs to the end of the key space.
  ranges.push_back(
      cluster::KeyRange{below(regions[2].range.end) + Key(1500), ""});
  std::sort(ranges.begin(), ranges.end(),
            [](const cluster::KeyRange& x, const cluster::KeyRange& y) {
              return x.start < y.start;
            });
  ASSERT_TRUE(
      table->SplitRegionAt(regions[3].shard, std::string(1, '\x04')).ok());

  EvenValueFilter even;
  const std::vector<const ScanFilter*> filters = {nullptr, &even};
  for (const ScanFilter* filter : filters) {
    std::vector<cluster::Row> via_scan;
    kv::ScanStats scan_stats, multi_stats;
    ASSERT_TRUE(
        table->ParallelScan(ranges, filter, 0, &via_scan, &scan_stats).ok());
    RecordingSink sink;
    ASSERT_TRUE(
        table->MultiScan(ranges, filter, 0, &sink, &multi_stats).ok());
    std::sort(via_scan.begin(), via_scan.end(),
              [](const cluster::Row& a, const cluster::Row& b) {
                return a.key < b.key;
              });
    std::sort(sink.rows.begin(), sink.rows.end());
    // Each window contributes rows on both sides of the boundary it
    // straddles, so every region serves some of the result.
    for (const auto& region : regions) {
      EXPECT_TRUE(std::any_of(via_scan.begin(), via_scan.end(),
                              [&](const cluster::Row& row) {
                                return cluster::RangeContains(region.range,
                                                              row.key);
                              }))
          << "region " << region.shard;
    }
    std::vector<std::pair<std::string, std::string>> expected;
    for (const cluster::Row& row : rows) {
      const bool in_window =
          std::any_of(ranges.begin(), ranges.end(),
                      [&](const cluster::KeyRange& range) {
                        return cluster::RangeContains(range, row.key);
                      });
      if (in_window &&
          (filter == nullptr || filter->Matches(row.key, row.value))) {
        expected.emplace_back(row.key, row.value);
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(sink.rows, expected);
    ASSERT_EQ(via_scan.size(), sink.rows.size());
    for (size_t i = 0; i < via_scan.size(); i++) {
      EXPECT_EQ(via_scan[i].key, sink.rows[i].first);
      EXPECT_EQ(via_scan[i].value, sink.rows[i].second);
    }
    EXPECT_EQ(scan_stats.scanned, multi_stats.scanned);
    EXPECT_EQ(scan_stats.matched, multi_stats.matched);
  }
  ASSERT_TRUE(cluster_inst.DropTable("t").ok());
}

}  // namespace
}  // namespace tman::kv
