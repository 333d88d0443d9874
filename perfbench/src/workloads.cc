#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>

#include "common/random.h"

namespace tman::perfbench {

namespace {

// Paper sweeps: TRQ windows (Fig. 17), SRQ window sides (Fig. 18), IDT
// windows (Fig. 19), the threshold of Fig. 20, top-k k (Fig. 21).
constexpr int64_t kTimeWindows[] = {5 * 60,   30 * 60,   3600,
                                    6 * 3600, 12 * 3600, 24 * 3600};
constexpr double kSpaceSides[] = {100, 500, 1000, 1500, 2000, 2500};
constexpr int64_t kIDTWindow = 12 * 3600;
constexpr double kThreshold = 0.015;
constexpr size_t kTopK[] = {1, 10, 20, 50};

template <typename T, size_t N>
T Cycle(size_t i, const T (&values)[N]) {
  return values[i % N];
}

// Similarity queries are drawn by stratified sampling: the loaded
// trajectories are ordered by MBR diagonal and cut into kStrata equal
// strata. Query n comes from stratum BitReverse(n mod kStrata), at a
// seeded position inside it, so any run of consecutive queries spreads
// evenly over small and large trajectories. Every trajectory is as likely
// to be drawn as under uniform sampling, but each seed draws the same mix
// of query extents, which keeps the run-to-run spread of query cost low.
// Top-k cost climbs steeply with extent (the widest 6% of Lorry-like
// trajectories cost several times the median), so strata are fine enough
// that a run's first steps already form an even grid over the extent
// ranks, whatever point of the cycle the run stops at.
constexpr int kStrataBits = 8;
constexpr size_t kStrata = size_t{1} << kStrataBits;

size_t BitReverse(size_t v) {
  size_t r = 0;
  for (int b = 0; b < kStrataBits; b++) {
    r |= ((v >> b) & 1) << (kStrataBits - 1 - b);
  }
  return r;
}

std::vector<size_t> OrderByExtent(const std::vector<traj::Trajectory>& data,
                                  size_t n) {
  std::vector<std::pair<double, size_t>> keyed;
  keyed.reserve(n);
  for (size_t i = 0; i < n; i++) {
    const geo::MBR m = data[i].ComputeMBR();
    keyed.emplace_back(std::hypot(m.width(), m.height()), i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<size_t> order;
  order.reserve(n);
  for (const auto& [extent, i] : keyed) order.push_back(i);
  return order;
}

WorkloadSpec RangeTDrive() {
  WorkloadSpec w;
  w.name = "range_tdrive";
  w.dataset = traj::TDriveLikeSpec();
  w.trajectories = 20000;
  w.loaded = 20000;
  // 3 TRQ : 4 STRQ : 2 SRQ : 3 IDT puts the workload's p50 among the STRQs
  // and its p90 among the 6 h TRQs, inside one group of similar latencies
  // rather than in a gap between two, where a small shift in the mix moves
  // the percentile far.
  w.pattern = {OpType::kTRQ, OpType::kSTRQ, OpType::kIDT, OpType::kSRQ,
               OpType::kTRQ, OpType::kSTRQ, OpType::kIDT, OpType::kSTRQ,
               OpType::kTRQ, OpType::kSTRQ, OpType::kIDT, OpType::kSRQ};
  return w;
}

WorkloadSpec SimilarityLorry() {
  WorkloadSpec w;
  w.name = "similarity_lorry";
  w.dataset = traj::LorryLikeSpec();
  w.trajectories = 20000;
  w.loaded = 20000;
  // One threshold query per three top-k queries places the workload's p50
  // among the k = 10 and its p90 among the k = 50 top-k queries, for the
  // same reason (see RangeTDrive). The short threshold queries are left out
  // of both percentiles because their latency swings most with load from
  // outside the process.
  w.pattern = {OpType::kThreshold, OpType::kTopK, OpType::kTopK,
               OpType::kTopK};
  return w;
}

WorkloadSpec IngestTDrive() {
  WorkloadSpec w;
  w.name = "ingest_tdrive";
  w.dataset = traj::TDriveLikeSpec();
  w.trajectories = 20000;
  w.loaded = 10000;
  w.pattern = {OpType::kInsert, OpType::kSTRQ, OpType::kInsert,
               OpType::kIDT};
  w.insert_batch = 4;
  return w;
}

geo::MBR SquareIn(const traj::DatasetSpec& spec, Random* rnd, double side) {
  const double lat_mid = (spec.core.min_lat + spec.core.max_lat) / 2;
  const double h = geo::MetersToDegreesLat(side);
  const double w = geo::MetersToDegreesLon(side, lat_mid);
  const double cx = rnd->UniformDouble(spec.core.min_lon, spec.core.max_lon);
  const double cy = rnd->UniformDouble(spec.core.min_lat, spec.core.max_lat);
  return geo::MBR{cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2};
}

void TimeWindow(const traj::DatasetSpec& spec, Random* rnd, int64_t length,
                Op* op) {
  const int64_t latest = std::max<int64_t>(1, spec.horizon_seconds - length);
  op->ts = spec.t0 + static_cast<int64_t>(
                         rnd->Uniform(static_cast<uint64_t>(latest)));
  op->te = op->ts + length;
}

}  // namespace

const char* OpName(OpType type) {
  switch (type) {
    case OpType::kTRQ:
      return "trq";
    case OpType::kSRQ:
      return "srq";
    case OpType::kSTRQ:
      return "strq";
    case OpType::kIDT:
      return "idt";
    case OpType::kThreshold:
      return "threshold_sim";
    case OpType::kTopK:
      return "topk_sim";
    case OpType::kInsert:
      return "insert";
  }
  return "?";
}

bool IsRead(OpType type) { return type != OpType::kInsert; }

bool HasInserts(const WorkloadSpec& w) {
  return std::find(w.pattern.begin(), w.pattern.end(), OpType::kInsert) !=
         w.pattern.end();
}

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& w : {RangeTDrive(), SimilarityLorry(),
                                IngestTDrive()}) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

std::vector<std::string> WorkloadNames() {
  return {"range_tdrive", "similarity_lorry", "ingest_tdrive"};
}

core::TManOptions PaperOptions(const traj::DatasetSpec& spec) {
  core::TManOptions options;
  options.bounds = spec.bounds;
  options.primary = core::PrimaryIndexKind::kSpatial;
  options.spatial = core::SpatialIndexKind::kTShape;
  options.temporal = core::TemporalIndexKind::kTR;
  options.tr.origin = 0;
  options.tr.period_seconds = 1800;
  // N sized to the dataset's longest trajectory (the paper's user knob).
  options.tr.max_periods = spec.long_max / options.tr.period_seconds + 2;
  options.tshape = index::TShapeConfig{3, 3, 15};
  options.encoding = index::ShapeOrderMethod::kGenetic;
  options.genetic.generations = 25;
  options.use_index_cache = true;
  options.push_down = true;
  options.num_shards = 4;
  options.num_servers = 5;
  options.kv.write_buffer_size = 2 * 1024 * 1024;
  return options;
}

std::string DescribeOptions(const core::TManOptions& o) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "primary=spatial spatial=tshape(alpha=%d,beta=%d,g=%d) temporal=tr"
      "(period=%llds,N=%llu) encoding=genetic(generations=%d) "
      "index_cache=%d(capacity=%zu,reencode_threshold=%zu) push_down=%d "
      "multiscan=%d shards=%d servers=%d write_buffer=%zuB "
      "block_cache=%zuB/region block=%zuB bloom_bits=%d "
      "background_flush=%d compression=%d",
      o.tshape.alpha, o.tshape.beta, o.tshape.max_resolution,
      static_cast<long long>(o.tr.period_seconds),
      static_cast<unsigned long long>(o.tr.max_periods),
      o.genetic.generations, o.use_index_cache ? 1 : 0,
      o.index_cache_capacity, o.buffer_shape_threshold, o.push_down ? 1 : 0,
      o.use_multiscan ? 1 : 0, o.num_shards, o.num_servers,
      o.kv.write_buffer_size, o.kv.block_cache_bytes, o.kv.block_size,
      o.kv.bloom_bits_per_key, o.kv.background_flush ? 1 : 0,
      static_cast<int>(o.kv.compression));
  return buf;
}

std::vector<traj::Trajectory> GenerateData(const WorkloadSpec& w,
                                           uint64_t seed) {
  return traj::Generate(w.dataset, w.trajectories, seed);
}

std::vector<Op> GenerateOps(const WorkloadSpec& w,
                            const std::vector<traj::Trajectory>& data,
                            uint64_t seed, size_t count) {
  Random rnd(seed ^ 0x70657266ULL);
  std::vector<Op> ops;
  ops.reserve(count);
  std::vector<size_t> seen(static_cast<size_t>(OpType::kInsert) + 1, 0);
  size_t next_insert = w.loaded;  // data[loaded..] is the insert pool
  const std::vector<size_t> by_extent = OrderByExtent(data, w.loaded);
  // `step` advances once per full cycle of the type's sweep values, so
  // every sweep value meets every stratum.
  auto stratified_query = [&](size_t step) {
    const size_t stratum = BitReverse(step % kStrata);
    const size_t lo = stratum * by_extent.size() / kStrata;
    const size_t hi = (stratum + 1) * by_extent.size() / kStrata;
    return by_extent[lo + rnd.Uniform(std::max<size_t>(1, hi - lo))];
  };
  for (size_t i = 0; i < count; i++) {
    Op op;
    op.type = w.pattern[i % w.pattern.size()];
    const size_t n = seen[static_cast<size_t>(op.type)]++;
    switch (op.type) {
      case OpType::kTRQ:
        TimeWindow(w.dataset, &rnd, Cycle(n, kTimeWindows), &op);
        break;
      case OpType::kSRQ:
        op.rect = SquareIn(w.dataset, &rnd, Cycle(n, kSpaceSides));
        break;
      case OpType::kSTRQ:
        // All 36 (time window, side) pairs in turn.
        TimeWindow(w.dataset, &rnd, Cycle(n, kTimeWindows), &op);
        op.rect = SquareIn(w.dataset, &rnd,
                           Cycle(n / std::size(kTimeWindows), kSpaceSides));
        break;
      case OpType::kIDT:
        if (next_insert > w.loaded) {
          // Reads beside writes: the object of the latest insert, over a
          // window around that trajectory's start.
          op.recent_oid = true;
          op.recent = next_insert - 1;
          const int64_t start = data[op.recent].start_time();
          op.ts = start - kIDTWindow / 2;
          op.te = start + kIDTWindow / 2;
        } else {
          op.oid = data[rnd.Uniform(w.loaded)].oid;
          TimeWindow(w.dataset, &rnd, kIDTWindow, &op);
        }
        break;
      case OpType::kThreshold:
        op.query = stratified_query(n);
        op.threshold = kThreshold;
        break;
      case OpType::kTopK:
        op.query = stratified_query(n / std::size(kTopK));
        op.k = Cycle(n, kTopK);
        break;
      case OpType::kInsert:
        if (next_insert >= data.size()) return ops;  // pool used up
        op.batch_begin = next_insert;
        op.batch_end = std::min(data.size(), next_insert + w.insert_batch);
        next_insert = op.batch_end;
        break;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace tman::perfbench
