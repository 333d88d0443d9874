// End-to-end TMan benchmark. One process runs one workload against a real
// core::TMan instance in the paper configuration:
//
//   tman_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir>
//
// --trace 0 measures end-to-end metrics through TMan's public query and
// insert API. --trace 1 runs the same operation sequence twice: once
// through the public API (the untraced reference for trace_overhead) and
// once replayed through the planner and executor that TMan exposes, with
// spans around each call and counters read from a metrics registry the
// benchmark hands to TMan. Both modes check a seeded sample of results
// against a brute-force oracle and exit non-zero on any mismatch. The last
// line of standard output is one JSON object with the run's verdict and
// metrics.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/filters.h"
#include "core/record.h"
#include "core/tman.h"
#include "harness.h"
#include "index/shape_encoding.h"
#include "index/tr_index.h"
#include "index/tshape_index.h"
#include "kvstore/version.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "workloads.h"

namespace tman::perfbench {
namespace {

// Operations in one generated sequence; read workloads cycle through it.
constexpr size_t kSequenceLength = 20000;
// Read operations run untimed before measuring, so caches hold the
// workload's working set.
constexpr size_t kWarmupOps = 48;
// Results of the first operations of each query type that the oracle
// checks (a seeded sample, since the sequence is seeded).
constexpr size_t kOracleSamplesPerType = 20;
// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value != "0";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1 || args->workload.empty() || args->seconds <= 0) {
    std::fprintf(stderr,
                 "usage: tman_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
    return false;
  }
  return true;
}

// A loaded TMan instance and the data behind it.
struct Instance {
  std::string dir;
  std::unique_ptr<core::TMan> tman;
  double setup_s = 0;
};

// Generates the data, opens TMan in `dir`, bulk-loads the loaded prefix,
// flushes and compacts: the set-up a user pays before the first query.
Status SetUp(const WorkloadSpec& w, uint64_t seed, const std::string& dir,
             obs::MetricsRegistry* registry,
             std::vector<traj::Trajectory>* data, Instance* inst) {
  const double start = NowMicros();
  *data = GenerateData(w, seed);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  core::TManOptions options = PaperOptions(w.dataset);
  options.kv.metrics = registry;
  Status s = core::TMan::Open(options, dir, &inst->tman);
  if (!s.ok()) return s;
  if (w.loaded == data->size()) {
    s = inst->tman->BulkLoad(*data);
  } else {
    s = inst->tman->BulkLoad(std::vector<traj::Trajectory>(
        data->begin(), data->begin() + static_cast<long>(w.loaded)));
  }
  if (s.ok()) s = inst->tman->Flush();
  // Finish the background compactions the load queued, so the timed loop
  // starts from the same LSM shape every run instead of racing them.
  if (s.ok()) s = inst->tman->CompactAll();
  inst->dir = dir;
  inst->setup_s = (NowMicros() - start) / 1e6;
  return s;
}

void TearDown(Instance* inst) {
  inst->tman.reset();
  std::filesystem::remove_all(inst->dir);
}

std::vector<traj::Trajectory> Batch(const std::vector<traj::Trajectory>& data,
                                    const Op& op) {
  return std::vector<traj::Trajectory>(
      data.begin() + static_cast<long>(op.batch_begin),
      data.begin() + static_cast<long>(op.batch_end));
}

// Runs one operation through TMan's public API.
Status RunPublic(core::TMan* tman, const WorkloadSpec& w,
                 const std::vector<traj::Trajectory>& data,
                 const Oracle& oracle, const Op& op,
                 std::vector<traj::Trajectory>* out) {
  switch (op.type) {
    case OpType::kTRQ:
      return tman->TemporalRangeQuery(op.ts, op.te, out);
    case OpType::kSRQ:
      return tman->SpatialRangeQuery(op.rect, out);
    case OpType::kSTRQ:
      return tman->SpatioTemporalRangeQuery(op.rect, op.ts, op.te, out);
    case OpType::kIDT:
      return tman->IDTemporalQuery(oracle.OidOf(op), op.ts, op.te, out);
    case OpType::kThreshold:
      return tman->ThresholdSimilarityQuery(data[op.query], w.measure,
                                            op.threshold, out);
    case OpType::kTopK:
      return tman->TopKSimilarityQuery(data[op.query], w.measure, op.k, out);
    case OpType::kInsert:
      return tman->Insert(Batch(data, op));
  }
  return Status::InvalidArgument("unknown op");
}

// Times the core sink the executor streams rows into (record decode and
// similarity refine). The cluster serializes sink calls, so the totals
// need no further synchronisation.
class TimedSink : public kv::RowSink {
 public:
  explicit TimedSink(kv::RowSink* inner) : inner_(inner) {}

  bool Accept(const Slice& key, const Slice& value) override {
    const double start = NowMicros();
    const bool more = inner_->Accept(key, value);
    if (first_us_ < 0) first_us_ = start;
    micros_ += NowMicros() - start;
    return more;
  }

  double micros() const { return micros_; }
  double first_us() const { return first_us_; }

 private:
  kv::RowSink* inner_;
  double micros_ = 0;
  double first_us_ = -1;
};

// Per-layer totals of the traced replay.
struct LayerTotals {
  uint64_t queries = 0;          // read operations
  uint64_t plans = 0;            // planner calls (top-k: one per round)
  uint64_t windows = 0;
  uint64_t elements_visited = 0;
  uint64_t shapes_checked = 0;
  uint64_t candidates = 0;
  uint64_t results = 0;
  uint64_t exact_distances = 0;
  uint64_t inserts = 0;
  uint64_t inserted_trajectories = 0;
  uint64_t reencode_inserts = 0;  // Insert calls that ran a re-encode
  double reencode_us = 0;
};

// Replays TMan's query path from the benchmark: the planner and executor
// TMan exposes, fed the same plans and sinks TMan's query methods build,
// with a span around each call.
class Replayer {
 public:
  Replayer(core::TMan* tman, const WorkloadSpec& w,
           const std::vector<traj::Trajectory>& data, const Oracle& oracle,
           SpanLog* spans, LayerTotals* totals)
      : tman_(tman),
        w_(w),
        data_(data),
        oracle_(oracle),
        spans_(spans),
        totals_(totals) {}

  Status Run(uint64_t id, const Op& op, std::vector<traj::Trajectory>* out) {
    const int64_t root = spans_->Begin(id, "op", -1);
    Status s;
    if (op.type == OpType::kInsert) {
      s = Insert(id, root, op);
    } else if (op.type == OpType::kTopK) {
      s = TopK(id, root, op, out);
    } else {
      s = Query(id, root, op, out);
    }
    spans_->End(root);
    if (IsRead(op.type)) {
      totals_->queries++;
      totals_->results += out->size();
    }
    return s;
  }

 private:
  Status Plan(uint64_t id, int64_t root, const Op& op, double radius,
              core::QueryPlan* plan) {
    const core::QueryPlanner* planner = tman_->planner();
    const int64_t span = spans_->Begin(id, "core.planner", root);
    Status s;
    switch (op.type) {
      case OpType::kTRQ:
        s = planner->PlanTemporalRange(op.ts, op.te, plan);
        break;
      case OpType::kSRQ:
        s = planner->PlanSpatialRange(op.rect, plan);
        break;
      case OpType::kSTRQ:
        s = planner->PlanSpatioTemporalRange(op.rect, op.ts, op.te, plan);
        break;
      case OpType::kIDT:
        s = planner->PlanIDTemporal(oracle_.OidOf(op), op.ts, op.te, plan);
        break;
      case OpType::kThreshold: {
        const traj::Trajectory& q = data_[op.query];
        s = planner->PlanSimilarityCandidates(
            q.ComputeMBR(), op.threshold,
            std::make_unique<core::SimilarityFilter>(
                geo::ExtractDPFeatures(q.points,
                                       tman_->options().max_dp_features),
                op.threshold),
            "similarity:threshold", plan);
        break;
      }
      case OpType::kTopK: {
        const geo::MBR qmbr = data_[op.query].ComputeMBR();
        s = planner->PlanSimilarityCandidates(
            qmbr, radius,
            std::make_unique<core::MBRDistanceFilter>(qmbr, radius),
            "similarity:topk", plan);
        break;
      }
      case OpType::kInsert:
        s = Status::InvalidArgument("inserts are not planned");
        break;
    }
    spans_->End(span);
    totals_->plans++;
    totals_->windows += plan->windows.size();
    totals_->elements_visited += plan->elements_visited;
    totals_->shapes_checked += plan->shapes_checked;
    return s;
  }

  Status Execute(uint64_t id, int64_t root, const core::QueryPlan& plan,
                 kv::RowSink* sink, core::QueryStats* stats) {
    TimedSink timed(sink);
    const int64_t span = spans_->Begin(id, "core.executor", root);
    Status s = tman_->executor()->Execute(plan, &timed, stats);
    spans_->End(span);
    if (timed.first_us() >= 0) {
      // Sink calls are serialized, so their summed time is laid out as one
      // span from the first call.
      spans_->Add(id, "core.sink", timed.first_us(),
                  timed.first_us() + timed.micros(), span);
    }
    return s;
  }

  Status Query(uint64_t id, int64_t root, const Op& op,
               std::vector<traj::Trajectory>* out) {
    core::QueryPlan plan;
    Status s = Plan(id, root, op, 0, &plan);
    if (!s.ok()) return s;
    core::QueryStats stats;
    if (op.type == OpType::kThreshold) {
      core::ThresholdVerifySink sink(&data_[op.query], w_.measure,
                                     op.threshold, out, &stats);
      s = Execute(id, root, plan, &sink, &stats);
      if (s.ok()) s = sink.status();
    } else {
      core::DecodeTrajectoriesSink sink(out);
      s = Execute(id, root, plan, &sink, &stats);
      if (s.ok()) s = sink.status();
    }
    totals_->candidates += stats.candidates;
    totals_->exact_distances += stats.exact_distance_computations;
    return s;
  }

  // The expanding-radius search of TMan::TopKSimilarityQuery.
  Status TopK(uint64_t id, int64_t root, const Op& op,
              std::vector<traj::Trajectory>* out) {
    if (op.k == 0) return Status::OK();
    const core::TManOptions& o = tman_->options();
    const traj::Trajectory& query = data_[op.query];
    core::QueryStats stats;
    core::TopKSink sink(&query, w_.measure, op.k,
                        geo::ExtractDPFeatures(query.points, o.max_dp_features),
                        &stats);
    const double extent = std::max(o.bounds.width(), o.bounds.height());
    double radius = extent / 512.0;
    double previous_radius = 0;
    Status s;
    while (true) {
      core::QueryPlan plan;
      s = Plan(id, root, op, radius, &plan);
      if (!s.ok()) break;
      sink.set_cutoff(previous_radius);
      s = Execute(id, root, plan, &sink, &stats);
      if (!s.ok()) break;
      if (sink.Full() && sink.KthBound() <= radius) break;
      if (radius >= 2.0 * extent) break;
      previous_radius = radius;
      radius *= 2;
    }
    std::vector<traj::Trajectory> results = sink.TakeResults();
    std::move(results.begin(), results.end(), std::back_inserter(*out));
    totals_->candidates += stats.candidates;
    totals_->exact_distances += stats.exact_distance_computations;
    return s;
  }

  Status Insert(uint64_t id, int64_t root, const Op& op) {
    const uint64_t reencodes = tman_->reencode_count();
    const std::vector<traj::Trajectory> batch = Batch(data_, op);
    const int64_t span = spans_->Begin(id, "core.insert", root);
    Status s = tman_->Insert(batch);
    spans_->End(span);
    const Span& sp = spans_->spans()[static_cast<size_t>(span)];
    totals_->inserts++;
    totals_->inserted_trajectories += batch.size();
    if (tman_->reencode_count() != reencodes) {
      totals_->reencode_inserts++;
      totals_->reencode_us += sp.end_us - sp.start_us;
    }
    return s;
  }

  core::TMan* tman_;
  const WorkloadSpec& w_;
  const std::vector<traj::Trajectory>& data_;
  const Oracle& oracle_;
  SpanLog* spans_;
  LayerTotals* totals_;
};

// Results kept for the oracle: the op, its ids and the stored set it saw.
struct Sample {
  size_t op = 0;
  std::vector<std::string> tids;
  size_t visible = 0;
};

// Outcome of one pass over the operation sequence.
struct PassResult {
  size_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  std::vector<double> latency_ms;  // all operations
  std::map<OpType, std::vector<double>> by_type;
  std::vector<Sample> samples;
  size_t visible = 0;  // stored trajectories at the end of the pass
  std::string first_error;
};

using OpRunner = std::function<Status(size_t index, const Op& op,
                                      std::vector<traj::Trajectory>* out)>;

// Runs read operations from the tail of the sequence, untimed. The timed
// pass of a read workload starts at the head and never gets that far, so
// no timed operation repeats a warm-up one and finds its rows cached.
void WarmUp(const std::vector<Op>& ops, const OpRunner& run) {
  size_t done = 0;
  for (size_t i = ops.size(); i-- > 0 && done < kWarmupOps;) {
    if (!IsRead(ops[i].type) || ops[i].recent_oid) continue;
    std::vector<traj::Trajectory> out;
    run(i, ops[i], &out);
    done++;
  }
}

// Closed loop, one client: each operation starts when the previous one
// returns. Stops after `seconds`, after `max_ops`, or when an ingest
// sequence is used up. Read sequences cycle.
PassResult RunPass(const WorkloadSpec& w, const std::vector<Op>& ops,
                   double seconds, size_t max_ops, const OpRunner& run) {
  PassResult r;
  r.visible = w.loaded;
  const bool cycles = !HasInserts(w);
  std::map<OpType, size_t> sampled;
  const double start = NowMicros();
  const double deadline = start + seconds * 1e6;
  for (size_t i = 0; i < max_ops; i++) {
    if (!cycles && i >= ops.size()) break;
    const double t0 = NowMicros();
    if (t0 >= deadline) break;
    const Op& op = ops[i % ops.size()];
    std::vector<traj::Trajectory> out;
    const Status s = run(i, op, &out);
    const double ms = (NowMicros() - t0) / 1000.0;
    r.ops++;
    r.latency_ms.push_back(ms);
    r.by_type[op.type].push_back(ms);
    if (!s.ok()) {
      r.failed++;
      if (r.first_error.empty()) {
        r.first_error = std::string(OpName(op.type)) + ": " + s.ToString();
      }
    }
    if (op.type == OpType::kInsert && s.ok()) r.visible = op.batch_end;
    if (IsRead(op.type) && i < ops.size() &&
        sampled[op.type] < kOracleSamplesPerType) {
      sampled[op.type]++;
      Sample sample{i, {}, r.visible};
      for (const traj::Trajectory& t : out) sample.tids.push_back(t.tid);
      r.samples.push_back(std::move(sample));
    }
  }
  r.wall_s = (NowMicros() - start) / 1e6;
  return r;
}

// Oracle verdict over a pass: sampled query results, and after ingest
// every inserted trajectory reachable by IDT plus an exact total count.
std::vector<std::string> Verify(const WorkloadSpec& w,
                                const std::vector<traj::Trajectory>& data,
                                const std::vector<Op>& ops,
                                const Oracle& oracle, const PassResult& pass,
                                core::TMan* tman) {
  // The brute-force checks are independent and read-only, so they share
  // the machine's cores once measuring is over.
  std::vector<std::string> sample_errors(pass.samples.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < threads; t++) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < pass.samples.size(); i = next++) {
        const Sample& sample = pass.samples[i];
        const std::string e =
            oracle.Check(ops[sample.op], sample.tids, sample.visible);
        if (!e.empty()) {
          sample_errors[i] = "op " + std::to_string(sample.op) + " " + e;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  std::vector<std::string> errors;
  for (std::string& e : sample_errors) {
    if (!e.empty()) errors.push_back(std::move(e));
  }
  if (!HasInserts(w)) return errors;

  // Ingest: every inserted trajectory comes back from IDT over the whole
  // horizon of its object, and the total count is loaded + inserted.
  const int64_t lo = w.dataset.t0 - 1;
  const int64_t hi = w.dataset.t0 + w.dataset.horizon_seconds +
                     w.dataset.long_max + 1;
  std::map<std::string, std::set<std::string>> expected_by_oid;
  for (size_t i = w.loaded; i < pass.visible; i++) {
    expected_by_oid[data[i].oid].insert(data[i].tid);
  }
  for (const auto& [oid, tids] : expected_by_oid) {
    std::vector<traj::Trajectory> out;
    Status s = tman->IDTemporalQuery(oid, lo, hi, &out);
    if (!s.ok()) {
      errors.push_back("final IDT " + oid + ": " + s.ToString());
      continue;
    }
    std::set<std::string> got;
    for (const traj::Trajectory& t : out) got.insert(t.tid);
    for (const std::string& tid : tids) {
      if (got.count(tid) == 0) {
        errors.push_back("inserted " + tid + " missing from IDT " + oid);
        break;
      }
    }
  }
  uint64_t count = 0;
  Status s = tman->TemporalRangeCount(lo, hi, &count);
  if (!s.ok() || count != pass.visible) {
    errors.push_back("TemporalRangeCount " + std::to_string(count) +
                     " != stored " + std::to_string(pass.visible) +
                     (s.ok() ? "" : " (" + s.ToString() + ")"));
  }
  return errors;
}

// Bytes of user data TMan writes for one trajectory: the primary row plus
// the TR and IDT secondary rows (whose values are the primary key).
uint64_t UserBytes(const traj::Trajectory& t, size_t max_dp_features) {
  std::string record;
  core::EncodeRecord(t, max_dp_features, &record);
  const uint64_t pk = 1 + 8 + t.tid.size();
  const uint64_t tr_key = 1 + 8 + t.tid.size();
  const uint64_t idt_key = 1 + t.oid.size() + 1 + 8 + t.tid.size();
  return (pk + record.size()) + (tr_key + pk) + (idt_key + pk);
}

uint64_t StoredPoints(const std::vector<traj::Trajectory>& data,
                      size_t visible) {
  uint64_t points = 0;
  for (size_t i = 0; i < visible; i++) points += data[i].points.size();
  return points;
}

const std::vector<std::string>& CounterNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "tman_index_cache_hits_total",
        "tman_index_cache_misses_total",
        "tman_index_cache_redis_loads_total",
        "tman_cluster_rows_streamed_total",
        "tman_kv_block_cache_hits_total",
        "tman_kv_block_cache_misses_total",
        "tman_kv_bloom_checks_total",
        "tman_kv_bloom_useful_total",
        "tman_kv_multiscan_seeks_saved_total",
        "tman_kv_flushes_total",
        "tman_kv_compaction_bytes_written_total",
        "tman_kv_stall_micros_total",
        "tman_core_reencodes_total",
        "tman_core_rows_rewritten_total",
    };
    for (int l = 0; l < kv::GetPerf::kMaxLevels; l++) {
      n.push_back("tman_kv_sstable_reads_total{level=\"" + std::to_string(l) +
                  "\"}");
    }
    return n;
  }();
  return names;
}

const std::vector<std::string>& HistogramNames() {
  static const std::vector<std::string> names = {
      "tman_kv_write_micros", "tman_cluster_scan_wait_micros",
      "tman_cluster_scan_fanout_regions"};
  return names;
}

// Module costs TMan's Insert and BulkLoad pay internally, timed by calling
// the index module with the same inputs: TShape + TR encoding per
// trajectory, and shape-order optimisation per enlarged element.
void TimeIndexModule(const core::TManOptions& o,
                     const std::vector<traj::Trajectory>& data, size_t loaded,
                     double* encode_ms_per_k, double* shape_order_ms_per_k) {
  const index::TShapeIndex tshape(o.tshape);
  const index::TRIndex tr(o.tr);
  std::map<uint64_t, std::vector<uint32_t>> shapes_by_element;
  double encode_us = 0;
  for (size_t i = 0; i < loaded; i++) {
    const traj::Trajectory& t = data[i];
    std::vector<geo::TimedPoint> norm;
    norm.reserve(t.points.size());
    for (const geo::TimedPoint& p : t.points) {
      const geo::Point np = o.bounds.Normalize(geo::Point{p.x, p.y});
      norm.push_back(geo::TimedPoint{np.x, np.y, p.t});
    }
    const double start = NowMicros();
    const index::TShapeEncoding enc = tshape.Encode(norm);
    const uint64_t tv = tr.Encode(t.start_time(), t.end_time());
    encode_us += NowMicros() - start;
    (void)tv;
    std::vector<uint32_t>& shapes = shapes_by_element[enc.quad_code];
    if (std::find(shapes.begin(), shapes.end(), enc.shape) == shapes.end()) {
      shapes.push_back(enc.shape);
    }
  }
  const double start = NowMicros();
  for (const auto& [element, shapes] : shapes_by_element) {
    (void)element;
    index::OptimizeShapeOrder(shapes, o.encoding, o.genetic);
  }
  const double order_us = NowMicros() - start;
  const double k = static_cast<double>(loaded) / 1000.0;
  *encode_ms_per_k = Ratio(encode_us / 1000.0, k);
  *shape_order_ms_per_k = Ratio(order_us / 1000.0, k);
}

// What a run reports: the metrics BENCHMARK.json lists (the JSON result),
// figures printed beside them, and every check that failed.
struct Report {
  std::vector<Metric> gated;
  std::vector<Metric> extra;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Gated(const std::string& name, double value, const std::string& unit,
             uint64_t samples) {
    Add(&gated, name, value, unit, samples);
  }
  void Extra(const std::string& name, double value, const std::string& unit,
             uint64_t samples) {
    Add(&extra, name, value, unit, samples);
  }

 private:
  static void Add(std::vector<Metric>* to, const std::string& name,
                  double value, const std::string& unit, uint64_t samples) {
    to->push_back(Metric{name, std::isfinite(value) ? value : 0, unit,
                         samples});
  }
};

// The highest of p99 and p90 that has kMinTailSamples samples above it,
// named after it; nothing when neither has.
void AddTail(Report* r, const std::string& prefix,
             const std::vector<double>& ms) {
  for (const int p : {99, 90}) {
    double tail = 0;
    if (TailPercentile(ms, p, &tail)) {
      r->Extra(prefix + "_p" + std::to_string(p) + "_ms", tail, "ms",
               ms.size());
      return;
    }
  }
}

// --trace 0: end-to-end metrics of the untraced pass.
void EndToEnd(const WorkloadSpec& w, const core::TManOptions& paper,
              const std::vector<traj::Trajectory>& data,
              const std::vector<double>& setup_s, const PassResult& pass,
              core::TMan* tman, Report* r) {
  // Storage is measured on a fully compacted store. Read-only workloads
  // are still in the compacted state their set-up left.
  if (HasInserts(w)) {
    Status s = tman->Flush();
    if (s.ok()) s = tman->CompactAll();
    if (!s.ok()) r->errors.push_back("final compaction: " + s.ToString());
  }
  const double ops = static_cast<double>(pass.ops);
  r->Gated("setup_s", Percentile(setup_s, 50), "s", setup_s.size());
  r->Gated("ops_per_s", Ratio(ops, pass.wall_s), "1/s", pass.ops);
  r->Gated("bytes_per_point",
           Ratio(static_cast<double>(tman->StorageBytes()),
                 static_cast<double>(StoredPoints(data, pass.visible))),
           "B", pass.visible);
  r->Gated("peak_rss_mb", PeakRssMiB(), "MiB", 0);

  // Latency percentiles are printed, not gated: on a shared host their
  // run-to-run spread exceeds the largest regression bound BENCHMARK.json
  // may set (see perfbench/README.md).
  r->Extra("op_p50_ms", Percentile(pass.latency_ms, 50), "ms", pass.ops);
  AddTail(r, "op", pass.latency_ms);
  for (const auto& [type, ms] : pass.by_type) {
    r->Extra(std::string(OpName(type)) + "_p50_ms", Percentile(ms, 50), "ms",
             ms.size());
    if (type == OpType::kInsert) AddTail(r, OpName(type), ms);
  }
  r->Extra("op_error_ratio", Ratio(static_cast<double>(pass.failed), ops),
           "ratio", pass.ops);
  // Working set against the caches that serve it: the primary table and
  // the block caches of its regions (one per region store).
  r->Extra("primary_table_mb",
           static_cast<double>(tman->primary_table()->TotalBytes()) / 1048576,
           "MiB", 0);
  r->Extra("primary_block_cache_mb",
           static_cast<double>(paper.num_shards) *
               static_cast<double>(paper.kv.block_cache_bytes) / 1048576,
           "MiB", 0);
}

// Write-path metrics of the traced replay, from the registry deltas and
// the user bytes TMan wrote: the rows of the inserted trajectories.
void WritePath(const WorkloadSpec& w, const core::TManOptions& paper,
               const std::vector<traj::Trajectory>& data,
               const PassResult& traced, const LayerTotals& t,
               const RegistrySnapshot& before, const RegistrySnapshot& after,
               Report* r) {
  auto delta = [&](const std::string& name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  const double inserts = static_cast<double>(t.inserts);
  uint64_t user_bytes = 0;
  for (size_t i = w.loaded; i < traced.visible; i++) {
    user_bytes += UserBytes(data[i], paper.max_dp_features);
  }
  const double flushes = delta("tman_kv_flushes_total");
  r->Extra("kv.write_ms",
           Ratio(static_cast<double>(
                     HistSumDelta(before, after, "tman_kv_write_micros")) /
                     1000,
                 inserts),
           "ms/insert", t.inserts);
  r->Extra("kv.flushes",
           Ratio(flushes, static_cast<double>(t.inserted_trajectories) / 1000),
           "1/ktraj", static_cast<uint64_t>(flushes));
  r->Extra("kv.flush_fill_ratio",
           Ratio(Ratio(static_cast<double>(user_bytes), flushes),
                 static_cast<double>(paper.kv.write_buffer_size)),
           "ratio", static_cast<uint64_t>(flushes));
  r->Extra("kv.compaction_bytes_per_user_byte",
           Ratio(delta("tman_kv_compaction_bytes_written_total"),
                 static_cast<double>(user_bytes)),
           "ratio", user_bytes);
  r->Extra("kv.stall_ms",
           Ratio(delta("tman_kv_stall_micros_total") / 1000, inserts),
           "ms/insert", t.inserts);

  r->Extra("ingest.reencodes", delta("tman_core_reencodes_total"), "count",
           t.inserts);
  r->Extra("ingest.rows_rewritten", delta("tman_core_rows_rewritten_total"),
           "count", t.inserts);
  r->Extra("ingest.reencode_ms",
           Ratio(t.reencode_us / 1000, static_cast<double>(t.reencode_inserts)),
           "ms/reencode", t.reencode_inserts);
}

// --trace 1: per-layer metrics of the traced replay, from its layer
// totals, its spans and the registry deltas around it. `untraced` is the
// public-API pass over the same operations.
void PerLayer(const WorkloadSpec& w, const core::TManOptions& paper,
              const std::vector<traj::Trajectory>& data,
              const PassResult& untraced, const PassResult& traced,
              const LayerTotals& t, const SpanLog& spans,
              const RegistrySnapshot& before, const RegistrySnapshot& after,
              Report* r) {
  auto delta = [&](const std::string& name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  const double queries = static_cast<double>(t.queries);
  const double ops = static_cast<double>(traced.ops);

  // Layer times are span self times: a span's duration minus its children's.
  const std::map<std::string, double> self = spans.SelfMicros();
  auto self_ms = [&](const std::string& layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second / 1000;
  };
  r->Gated("planner.plan_ms", Ratio(self_ms("core.planner"), queries),
           "ms/query", t.plans);
  r->Gated("planner.windows_per_query",
           Ratio(static_cast<double>(t.windows), queries), "count/query",
           t.plans);
  r->Gated("planner.elements_visited_per_query",
           Ratio(static_cast<double>(t.elements_visited), queries),
           "count/query", t.plans);
  r->Gated("planner.shapes_checked_per_query",
           Ratio(static_cast<double>(t.shapes_checked), queries),
           "count/query", t.plans);

  const double hits = delta("tman_index_cache_hits_total");
  const double misses = delta("tman_index_cache_misses_total");
  r->Gated("index_cache.hit_ratio", Ratio(hits, hits + misses), "ratio",
           static_cast<uint64_t>(hits + misses));
  r->Gated("index_cache.redis_loads",
           Ratio(delta("tman_index_cache_redis_loads_total"), ops), "count/op",
           traced.ops);

  r->Gated("executor.scan_ms", Ratio(self_ms("core.executor"), queries),
           "ms/query", t.queries);
  r->Gated("executor.sink_ms", Ratio(self_ms("core.sink"), queries),
           "ms/query", t.queries);
  r->Gated("executor.candidates_per_result",
           Ratio(static_cast<double>(t.candidates),
                 static_cast<double>(t.results)),
           "ratio", t.results);
  r->Gated("geo.exact_distances_per_query",
           Ratio(static_cast<double>(t.exact_distances), queries),
           "count/query", t.queries);

  const std::string fanout = "tman_cluster_scan_fanout_regions";
  r->Gated("cluster.scan_wait_ms",
           Ratio(static_cast<double>(HistSumDelta(
                     before, after, "tman_cluster_scan_wait_micros")) /
                     1000,
                 queries),
           "ms/query", t.queries);
  r->Gated("cluster.fanout_regions",
           Ratio(static_cast<double>(HistSumDelta(before, after, fanout)),
                 static_cast<double>(HistCountDelta(before, after, fanout))),
           "regions/scan", HistCountDelta(before, after, fanout));
  r->Gated("cluster.rows_streamed",
           Ratio(delta("tman_cluster_rows_streamed_total"), queries),
           "rows/query", t.queries);

  const double block_hits = delta("tman_kv_block_cache_hits_total");
  const double block_misses = delta("tman_kv_block_cache_misses_total");
  double sstable_reads = 0;
  for (int l = 0; l < kv::GetPerf::kMaxLevels; l++) {
    sstable_reads += delta("tman_kv_sstable_reads_total{level=\"" +
                           std::to_string(l) + "\"}");
  }
  const double bloom_checks = delta("tman_kv_bloom_checks_total");
  r->Gated("kv.block_cache_hit_ratio",
           Ratio(block_hits, block_hits + block_misses), "ratio",
           static_cast<uint64_t>(block_hits + block_misses));
  r->Gated("kv.sstable_reads_per_query", Ratio(sstable_reads, queries),
           "count/query", t.queries);
  // Only point reads consult the blooms; of the listed workloads just
  // range_tdrive's IDT makes them, and none is useful there.
  r->Extra("kv.bloom_useful_ratio",
           Ratio(delta("tman_kv_bloom_useful_total"), bloom_checks), "ratio",
           static_cast<uint64_t>(bloom_checks));
  r->Gated("kv.multiscan_seeks_saved",
           Ratio(delta("tman_kv_multiscan_seeks_saved_total"), queries),
           "count/query", t.queries);

  // Printed but left out of the JSON result: only ingest_tdrive, which
  // BENCHMARK.json does not list, writes after set-up.
  if (HasInserts(w)) WritePath(w, paper, data, traced, t, before, after, r);

  double encode_ms = 0;
  double shape_order_ms = 0;
  TimeIndexModule(paper, data, w.loaded, &encode_ms, &shape_order_ms);
  r->Gated("index.encode_ms", encode_ms, "ms/ktraj", w.loaded);
  r->Gated("index.shape_order_ms", shape_order_ms, "ms/ktraj", w.loaded);

  // Operation time no layer span accounts for.
  r->Gated("span.unattributed_share",
           Ratio(self_ms("op") * 1000, spans.RootMicros()), "ratio",
           traced.ops);

  // Both rates count operations over the time spent inside them, so their
  // ratio is the cost of the spans and wrappers alone.
  const double traced_rate = Ratio(ops, spans.RootMicros() / 1e6);
  const double untraced_rate =
      Ratio(static_cast<double>(untraced.ops),
            std::accumulate(untraced.latency_ms.begin(),
                            untraced.latency_ms.end(), 0.0) /
                1000);
  r->Gated("trace_overhead", Ratio(traced_rate, untraced_rate), "ratio",
           traced.ops);
  r->Extra("untraced_ops_per_s", untraced_rate, "1/s", untraced.ops);
  r->Extra("traced_ops_per_s", traced_rate, "1/s", traced.ops);
}

void PrintMetrics(const std::string& title, const std::vector<Metric>& m) {
  std::printf("== %s\n", title.c_str());
  for (const Metric& x : m) {
    std::printf("  %-36s %14.6g %-12s", x.name.c_str(), x.value,
                x.unit.c_str());
    if (x.samples > 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(x.samples));
    }
    std::printf("\n");
  }
}

int SetUpFailed(const Status& s) {
  std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
  return 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  WorkloadSpec w;
  if (!FindWorkload(args.workload, &w)) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const core::TManOptions paper = PaperOptions(w.dataset);
  std::printf("workload %s seed %llu seconds %.3g trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("dataset %s trajectories=%zu loaded=%zu insert_batch=%zu\n",
              w.dataset.name.c_str(), w.trajectories, w.loaded,
              w.insert_batch);
  std::printf("config %s\n", DescribeOptions(paper).c_str());

  const double run_start = NowMicros();
  const std::string db_dir = args.work_dir + "/db";
  std::vector<traj::Trajectory> data;
  Instance inst;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetups); i++) {
    if (i > 0) TearDown(&inst);
    Status s = SetUp(w, args.seed, db_dir, nullptr, &data, &inst);
    if (!s.ok()) return SetUpFailed(s);
    setup_s.push_back(inst.setup_s);
  }
  const Oracle oracle(w, data);
  const std::vector<Op> ops = GenerateOps(w, data, args.seed, kSequenceLength);

  // The untraced pass through the public API: the whole measurement with
  // --trace 0, the reference for trace_overhead with --trace 1.
  auto run_public = [&](size_t, const Op& op,
                        std::vector<traj::Trajectory>* out) {
    return RunPublic(inst.tman.get(), w, data, oracle, op, out);
  };
  const double warmup_start = NowMicros();
  WarmUp(ops, run_public);
  const double measure_start = NowMicros();
  const PassResult pass = RunPass(
      w, ops, args.trace ? args.seconds / 2 : args.seconds, SIZE_MAX,
      run_public);
  const double verify_start = NowMicros();
  Report report;
  report.errors = Verify(w, data, ops, oracle, pass, inst.tman.get());
  report.attempted = pass.ops;
  report.failed = pass.failed;
  std::printf("phases setup=%.2fs warmup=%.2fs measure=%.2fs verify=%.2fs\n",
              (warmup_start - run_start) / 1e6,
              (measure_start - warmup_start) / 1e6,
              (verify_start - measure_start) / 1e6,
              (NowMicros() - verify_start) / 1e6);

  if (!args.trace) {
    EndToEnd(w, paper, data, setup_s, pass, inst.tman.get(), &report);
    TearDown(&inst);
  } else {
    TearDown(&inst);
    // Replay of the same operations on a fresh instance that records into
    // the benchmark's registry.
    obs::MetricsRegistry registry;
    Instance traced;
    Status s = SetUp(w, args.seed, db_dir, &registry, &data, &traced);
    if (!s.ok()) return SetUpFailed(s);
    SpanLog spans;
    LayerTotals totals;
    Replayer replayer(traced.tman.get(), w, data, oracle, &spans, &totals);
    WarmUp(ops, [&](size_t, const Op& op, std::vector<traj::Trajectory>* out) {
      return RunPublic(traced.tman.get(), w, data, oracle, op, out);
    });
    const RegistrySnapshot before =
        RegistrySnapshot::Take(&registry, CounterNames(), HistogramNames());
    const PassResult tpass = RunPass(
        w, ops, /*seconds=*/1e9, pass.ops,
        [&](size_t index, const Op& op, std::vector<traj::Trajectory>* out) {
          return replayer.Run(index, op, out);
        });
    const RegistrySnapshot after =
        RegistrySnapshot::Take(&registry, CounterNames(), HistogramNames());
    for (const std::string& e :
         Verify(w, data, ops, oracle, tpass, traced.tman.get())) {
      report.errors.push_back("traced " + e);
    }
    report.attempted += tpass.ops;
    report.failed += tpass.failed;
    PerLayer(w, paper, data, pass, tpass, totals, spans, before, after,
             &report);
    const std::string span_path = args.work_dir + "/spans-" + w.name + "-" +
                                  std::to_string(args.seed) + ".jsonl";
    if (spans.WriteJsonLines(span_path)) {
      std::printf("spans %s (%zu spans)\n", span_path.c_str(),
                  spans.spans().size());
    } else {
      report.errors.push_back("cannot write " + span_path);
    }
    TearDown(&traced);
  }

  PrintMetrics(args.trace ? "per-layer metrics" : "end-to-end metrics",
               report.gated);
  PrintMetrics("also measured", report.extra);
  if (!pass.first_error.empty()) {
    std::printf("first failed operation: %s\n", pass.first_error.c_str());
  }
  for (size_t i = 0; i < report.errors.size() && i < 10; i++) {
    std::printf("CHECK FAILED: %s\n", report.errors[i].c_str());
  }
  const bool correct = report.errors.empty() && report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(report.gated).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tman::perfbench

int main(int argc, char** argv) { return tman::perfbench::Main(argc, argv); }
