#ifndef TMAN_PERFBENCH_WORKLOADS_H_
#define TMAN_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads: dataset, TMan configuration and the seeded
// operation sequence each one runs.

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "geo/geometry.h"
#include "geo/similarity.h"
#include "traj/generator.h"
#include "traj/trajectory.h"

namespace tman::perfbench {

enum class OpType { kTRQ, kSRQ, kSTRQ, kIDT, kThreshold, kTopK, kInsert };

// Short name used in reports ("trq", "srq", ..., "insert").
const char* OpName(OpType type);
bool IsRead(OpType type);

struct Op {
  OpType type = OpType::kTRQ;
  int64_t ts = 0;  // TRQ / STRQ / IDT time window
  int64_t te = 0;
  geo::MBR rect;            // SRQ / STRQ window (lon/lat)
  std::string oid;          // IDT object (range workloads)
  size_t query = 0;         // similarity query: index into the loaded set
  double threshold = 0;     // threshold similarity
  size_t k = 0;             // top-k similarity
  size_t batch_begin = 0;   // insert: [begin, end) of the insert pool
  size_t batch_end = 0;
  // Ingest IDT reads name the object of the pool trajectory at this index
  // (the most recent insert when the op was generated) and take their
  // window around it.
  bool recent_oid = false;
  size_t recent = 0;
};

struct WorkloadSpec {
  std::string name;
  traj::DatasetSpec dataset;
  size_t trajectories = 0;  // generated per seed
  size_t loaded = 0;        // bulk-loaded prefix; the rest is the insert pool
  // Operation mix: the sequence repeats this pattern of types, so every
  // seed runs the same proportions.
  std::vector<OpType> pattern;
  size_t insert_batch = 0;  // trajectories per Insert call
  geo::SimilarityMeasure measure = geo::SimilarityMeasure::kFrechet;
};

bool HasInserts(const WorkloadSpec& w);

// Looks up a workload by name; false if unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* out);
std::vector<std::string> WorkloadNames();

// The paper configuration the benchmark runs TMan in (TShape spatial
// primary with the index cache, TR temporal secondary, genetic shape
// ordering, push-down). The benchmark keeps its own copy so a change to a
// library default shows up as a configuration change in its report.
core::TManOptions PaperOptions(const traj::DatasetSpec& spec);

// One line per knob, for the report.
std::string DescribeOptions(const core::TManOptions& options);

// Generates the workload's trajectories from `seed`.
std::vector<traj::Trajectory> GenerateData(const WorkloadSpec& w,
                                           uint64_t seed);

// The seeded operation sequence: `count` operations following the
// workload's pattern. Each query type steps through its sweep values from
// the paper (Figs. 17-21) in turn, so the sweep mix is the same for every
// seed; the seed places the windows and picks objects and query
// trajectories. Insert operations consume the insert pool in order and
// the sequence ends once it is used up, so no trajectory is ever inserted
// twice.
std::vector<Op> GenerateOps(const WorkloadSpec& w,
                            const std::vector<traj::Trajectory>& data,
                            uint64_t seed, size_t count);

}  // namespace tman::perfbench

#endif  // TMAN_PERFBENCH_WORKLOADS_H_
