#ifndef TMAN_PERFBENCH_ORACLE_H_
#define TMAN_PERFBENCH_ORACLE_H_

// Brute-force reference answers over the in-memory trajectories. Every
// benchmark run compares a seeded sample of its query results with these;
// a mismatch fails the run.

#include <string>
#include <unordered_map>
#include <vector>

#include "geo/geometry.h"
#include "traj/trajectory.h"
#include "workloads.h"

namespace tman::perfbench {

class Oracle {
 public:
  // `data` must outlive the oracle. The first `visible` trajectories of
  // `data` are the stored set a query saw (bulk-loaded prefix plus the
  // insert-pool prefix inserted before it).
  Oracle(const WorkloadSpec& workload,
         const std::vector<traj::Trajectory>& data);

  // Trajectory ids a set-valued query (TRQ, SRQ, STRQ, IDT, threshold
  // similarity) must return, sorted.
  std::vector<std::string> Expected(const Op& op, size_t visible) const;

  // Distances of the k nearest trajectories to the query (query excluded),
  // ascending.
  std::vector<double> ExpectedTopK(const Op& op, size_t visible) const;

  // Empty when `tids` is a correct answer to `op`; otherwise a description
  // of the mismatch. Set queries must match exactly; top-k answers are
  // compared by distance, so any tie order is accepted.
  std::string Check(const Op& op, const std::vector<std::string>& tids,
                    size_t visible) const;

  // Object id an IDT op targets (resolves ingest "recent object" reads).
  const std::string& OidOf(const Op& op) const;

 private:
  bool Matches(const Op& op, size_t i) const;
  double Distance(size_t query, size_t i) const;

  const WorkloadSpec& workload_;
  const std::vector<traj::Trajectory>& data_;
  std::vector<geo::MBR> mbrs_;
  std::unordered_map<std::string, size_t> index_of_;
};

// Distance between two rectangles: a lower bound on every point-to-point
// distance between trajectories inside them, hence on the Fréchet,
// Hausdorff and DTW distances.
double RectGap(const geo::MBR& a, const geo::MBR& b);

}  // namespace tman::perfbench

#endif  // TMAN_PERFBENCH_ORACLE_H_
