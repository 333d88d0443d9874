#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "geo/similarity.h"

namespace tman::perfbench {

double RectGap(const geo::MBR& a, const geo::MBR& b) {
  const double dx = std::max({0.0, a.min_x - b.max_x, b.min_x - a.max_x});
  const double dy = std::max({0.0, a.min_y - b.max_y, b.min_y - a.max_y});
  return std::sqrt(dx * dx + dy * dy);
}

Oracle::Oracle(const WorkloadSpec& workload,
               const std::vector<traj::Trajectory>& data)
    : workload_(workload), data_(data) {
  mbrs_.reserve(data.size());
  for (size_t i = 0; i < data.size(); i++) {
    mbrs_.push_back(data[i].ComputeMBR());
    index_of_.emplace(data[i].tid, i);
  }
}

const std::string& Oracle::OidOf(const Op& op) const {
  return op.recent_oid ? data_[op.recent].oid : op.oid;
}

double Oracle::Distance(size_t query, size_t i) const {
  return geo::ExactDistance(workload_.measure, data_[query].points,
                            data_[i].points);
}

bool Oracle::Matches(const Op& op, size_t i) const {
  const traj::Trajectory& t = data_[i];
  switch (op.type) {
    case OpType::kTRQ:
      return t.IntersectsTimeRange(op.ts, op.te);
    case OpType::kSRQ:
      return RectGap(mbrs_[i], op.rect) == 0 &&
             geo::PolylineIntersectsRect(t.points, op.rect);
    case OpType::kSTRQ:
      return t.IntersectsTimeRange(op.ts, op.te) &&
             RectGap(mbrs_[i], op.rect) == 0 &&
             geo::PolylineIntersectsRect(t.points, op.rect);
    case OpType::kIDT:
      return t.oid == OidOf(op) && t.IntersectsTimeRange(op.ts, op.te);
    case OpType::kThreshold:
      return RectGap(mbrs_[op.query], mbrs_[i]) <= op.threshold &&
             Distance(op.query, i) <= op.threshold;
    case OpType::kTopK:
    case OpType::kInsert:
      return false;
  }
  return false;
}

std::vector<std::string> Oracle::Expected(const Op& op, size_t visible) const {
  std::vector<std::string> tids;
  for (size_t i = 0; i < visible && i < data_.size(); i++) {
    if (Matches(op, i)) tids.push_back(data_[i].tid);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<double> Oracle::ExpectedTopK(const Op& op, size_t visible) const {
  // Exact k-NN by branch and bound: candidates in ascending order of the
  // rectangle gap (a lower bound), stopping once the bound exceeds the
  // k-th best exact distance found.
  visible = std::min(visible, data_.size());
  std::vector<std::pair<double, size_t>> order;
  order.reserve(visible);
  for (size_t i = 0; i < visible; i++) {
    if (data_[i].tid == data_[op.query].tid) continue;
    order.emplace_back(RectGap(mbrs_[op.query], mbrs_[i]), i);
  }
  std::sort(order.begin(), order.end());
  std::vector<double> best;  // ascending, at most k
  for (const auto& [bound, i] : order) {
    if (best.size() == op.k && bound > best.back()) break;
    const double d = Distance(op.query, i);
    if (best.size() == op.k && d >= best.back()) continue;
    best.insert(std::upper_bound(best.begin(), best.end(), d), d);
    if (best.size() > op.k) best.pop_back();
  }
  return best;
}

namespace {

std::string Describe(const Op& op) {
  return std::string(OpName(op.type)) + " op";
}

}  // namespace

std::string Oracle::Check(const Op& op, const std::vector<std::string>& tids,
                          size_t visible) const {
  if (op.type != OpType::kTopK) {
    std::vector<std::string> got = tids;
    std::sort(got.begin(), got.end());
    const std::vector<std::string> want = Expected(op, visible);
    if (got == want) return "";
    std::vector<std::string> missing, extra;
    std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                        std::back_inserter(missing));
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(extra));
    std::string msg = Describe(op) + ": expected " +
                      std::to_string(want.size()) + " ids, got " +
                      std::to_string(got.size());
    if (!missing.empty()) msg += "; missing e.g. " + missing.front();
    if (!extra.empty()) msg += "; unexpected e.g. " + extra.front();
    if (missing.empty() && extra.empty()) msg += "; duplicate ids";
    return msg;
  }

  // Top-k: the returned ids must be distinct stored trajectories other than
  // the query, and their distances must equal the k smallest distances.
  const std::vector<double> want = ExpectedTopK(op, visible);
  if (tids.size() != want.size()) {
    return Describe(op) + ": expected " + std::to_string(want.size()) +
           " results, got " + std::to_string(tids.size());
  }
  std::set<std::string> seen;
  std::vector<double> got;
  for (const std::string& tid : tids) {
    if (!seen.insert(tid).second) return Describe(op) + ": duplicate " + tid;
    if (tid == data_[op.query].tid) return Describe(op) + ": returned query";
    const auto it = index_of_.find(tid);
    if (it == index_of_.end() || it->second >= visible) {
      return Describe(op) + ": unknown id " + tid;
    }
    got.push_back(Distance(op.query, it->second));
  }
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < want.size(); i++) {
    if (std::fabs(got[i] - want[i]) > 1e-9 * std::max(1.0, want[i])) {
      return Describe(op) + ": rank " + std::to_string(i + 1) +
             " distance " + std::to_string(got[i]) + " != expected " +
             std::to_string(want[i]);
    }
  }
  return "";
}

}  // namespace tman::perfbench
