#include "geo/similarity.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tman::geo {

namespace {

double PointToRectDistance(const Point& p, const MBR& r) {
  const double dx = std::max({0.0, r.min_x - p.x, p.x - r.max_x});
  const double dy = std::max({0.0, r.min_y - p.y, p.y - r.max_y});
  return std::sqrt(dx * dx + dy * dy);
}

// Whether `d` lies past a caller's rejection bound.
bool PastBound(double d, double bound, bool strict) {
  return strict ? d > bound : d >= bound;
}

double SquaredGap(const TimedPoint& p, const TimedPoint& q) {
  return SquaredDistance(Point{p.x, p.y}, Point{q.x, q.y});
}

// The DP runs on squared point distances and takes one sqrt at the end:
// sqrt is monotone and correctly rounded, so the max/min of square roots
// equals the square root of the max/min of squares bit for bit. Every
// coupling passes through every row and a Fréchet value never falls along
// it, so a row whose smallest cell is past the bound ends the search.
double FrechetBounded(const std::vector<TimedPoint>& a,
                      const std::vector<TimedPoint>& b, double bound,
                      bool strict) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 1e300;

  // Rolling 1-D dynamic program over the coupling matrix.
  std::vector<double> prev(m), curr(m);
  prev[0] = SquaredGap(a[0], b[0]);
  for (size_t j = 1; j < m; j++) {
    prev[j] = std::max(prev[j - 1], SquaredGap(a[0], b[j]));
  }
  double row_min = std::sqrt(prev[0]);  // row 0 never decreases
  if (PastBound(row_min, bound, strict)) return row_min;
  for (size_t i = 1; i < n; i++) {
    curr[0] = std::max(prev[0], SquaredGap(a[i], b[0]));
    double row_min_sq = curr[0];
    for (size_t j = 1; j < m; j++) {
      const double reach = std::min({prev[j], prev[j - 1], curr[j - 1]});
      curr[j] = std::max(reach, SquaredGap(a[i], b[j]));
      row_min_sq = std::min(row_min_sq, curr[j]);
    }
    std::swap(prev, curr);
    row_min = std::sqrt(row_min_sq);
    if (PastBound(row_min, bound, strict)) return row_min;
  }
  return std::sqrt(prev[m - 1]);
}

// Same abandon rule as Fréchet: every warping path crosses every row and
// adding non-negative costs never lowers a float sum.
double DTWBounded(const std::vector<TimedPoint>& a,
                  const std::vector<TimedPoint>& b, double bound,
                  bool strict) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 1e300;

  std::vector<double> prev(m), curr(m);
  auto d = [&](size_t i, size_t j) {
    return Distance(Point{a[i].x, a[i].y}, Point{b[j].x, b[j].y});
  };
  prev[0] = d(0, 0);
  for (size_t j = 1; j < m; j++) prev[j] = prev[j - 1] + d(0, j);
  if (PastBound(prev[0], bound, strict)) return prev[0];  // row 0 grows
  for (size_t i = 1; i < n; i++) {
    curr[0] = prev[0] + d(i, 0);
    double row_min = curr[0];
    for (size_t j = 1; j < m; j++) {
      curr[j] = std::min({prev[j], prev[j - 1], curr[j - 1]}) + d(i, j);
      row_min = std::min(row_min, curr[j]);
    }
    std::swap(prev, curr);
    if (PastBound(row_min, bound, strict)) return row_min;
  }
  return prev[m - 1];
}

// The result is a running maximum, so it is past the bound as soon as any
// directed point distance is.
double HausdorffBounded(const std::vector<TimedPoint>& a,
                        const std::vector<TimedPoint>& b, double bound,
                        bool strict) {
  if (a.empty() || b.empty()) return 1e300;
  double result = 0;
  auto directed = [&](const std::vector<TimedPoint>& from,
                      const std::vector<TimedPoint>& to) {
    for (const TimedPoint& p : from) {
      double best = 1e300;
      for (const TimedPoint& q : to) {
        const double d = Distance(Point{p.x, p.y}, Point{q.x, q.y});
        if (d < best) best = d;
        if (best == 0) break;
      }
      result = std::max(result, best);
      if (PastBound(result, bound, strict)) return false;
    }
    return true;
  };
  if (directed(a, b)) directed(b, a);
  return result;
}

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

}  // namespace

double DiscreteFrechet(const std::vector<TimedPoint>& a,
                       const std::vector<TimedPoint>& b) {
  return FrechetBounded(a, b, kUnbounded, true);
}

double DTWDistance(const std::vector<TimedPoint>& a,
                   const std::vector<TimedPoint>& b) {
  return DTWBounded(a, b, kUnbounded, true);
}

double HausdorffDistance(const std::vector<TimedPoint>& a,
                         const std::vector<TimedPoint>& b) {
  return HausdorffBounded(a, b, kUnbounded, true);
}

double ExactDistance(SimilarityMeasure measure,
                     const std::vector<TimedPoint>& a,
                     const std::vector<TimedPoint>& b) {
  return ExactDistanceBounded(measure, a, b, kUnbounded, true);
}

double ExactDistanceBounded(SimilarityMeasure measure,
                            const std::vector<TimedPoint>& a,
                            const std::vector<TimedPoint>& b, double bound,
                            bool strict) {
  switch (measure) {
    case SimilarityMeasure::kFrechet:
      return FrechetBounded(a, b, bound, strict);
    case SimilarityMeasure::kDTW:
      return DTWBounded(a, b, bound, strict);
    case SimilarityMeasure::kHausdorff:
      return HausdorffBounded(a, b, bound, strict);
  }
  return 1e300;
}

double MBRLowerBound(const MBR& a, const MBR& b) {
  return std::sqrt(a.MinSquaredDistance(b));
}

double DPFeatureLowerBound(const DPFeatures& query,
                           const DPFeatures& candidate) {
  // Every representative point is a real trajectory point; its match must
  // lie inside the other trajectory's MBR, so the point-to-MBR distance is
  // a valid lower bound in both directions.
  double lb = MBRLowerBound(query.mbr, candidate.mbr);
  for (const DPFeature& f : query.features) {
    lb = std::max(lb, PointToRectDistance(Point{f.rep.x, f.rep.y},
                                          candidate.mbr));
  }
  for (const DPFeature& f : candidate.features) {
    lb = std::max(lb,
                  PointToRectDistance(Point{f.rep.x, f.rep.y}, query.mbr));
  }
  return lb;
}

}  // namespace tman::geo
