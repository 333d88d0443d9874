// Edge cases of the similarity kernels and the push-down similarity
// filter.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "core/filters.h"
#include "core/record.h"
#include "geo/similarity.h"

namespace tman::geo {
namespace {

std::vector<TimedPoint> Line(double x0, double y0, double x1, double y1,
                             int n) {
  std::vector<TimedPoint> points;
  for (int i = 0; i < n; i++) {
    const double f = n == 1 ? 0 : static_cast<double>(i) / (n - 1);
    points.push_back(
        TimedPoint{x0 + f * (x1 - x0), y0 + f * (y1 - y0), i * 10});
  }
  return points;
}

TEST(SimilarityEdgeTest, SinglePointTrajectories) {
  const auto a = Line(0, 0, 0, 0, 1);
  const auto b = Line(3, 4, 3, 4, 1);
  EXPECT_DOUBLE_EQ(DiscreteFrechet(a, b), 5.0);
  EXPECT_DOUBLE_EQ(DTWDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(HausdorffDistance(a, b), 5.0);
}

TEST(SimilarityEdgeTest, EmptyTrajectoryIsInfinitelyFar) {
  const std::vector<TimedPoint> empty;
  const auto a = Line(0, 0, 1, 1, 5);
  EXPECT_GT(DiscreteFrechet(empty, a), 1e200);
  EXPECT_GT(DTWDistance(a, empty), 1e200);
  EXPECT_GT(HausdorffDistance(empty, empty), 1e200);
}

TEST(SimilarityEdgeTest, AsymmetricLengths) {
  // The same line sampled at different densities: the discrete measures
  // see at most half the coarser sampling interval (0.02 here).
  const auto sparse = Line(0, 0, 1, 0, 51);   // spacing 0.02
  const auto dense = Line(0, 0, 1, 0, 101);   // spacing 0.01
  EXPECT_LT(DiscreteFrechet(sparse, dense), 0.0201);
  EXPECT_LT(HausdorffDistance(sparse, dense), 0.0101);
}

TEST(SimilarityEdgeTest, FrechetRespectsOrdering) {
  // The same point set traversed in opposite directions: Hausdorff is 0,
  // Fréchet is not (it must couple endpoints monotonically).
  const auto forward = Line(0, 0, 1, 0, 10);
  auto backward = forward;
  std::reverse(backward.begin(), backward.end());
  EXPECT_LT(HausdorffDistance(forward, backward), 1e-9);
  EXPECT_NEAR(DiscreteFrechet(forward, backward), 1.0, 1e-9);
}

TEST(SimilarityEdgeTest, DTWTriangleSanity) {
  // DTW of identical is 0; shifting by d adds >= d.
  const auto a = Line(0, 0, 1, 1, 20);
  auto shifted = a;
  for (auto& p : shifted) p.x += 0.3;
  EXPECT_GE(DTWDistance(a, shifted), 0.3);
}

// --- ExactDistanceBounded -------------------------------------------------

constexpr SimilarityMeasure kAllMeasures[] = {SimilarityMeasure::kFrechet,
                                              SimilarityMeasure::kDTW,
                                              SimilarityMeasure::kHausdorff};

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Checks one bounded call against the unbounded distance: bit-identical
// when the distance is within the bound, otherwise past the bound and no
// larger than the true distance.
void ExpectBoundedContract(SimilarityMeasure measure,
                           const std::vector<TimedPoint>& a,
                           const std::vector<TimedPoint>& b, double bound,
                           bool strict) {
  const double exact = ExactDistance(measure, a, b);
  const double got = ExactDistanceBounded(measure, a, b, bound, strict);
  const bool within = strict ? exact <= bound : exact < bound;
  if (within) {
    EXPECT_EQ(Bits(got), Bits(exact))
        << "measure " << static_cast<int>(measure) << " bound " << bound
        << " strict " << strict;
  } else {
    EXPECT_TRUE(strict ? got > bound : got >= bound)
        << "measure " << static_cast<int>(measure) << " got " << got
        << " bound " << bound << " strict " << strict;
    EXPECT_LE(got, exact);
  }
}

std::vector<TimedPoint> RandomWalk(Random* rnd, size_t n) {
  std::vector<TimedPoint> points;
  double x = rnd->UniformDouble(116.0, 116.1);
  double y = rnd->UniformDouble(39.8, 39.9);
  for (size_t i = 0; i < n; i++) {
    x += rnd->UniformDouble(-0.002, 0.002);
    y += rnd->UniformDouble(-0.002, 0.002);
    points.push_back(TimedPoint{x, y, static_cast<int64_t>(i) * 30});
  }
  return points;
}

TEST(ExactDistanceBoundedTest, MatchesExactDistanceOnRandomInputs) {
  Random rnd(2024);
  for (int trial = 0; trial < 200; trial++) {
    const auto a = RandomWalk(&rnd, 1 + rnd.Uniform(40));
    const auto b = RandomWalk(&rnd, 1 + rnd.Uniform(40));
    for (SimilarityMeasure measure : kAllMeasures) {
      const double exact = ExactDistance(measure, a, b);
      const double inf = std::numeric_limits<double>::infinity();
      for (double bound :
           {0.0, exact * 0.25, exact * 0.5, std::nextafter(exact, 0.0), exact,
            std::nextafter(exact, inf), exact * 2, inf,
            rnd.UniformDouble(0, 2 * exact)}) {
        for (bool strict : {true, false}) {
          ExpectBoundedContract(measure, a, b, bound, strict);
        }
      }
    }
  }
}

TEST(ExactDistanceBoundedTest, EmptyInputIsFarWhateverTheBound) {
  const auto a = Line(0, 0, 1, 1, 5);
  const std::vector<TimedPoint> empty;
  for (SimilarityMeasure measure : kAllMeasures) {
    for (bool strict : {true, false}) {
      EXPECT_EQ(ExactDistanceBounded(measure, empty, a, 1.0, strict), 1e300);
      EXPECT_EQ(ExactDistanceBounded(measure, a, empty, 1e301, strict), 1e300);
      EXPECT_EQ(ExactDistanceBounded(measure, empty, empty, 0.0, strict),
                1e300);
    }
  }
}

TEST(ExactDistanceBoundedTest, SinglePointAndIdenticalInputs) {
  const auto one = Line(3, 4, 3, 4, 1);
  const auto origin = Line(0, 0, 0, 0, 1);
  const auto a = Line(116.3, 39.9, 116.4, 40.0, 25);
  for (SimilarityMeasure measure : kAllMeasures) {
    for (bool strict : {true, false}) {
      EXPECT_EQ(ExactDistanceBounded(measure, one, origin, 6.0, strict), 5.0);
      EXPECT_EQ(ExactDistanceBounded(measure, a, a, 1.0, strict), 0.0);
      ExpectBoundedContract(measure, one, origin, 1.0, strict);
      ExpectBoundedContract(measure, one, a, 0.0, strict);
    }
    // Identical inputs are at distance 0: within a strict bound of 0, past
    // a non-strict one.
    EXPECT_EQ(ExactDistanceBounded(measure, a, a, 0.0, true), 0.0);
    EXPECT_GE(ExactDistanceBounded(measure, a, a, 0.0, false), 0.0);
  }
}

TEST(ExactDistanceBoundedTest, DistanceEqualToBound) {
  // Parallel lines one unit apart: every measure's distance is an exact
  // small integer, so the bound can equal it exactly.
  const auto a = Line(0, 0, 10, 0, 11);
  const auto b = Line(0, 1, 10, 1, 11);
  for (SimilarityMeasure measure : kAllMeasures) {
    const double exact = ExactDistance(measure, a, b);
    // Strict callers reject d > bound: d == bound is within.
    EXPECT_EQ(ExactDistanceBounded(measure, a, b, exact, true), exact);
    // Non-strict callers reject d >= bound: d == bound is past.
    EXPECT_GE(ExactDistanceBounded(measure, a, b, exact, false), exact);
    ExpectBoundedContract(measure, a, b, exact, true);
    ExpectBoundedContract(measure, a, b, exact, false);
  }
  // Row 0 (and Hausdorff's first point) sits at distance 1, but the whole
  // distance is larger: a strict caller with bound 1 must not be stopped
  // at the row that only reaches the bound.
  const std::vector<TimedPoint> c = {{0, 0, 0}, {0, 0, 10}};
  const std::vector<TimedPoint> d = {{0, 1, 0}, {0, 3, 10}};
  for (SimilarityMeasure measure : kAllMeasures) {
    EXPECT_GT(ExactDistance(measure, c, d), 1.0);
    EXPECT_GT(ExactDistanceBounded(measure, c, d, 1.0, true), 1.0);
    ExpectBoundedContract(measure, c, d, 1.0, true);
    ExpectBoundedContract(measure, c, d, 1.0, false);
  }
}

TEST(ExactDistanceBoundedTest, AbandonsOnceARowIsPastTheBound) {
  // Fréchet: row 0 reaches b[0] at distance 0, row 1's cheapest cell is 5,
  // the coupling needs 5*sqrt(2). A bound of 1 stops after row 1.
  const std::vector<TimedPoint> a = {{0, 0, 0}, {5, 0, 10}};
  const std::vector<TimedPoint> b = {{0, 0, 0}, {0, 5, 10}};
  const double frechet = DiscreteFrechet(a, b);
  const double stopped =
      ExactDistanceBounded(SimilarityMeasure::kFrechet, a, b, 1.0, true);
  EXPECT_GT(stopped, 1.0);
  EXPECT_LT(stopped, frechet);
  // DTW: far apart parallel lines; row 0 alone is past the bound.
  const auto c = Line(0, 0, 10, 0, 50);
  const auto d = Line(0, 100, 10, 100, 50);
  const double dtw = DTWDistance(c, d);
  const double dtw_stopped =
      ExactDistanceBounded(SimilarityMeasure::kDTW, c, d, 10.0, false);
  EXPECT_GE(dtw_stopped, 10.0);
  EXPECT_LT(dtw_stopped, dtw);
}

}  // namespace
}  // namespace tman::geo

namespace tman::core {
namespace {

traj::Trajectory MakeTrajectory(double x0, double y0, int n) {
  traj::Trajectory t;
  t.oid = "o";
  t.tid = "t";
  for (int i = 0; i < n; i++) {
    t.points.push_back(geo::TimedPoint{x0 + i * 0.01, y0, i * 30});
  }
  return t;
}

TEST(SimilarityFilterTest, PassesNearAndRejectsFar) {
  const traj::Trajectory query = MakeTrajectory(0, 0, 10);
  const geo::DPFeatures query_features =
      geo::ExtractDPFeatures(query.points, 4);
  SimilarityFilter filter(query_features, 0.05);

  std::string near_value, far_value;
  ASSERT_TRUE(EncodeRecord(MakeTrajectory(0, 0.01, 10), 4, &near_value));
  ASSERT_TRUE(EncodeRecord(MakeTrajectory(0, 5.0, 10), 4, &far_value));
  EXPECT_TRUE(filter.Matches("k", near_value));
  EXPECT_FALSE(filter.Matches("k", far_value));
  EXPECT_FALSE(filter.Matches("k", "garbage"));
}

TEST(SimilarityFilterTest, NeverRejectsTrueMatches) {
  // Soundness: any trajectory within the threshold must pass the filter.
  const traj::Trajectory query = MakeTrajectory(0, 0, 20);
  const geo::DPFeatures query_features =
      geo::ExtractDPFeatures(query.points, 6);
  const double threshold = 0.1;
  SimilarityFilter filter(query_features, threshold);
  for (double dy : {0.0, 0.02, 0.05, 0.099}) {
    const traj::Trajectory candidate = MakeTrajectory(0, dy, 20);
    const double d = geo::DiscreteFrechet(query.points, candidate.points);
    if (d <= threshold) {
      std::string value;
      ASSERT_TRUE(EncodeRecord(candidate, 6, &value));
      EXPECT_TRUE(filter.Matches("k", value)) << "dy=" << dy;
    }
  }
}

}  // namespace
}  // namespace tman::core
