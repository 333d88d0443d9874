#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/random.h"
#include "compress/gorilla.h"
#include "compress/simple8b.h"
#include "compress/traj_codec.h"

namespace tman::compress {
namespace {

TEST(Simple8bTest, RoundTripSmallValues) {
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 1000; i++) values.push_back(i % 7);
  std::string blob;
  ASSERT_TRUE(Simple8bEncode(values, &blob));
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Simple8bDecode(blob.data(), blob.size(), values.size(),
                             &decoded));
  EXPECT_EQ(decoded, values);
}

TEST(Simple8bTest, RoundTripMixedMagnitudes) {
  Random rnd(9);
  std::vector<uint64_t> values;
  for (int i = 0; i < 500; i++) {
    const int bits = static_cast<int>(rnd.Uniform(59)) + 1;
    values.push_back(rnd.Next() & ((1ULL << bits) - 1));
  }
  std::string blob;
  ASSERT_TRUE(Simple8bEncode(values, &blob));
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Simple8bDecode(blob.data(), blob.size(), values.size(),
                             &decoded));
  EXPECT_EQ(decoded, values);
}

TEST(Simple8bTest, ZeroRunsPackDensely) {
  std::vector<uint64_t> values(960, 0);
  std::string blob;
  ASSERT_TRUE(Simple8bEncode(values, &blob));
  // 960 zeros = 4 words of 240 -> 32 bytes vs 7680 raw.
  EXPECT_LE(blob.size(), 64u);
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Simple8bDecode(blob.data(), blob.size(), values.size(),
                             &decoded));
  EXPECT_EQ(decoded, values);
}

TEST(Simple8bTest, RejectsOversizedValues) {
  std::vector<uint64_t> values = {1ULL << 60};
  std::string blob;
  EXPECT_FALSE(Simple8bEncode(values, &blob));
}

TEST(Simple8bTest, EmptyInput) {
  std::string blob;
  ASSERT_TRUE(Simple8bEncode({}, &blob));
  EXPECT_TRUE(blob.empty());
  std::vector<uint64_t> decoded;
  ASSERT_TRUE(Simple8bDecode(blob.data(), blob.size(), 0, &decoded));
  EXPECT_TRUE(decoded.empty());
}

TEST(GorillaTest, RoundTripGPSLikeSeries) {
  Random rnd(11);
  std::vector<double> values;
  double lon = 116.40;
  for (int i = 0; i < 2000; i++) {
    lon += rnd.UniformDouble(-0.0005, 0.0005);
    values.push_back(lon);
  }
  GorillaEncoder enc;
  for (double v : values) enc.Add(v);
  const std::string blob = enc.Finish();
  // Gorilla on smooth series: well under 8 bytes per value.
  EXPECT_LT(blob.size(), values.size() * 8);

  GorillaDecoder dec(blob.data(), blob.size());
  std::vector<double> decoded;
  ASSERT_TRUE(dec.Decode(values.size(), &decoded));
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); i++) {
    EXPECT_EQ(decoded[i], values[i]) << i;  // bit-exact lossless
  }
}

TEST(GorillaTest, RoundTripConstantsAndSpecials) {
  const std::vector<double> values = {0.0,  0.0,   -0.0,  1.5,
                                      1.5,  1e300, -1e300, 3.14159};
  GorillaEncoder enc;
  for (double v : values) enc.Add(v);
  const std::string blob = enc.Finish();
  GorillaDecoder dec(blob.data(), blob.size());
  std::vector<double> decoded;
  ASSERT_TRUE(dec.Decode(values.size(), &decoded));
  for (size_t i = 0; i < values.size(); i++) {
    EXPECT_EQ(std::signbit(decoded[i]), std::signbit(values[i]));
    EXPECT_EQ(decoded[i], values[i]);
  }
}

TEST(GorillaTest, TruncatedInputFailsCleanly) {
  GorillaEncoder enc;
  for (int i = 0; i < 100; i++) enc.Add(i * 0.1);
  std::string blob = enc.Finish();
  blob.resize(blob.size() / 2);
  GorillaDecoder dec(blob.data(), blob.size());
  std::vector<double> decoded;
  EXPECT_FALSE(dec.Decode(100, &decoded));
}

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// An XOR with exactly `leading` leading zeros and `meaningful` significant
// bits (its top and bottom window bits set).
uint64_t XorWindow(int leading, int meaningful) {
  const int top = 63 - leading;
  const int bottom = 64 - leading - meaningful;
  return (uint64_t{1} << top) | (uint64_t{1} << bottom);
}

// A series that puts every (leading, meaningful) window on the wire, each
// followed by a value that reuses the window and by a repeat.
std::vector<double> EveryWindowSeries() {
  std::vector<double> values;
  uint64_t bits = 0x405D1A2B3C4D5E6FULL;
  values.push_back(FromBits(bits));
  for (int leading = 0; leading < 64; leading++) {
    for (int meaningful = 1; leading + meaningful <= 64; meaningful++) {
      bits ^= XorWindow(leading, meaningful);
      values.push_back(FromBits(bits));
      bits ^= uint64_t{1} << (63 - leading);  // inside the previous window
      values.push_back(FromBits(bits));
      values.push_back(FromBits(bits));  // repeat: a single zero bit
    }
  }
  return values;
}

std::string EncodeSeries(const std::vector<double>& values) {
  GorillaEncoder enc;
  for (double v : values) enc.Add(v);
  return enc.Finish();
}

TEST(GorillaTest, RoundTripEveryWindowWidth) {
  const std::vector<double> values = EveryWindowSeries();
  const std::string blob = EncodeSeries(values);
  GorillaDecoder dec(blob.data(), blob.size());
  std::vector<double> decoded;
  ASSERT_TRUE(dec.Decode(values.size(), &decoded));
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); i++) {
    // Bit patterns, not doubles: some windows make NaNs.
    ASSERT_EQ(Bits(decoded[i]), Bits(values[i])) << i;
  }
}

TEST(GorillaTest, RoundTripRepeatedValues) {
  for (double v : {0.0, -0.0, 116.3971, std::numeric_limits<double>::max()}) {
    const std::vector<double> values(1000, v);
    const std::string blob = EncodeSeries(values);
    // 64 bits for the first value, one bit for each repeat.
    EXPECT_EQ(blob.size(), (64 + 999 + 7) / 8);
    GorillaDecoder dec(blob.data(), blob.size());
    std::vector<double> decoded;
    ASSERT_TRUE(dec.Decode(values.size(), &decoded));
    for (size_t i = 0; i < values.size(); i++) {
      ASSERT_EQ(Bits(decoded[i]), Bits(v)) << i;
    }
  }
}

TEST(GorillaTest, TruncatedAtEveryByteFails) {
  const std::vector<double> values = EveryWindowSeries();
  const std::string blob = EncodeSeries(values);
  for (size_t len = 0; len < blob.size(); len++) {
    // A private copy of exactly `len` bytes, so any read past the end is an
    // out-of-bounds access under ASan.
    const std::vector<char> cut(blob.begin(), blob.begin() + len);
    GorillaDecoder dec(cut.data(), cut.size());
    std::vector<double> decoded;
    EXPECT_FALSE(dec.Decode(values.size(), &decoded)) << "length " << len;
  }
}

TEST(GorillaTest, CountBeyondStreamFails) {
  const std::string blob = EncodeSeries({1.0, 2.0});
  GorillaDecoder dec(blob.data(), blob.size());
  std::vector<double> decoded;
  EXPECT_FALSE(dec.Decode(size_t{1} << 40, &decoded));
}

TEST(DeltaOfDeltaTest, RegularTimestampsCompressToZeros) {
  std::vector<int64_t> ts;
  for (int i = 0; i < 100; i++) ts.push_back(1400000000 + i * 30);
  std::vector<uint64_t> encoded;
  DeltaOfDeltaEncode(ts, &encoded);
  // After the first two entries every delta-of-delta is zero.
  for (size_t i = 2; i < encoded.size(); i++) {
    EXPECT_EQ(encoded[i], 0u);
  }
  std::vector<int64_t> decoded;
  DeltaOfDeltaDecode(encoded, &decoded);
  EXPECT_EQ(decoded, ts);
}

TEST(TrajCodecTest, RoundTripAndCompressionRatio) {
  Random rnd(23);
  PointColumns columns;
  double lon = 113.3, lat = 23.1;
  int64_t t = 1393632000;
  for (int i = 0; i < 1000; i++) {
    lon += rnd.UniformDouble(-0.0004, 0.0004);
    lat += rnd.UniformDouble(-0.0004, 0.0004);
    t += 28 + static_cast<int64_t>(rnd.Uniform(5));
    columns.lons.push_back(lon);
    columns.lats.push_back(lat);
    columns.timestamps.push_back(t);
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  const size_t raw_size = 1000 * (8 + 8 + 8);
  EXPECT_LT(blob.size(), raw_size) << "codec must beat raw layout";

  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
  EXPECT_EQ(decoded.lons, columns.lons);
  EXPECT_EQ(decoded.lats, columns.lats);
}

TEST(TrajCodecTest, RejectsMismatchedColumns) {
  PointColumns columns;
  columns.timestamps = {1, 2, 3};
  columns.lons = {1.0, 2.0};
  columns.lats = {1.0, 2.0, 3.0};
  std::string blob;
  EXPECT_FALSE(EncodePoints(columns, &blob));
}

TEST(TrajCodecTest, SinglePoint) {
  PointColumns columns;
  columns.timestamps = {1400000000};
  columns.lons = {116.5};
  columns.lats = {39.9};
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
  EXPECT_EQ(decoded.lons, columns.lons);
}

TEST(TrajCodecTest, EmptySeriesRoundTrips) {
  PointColumns columns;
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  EXPECT_TRUE(decoded.timestamps.empty());
  EXPECT_TRUE(decoded.lons.empty());
  EXPECT_TRUE(decoded.lats.empty());
}

TEST(TrajCodecTest, NonMonotoneTimestampsRoundTrip) {
  // Delta-of-delta must be lossless even when the series goes backwards
  // (GPS clock skew, out-of-order fixes stitched into one row).
  PointColumns columns;
  columns.timestamps = {100, 50, 200, 199, -7, 1ll << 40, 0};
  for (size_t i = 0; i < columns.timestamps.size(); i++) {
    columns.lons.push_back(116.0 + static_cast<double>(i));
    columns.lats.push_back(39.0 - static_cast<double>(i));
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
  EXPECT_EQ(decoded.lons, columns.lons);
  EXPECT_EQ(decoded.lats, columns.lats);
}

TEST(TrajCodecTest, ExtremeCoordinatesRoundTrip) {
  PointColumns columns;
  columns.lons = {-180.0, 180.0, 0.0, -0.0,
                  std::numeric_limits<double>::min(),
                  std::numeric_limits<double>::max(),
                  std::numeric_limits<double>::denorm_min(),
                  -std::numeric_limits<double>::max()};
  for (size_t i = 0; i < columns.lons.size(); i++) {
    columns.lats.push_back(i % 2 == 0 ? 90.0 : -90.0);
    columns.timestamps.push_back(static_cast<int64_t>(i));
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointColumns decoded;
  ASSERT_TRUE(DecodePoints(blob.data(), blob.size(), &decoded));
  // Bit-exact: -0.0 must stay -0.0, denormals must survive.
  for (size_t i = 0; i < columns.lons.size(); i++) {
    uint64_t want, got;
    std::memcpy(&want, &columns.lons[i], 8);
    std::memcpy(&got, &decoded.lons[i], 8);
    EXPECT_EQ(got, want) << "lon " << i;
  }
  EXPECT_EQ(decoded.lats, columns.lats);
  EXPECT_EQ(decoded.timestamps, columns.timestamps);
}

TEST(TrajCodecTest, CorruptedPayloadFailsCleanly) {
  PointColumns columns;
  for (int i = 0; i < 300; i++) {
    columns.timestamps.push_back(1400000000 + i * 5);
    columns.lons.push_back(116.3 + i * 1e-5);
    columns.lats.push_back(39.9 + i * 1e-5);
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));

  // Every truncation must be rejected, never crash or hand back columns of
  // the wrong length.
  for (size_t len = 0; len < blob.size(); len += 7) {
    PointColumns decoded;
    if (DecodePoints(blob.data(), len, &decoded)) {
      EXPECT_EQ(decoded.timestamps.size(), columns.timestamps.size());
    }
  }
  // Single-byte flips either fail or decode to *some* equal-length columns
  // (the blob has no checksum of its own; the SSTable trailer CRC guards
  // end-to-end integrity).
  Random rnd(31);
  for (int trial = 0; trial < 100; trial++) {
    std::string mut = blob;
    mut[rnd.Uniform(static_cast<int>(mut.size()))] ^=
        static_cast<char>(1 + rnd.Uniform(255));
    PointColumns decoded;
    if (DecodePoints(mut.data(), mut.size(), &decoded)) {
      EXPECT_EQ(decoded.lons.size(), decoded.timestamps.size());
      EXPECT_EQ(decoded.lats.size(), decoded.timestamps.size());
    }
  }
}

TEST(TrajCodecTest, TruncatedAtEveryByteFails) {
  PointColumns columns;
  for (int i = 0; i < 200; i++) {
    columns.timestamps.push_back(1400000000 + i * 5);
    columns.lons.push_back(116.3 + i * 1e-5);
    columns.lats.push_back(39.9 - i * 1e-5);
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  for (size_t len = 0; len < blob.size(); len++) {
    const std::vector<char> cut(blob.begin(), blob.begin() + len);
    PointColumns decoded;
    EXPECT_FALSE(DecodePoints(cut.data(), cut.size(), &decoded))
        << "length " << len;
  }
}

TEST(TrajCodecTest, PointDecoderMatchesColumns) {
  PointColumns columns;
  Random rnd(5);
  int64_t t = 1400000000;
  for (int i = 0; i < 500; i++) {
    t += static_cast<int64_t>(rnd.Uniform(60));
    columns.timestamps.push_back(t);
    columns.lons.push_back(116.3 + rnd.UniformDouble(-0.01, 0.01));
    columns.lats.push_back(39.9 + rnd.UniformDouble(-0.01, 0.01));
  }
  std::string blob;
  ASSERT_TRUE(EncodePoints(columns, &blob));
  PointDecoder decoder;
  ASSERT_TRUE(decoder.Init(blob.data(), blob.size()));
  ASSERT_EQ(decoder.count(), columns.timestamps.size());
  for (size_t i = 0; i < decoder.count(); i++) {
    int64_t ts;
    double lon, lat;
    ASSERT_TRUE(decoder.Next(&ts, &lon, &lat));
    EXPECT_EQ(ts, columns.timestamps[i]);
    EXPECT_EQ(Bits(lon), Bits(columns.lons[i]));
    EXPECT_EQ(Bits(lat), Bits(columns.lats[i]));
  }
  int64_t ts;
  double lon, lat;
  EXPECT_FALSE(decoder.Next(&ts, &lon, &lat));  // past count()
}

}  // namespace
}  // namespace tman::compress
