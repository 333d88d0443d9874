#ifndef TMAN_COMPRESS_TRAJ_CODEC_H_
#define TMAN_COMPRESS_TRAJ_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "compress/gorilla.h"

namespace tman::compress {

// Columnar, lossless codec for the `points` column of a trajectory row
// (paper §IV-B(1)). The three coordinate arrays are compressed
// independently:
//   timestamps -> delta-of-delta, zigzag, simple8b
//   longitude  -> Gorilla XOR bitstream
//   latitude   -> Gorilla XOR bitstream
// Layout: varint32 count | varint32 ts_len | ts | varint32 lon_len | lon
//         | varint32 lat_len | lat

struct PointColumns {
  std::vector<int64_t> timestamps;
  std::vector<double> lons;
  std::vector<double> lats;
};

// Encodes the columns; all three vectors must have equal length.
bool EncodePoints(const PointColumns& columns, std::string* out);

// Decodes a blob produced by EncodePoints.
bool DecodePoints(const char* data, size_t size, PointColumns* columns);

// Point-at-a-time decoder of a blob produced by EncodePoints, for callers
// that store points row-wise: no PointColumns copy in between. The blob
// must outlive the decoder.
class PointDecoder {
 public:
  // Parses the layout and unpacks the timestamp column; false on malformed
  // input.
  bool Init(const char* data, size_t size);

  // Number of points in the blob (valid after a successful Init).
  size_t count() const { return timestamps_.size(); }

  // Decodes the next point; false on malformed input or past count().
  bool Next(int64_t* timestamp, double* lon, double* lat);

 private:
  std::vector<int64_t> timestamps_;
  size_t next_ = 0;
  GorillaDecoder lon_{nullptr, 0};
  GorillaDecoder lat_{nullptr, 0};
};

// Timestamp helper codecs, exposed for tests and benchmarks.
void DeltaOfDeltaEncode(const std::vector<int64_t>& values,
                        std::vector<uint64_t>* out);
void DeltaOfDeltaDecode(const std::vector<uint64_t>& encoded,
                        std::vector<int64_t>* out);

}  // namespace tman::compress

#endif  // TMAN_COMPRESS_TRAJ_CODEC_H_
