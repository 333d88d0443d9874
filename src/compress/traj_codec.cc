#include "compress/traj_codec.h"

#include "common/coding.h"
#include "compress/simple8b.h"

namespace tman::compress {

void DeltaOfDeltaEncode(const std::vector<int64_t>& values,
                        std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(values.size());
  int64_t prev = 0;
  int64_t prev_delta = 0;
  for (size_t i = 0; i < values.size(); i++) {
    const int64_t delta = values[i] - prev;
    const int64_t dod = delta - prev_delta;
    out->push_back(ZigZagEncode64(dod));
    prev = values[i];
    prev_delta = delta;
  }
}

void DeltaOfDeltaDecode(const std::vector<uint64_t>& encoded,
                        std::vector<int64_t>* out) {
  out->clear();
  out->reserve(encoded.size());
  int64_t prev = 0;
  int64_t prev_delta = 0;
  for (uint64_t e : encoded) {
    const int64_t dod = ZigZagDecode64(e);
    const int64_t delta = prev_delta + dod;
    prev += delta;
    out->push_back(prev);
    prev_delta = delta;
  }
}

bool EncodePoints(const PointColumns& columns, std::string* out) {
  const size_t n = columns.timestamps.size();
  if (columns.lons.size() != n || columns.lats.size() != n) return false;

  std::vector<uint64_t> dod;
  DeltaOfDeltaEncode(columns.timestamps, &dod);
  std::string ts_blob;
  if (!Simple8bEncode(dod, &ts_blob)) return false;

  GorillaEncoder lon_enc, lat_enc;
  for (size_t i = 0; i < n; i++) {
    lon_enc.Add(columns.lons[i]);
    lat_enc.Add(columns.lats[i]);
  }
  const std::string lon_blob = lon_enc.Finish();
  const std::string lat_blob = lat_enc.Finish();

  PutVarint32(out, static_cast<uint32_t>(n));
  PutLengthPrefixedSlice(out, ts_blob);
  PutLengthPrefixedSlice(out, lon_blob);
  PutLengthPrefixedSlice(out, lat_blob);
  return true;
}

bool PointDecoder::Init(const char* data, size_t size) {
  Slice input(data, size);
  uint32_t n;
  if (!GetVarint32(&input, &n)) return false;
  Slice ts_blob, lon_blob, lat_blob;
  if (!GetLengthPrefixedSlice(&input, &ts_blob) ||
      !GetLengthPrefixedSlice(&input, &lon_blob) ||
      !GetLengthPrefixedSlice(&input, &lat_blob)) {
    return false;
  }
  // Every Gorilla value after the first takes at least one bit; refuse a
  // corrupt count before unpacking that many timestamps.
  if (n > lon_blob.size() * 8) return false;
  std::vector<uint64_t> dod;
  if (!Simple8bDecode(ts_blob.data(), ts_blob.size(), n, &dod)) return false;
  DeltaOfDeltaDecode(dod, &timestamps_);
  next_ = 0;
  lon_ = GorillaDecoder(lon_blob.data(), lon_blob.size());
  lat_ = GorillaDecoder(lat_blob.data(), lat_blob.size());
  return true;
}

bool PointDecoder::Next(int64_t* timestamp, double* lon, double* lat) {
  if (next_ >= timestamps_.size()) return false;
  *timestamp = timestamps_[next_++];
  return lon_.Next(lon) && lat_.Next(lat);
}

bool DecodePoints(const char* data, size_t size, PointColumns* columns) {
  PointDecoder decoder;
  if (!decoder.Init(data, size)) return false;
  const size_t n = decoder.count();
  columns->timestamps.resize(n);
  columns->lons.resize(n);
  columns->lats.resize(n);
  for (size_t i = 0; i < n; i++) {
    if (!decoder.Next(&columns->timestamps[i], &columns->lons[i],
                      &columns->lats[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace tman::compress
