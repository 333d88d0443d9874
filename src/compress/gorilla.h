#ifndef TMAN_COMPRESS_GORILLA_H_
#define TMAN_COMPRESS_GORILLA_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tman::compress {

// Lossless XOR compression for double series (the Gorilla/Elf family used
// by the paper for the latitude/longitude columns). Consecutive GPS fixes
// share exponent and high mantissa bits, so XORs are mostly zero.
class GorillaEncoder {
 public:
  void Add(double value);
  // Finalizes and returns the bitstream. The encoder is then exhausted.
  std::string Finish();
  size_t count() const { return count_; }

 private:
  void WriteBit(bool bit);
  void WriteBits(uint64_t value, int bits);

  std::string buffer_;
  uint8_t bit_buffer_ = 0;
  int bit_count_ = 0;
  uint64_t prev_ = 0;
  int prev_leading_ = -1;
  int prev_trailing_ = -1;
  size_t count_ = 0;
};

// Reads the bitstream a word at a time: each field is cut from a 64-bit
// big-endian load by shift and mask. Every read is bounds-checked, so
// truncated or malformed input fails instead of reading past `size`.
class GorillaDecoder {
 public:
  GorillaDecoder(const char* data, size_t size)
      : data_(data), size_(size) {}

  // Decodes the next value; false on malformed or truncated input.
  bool Next(double* value);

  // Decodes exactly `count` doubles; false on malformed input.
  bool Decode(size_t count, std::vector<double>* out);

 private:
  // Reads `bits` (1 to 64) bits, most significant first.
  bool ReadBits(int bits, uint64_t* value);

  const char* data_;
  size_t size_;
  size_t bit_pos_ = 0;  // absolute bit offset into data_
  bool started_ = false;
  uint64_t prev_ = 0;
  int leading_ = 0;
  int meaningful_ = 0;
};

}  // namespace tman::compress

#endif  // TMAN_COMPRESS_GORILLA_H_
