#include "compress/gorilla.h"

#include <bit>
#include <cstring>

namespace tman::compress {

namespace {

uint64_t DoubleToBits(double d) {
  uint64_t bits;
  memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d;
  memcpy(&d, &bits, sizeof(d));
  return d;
}

// Big-endian load of the first min(8, size) bytes at `p`; missing bytes
// read as zero.
uint64_t LoadBigEndian64(const char* p, size_t size) {
  if (size >= 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    return word;
  }
  uint64_t word = 0;
  for (size_t i = 0; i < 8; i++) {
    word = (word << 8) | (i < size ? static_cast<uint8_t>(p[i]) : 0u);
  }
  return word;
}

}  // namespace

void GorillaEncoder::WriteBit(bool bit) {
  bit_buffer_ = static_cast<uint8_t>((bit_buffer_ << 1) | (bit ? 1 : 0));
  bit_count_++;
  if (bit_count_ == 8) {
    buffer_.push_back(static_cast<char>(bit_buffer_));
    bit_buffer_ = 0;
    bit_count_ = 0;
  }
}

void GorillaEncoder::WriteBits(uint64_t value, int bits) {
  for (int i = bits - 1; i >= 0; i--) {
    WriteBit((value >> i) & 1);
  }
}

void GorillaEncoder::Add(double value) {
  const uint64_t bits = DoubleToBits(value);
  if (count_ == 0) {
    WriteBits(bits, 64);
  } else {
    const uint64_t x = bits ^ prev_;
    if (x == 0) {
      WriteBit(false);
    } else {
      WriteBit(true);
      int leading = std::countl_zero(x);
      int trailing = std::countr_zero(x);
      if (leading > 31) leading = 31;  // 5-bit field
      if (prev_leading_ >= 0 && leading >= prev_leading_ &&
          trailing >= prev_trailing_) {
        // Control bit 0: reuse the previous window.
        WriteBit(false);
        const int meaningful = 64 - prev_leading_ - prev_trailing_;
        WriteBits(x >> prev_trailing_, meaningful);
      } else {
        // Control bit 1: new window: 5 bits leading, 6 bits length.
        WriteBit(true);
        const int meaningful = 64 - leading - trailing;
        WriteBits(static_cast<uint64_t>(leading), 5);
        WriteBits(static_cast<uint64_t>(meaningful), 6);
        WriteBits(x >> trailing, meaningful);
        prev_leading_ = leading;
        prev_trailing_ = trailing;
      }
    }
  }
  prev_ = bits;
  count_++;
}

std::string GorillaEncoder::Finish() {
  while (bit_count_ != 0) {
    WriteBit(false);  // pad the final byte
  }
  return std::move(buffer_);
}

bool GorillaDecoder::ReadBits(int bits, uint64_t* value) {
  if (bit_pos_ + static_cast<size_t>(bits) > size_ * 8) return false;
  const size_t byte = bit_pos_ >> 3;
  const int shift = static_cast<int>(bit_pos_ & 7);
  const uint64_t word = LoadBigEndian64(data_ + byte, size_ - byte);
  uint64_t window = word << shift;
  if (bits > 64 - shift) {
    // The field spans nine bytes; the bounds check above guarantees the
    // ninth exists.
    window |= static_cast<uint8_t>(data_[byte + 8]) >> (8 - shift);
  }
  *value = window >> (64 - bits);
  bit_pos_ += static_cast<size_t>(bits);
  return true;
}

bool GorillaDecoder::Next(double* value) {
  if (!started_) {
    if (!ReadBits(64, &prev_)) return false;
    started_ = true;
    *value = BitsToDouble(prev_);
    return true;
  }
  uint64_t control;
  if (!ReadBits(1, &control)) return false;
  if (control != 0) {
    if (!ReadBits(1, &control)) return false;
    if (control != 0) {
      // New window: 5 bits leading zeros, 6 bits meaningful length.
      uint64_t window;
      if (!ReadBits(11, &window)) return false;
      leading_ = static_cast<int>(window >> 6);
      meaningful_ = static_cast<int>(window & 63);
      if (meaningful_ == 0) meaningful_ = 64;  // 6-bit overflow encoding
    }
    if (meaningful_ == 0 || leading_ + meaningful_ > 64) return false;
    uint64_t xor_bits;
    if (!ReadBits(meaningful_, &xor_bits)) return false;
    prev_ ^= xor_bits << (64 - leading_ - meaningful_);
  }
  *value = BitsToDouble(prev_);
  return true;
}

bool GorillaDecoder::Decode(size_t count, std::vector<double>* out) {
  out->clear();
  // Every value after the first takes at least one bit: a larger count
  // cannot be in the stream, so it is refused before reserving for it.
  if (count > size_ * 8) return false;
  out->resize(count);
  for (double& value : *out) {
    if (!Next(&value)) return false;
  }
  return true;
}

}  // namespace tman::compress
