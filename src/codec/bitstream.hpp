// Bit-exact bitstream writer/reader with Exp-Golomb codes (ue(v)/se(v)),
// the substrate for the entropy-coding stage of Fig 1. MSB-first bit order,
// byte-aligned RBSP-style trailing. The writer keeps its pending bits in a
// 64-bit accumulator, so a whole code is one shift-and-or, and one writer's
// bits can be spliced onto another's at any bit offset (append) — what lets
// MB rows be coded into writers of their own and joined afterwards.
#pragma once

#include "common/check.hpp"
#include "common/types.hpp"

#include <bit>
#include <vector>

namespace feves {

class BitWriter {
 public:
  void put_bit(int bit) { put_bits(static_cast<u32>(bit & 1), 1); }

  /// Writes the low `count` bits of `value`, most significant first, in one
  /// step: the accumulator holds fewer than 32 pending bits between calls,
  /// so any code of up to 32 bits fits beside them.
  void put_bits(u32 value, int count) {
    FEVES_CHECK(count >= 0 && count <= 32);
    acc_ = (acc_ << count) | (static_cast<u64>(value) & low_mask(count));
    nbits_ += count;
    if (nbits_ >= 32) flush_bytes();
  }

  /// Exp-Golomb unsigned: ue(v) — `len` zeros, then the `len + 1` bits of
  /// v + 1, which is v + 1 itself written `2 * len + 1` bits wide.
  void put_ue(u32 v) {
    const u64 code = static_cast<u64>(v) + 1;
    const int len = static_cast<int>(std::bit_width(code)) - 1;
    if (len < 16) {
      put_bits(static_cast<u32>(code), 2 * len + 1);
      return;
    }
    put_bits(0, len);
    if (len == 32) {
      put_bits(1, 1);  // code == 2^32: a one and 32 zeros
      put_bits(0, 32);
    } else {
      put_bits(static_cast<u32>(code), len + 1);
    }
  }

  /// Exp-Golomb signed: se(v) with the standard mapping.
  void put_se(i32 v) {
    const u32 mapped =
        v <= 0 ? static_cast<u32>(-2 * static_cast<i64>(v))
               : static_cast<u32>(2 * static_cast<i64>(v) - 1);
    put_ue(mapped);
  }

  /// Appends every bit `other` holds at this writer's bit offset, whatever
  /// its alignment: the result is the bits of both, as if `other`'s codes
  /// had been written here.
  void append(const BitWriter& other) {
    FEVES_CHECK(&other != this);
    flush_bytes();  // fewer than 8 pending bits now
    const std::size_t n = other.bytes_.size();
    if (nbits_ == 0) {
      bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
    } else if (n > 0) {
      // Each output byte is this writer's s pending bits followed by the
      // top 8 - s bits of the next input byte; its low s bits carry on.
      const int s = nbits_;
      const std::size_t at = bytes_.size();
      bytes_.resize(at + n);
      u8* out = bytes_.data() + at;
      const u8* in = other.bytes_.data();
      u32 carry = static_cast<u32>(acc_);
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = static_cast<u8>((carry << (8 - s)) | (in[i] >> s));
        carry = in[i] & ((1u << s) - 1);
      }
      acc_ = carry;
    }
    put_bits(static_cast<u32>(other.acc_), other.nbits_);
  }

  /// Pads to a byte boundary with a stop bit followed by zeros; a writer
  /// already on a byte boundary gets no stop bit. Every written bit is in
  /// bytes() afterwards.
  void finish() {
    if (nbits_ % 8 != 0) {
      put_bit(1);
      put_bits(0, (8 - nbits_ % 8) % 8);
    }
    flush_bytes();
  }

  /// Empties the writer, keeping its byte buffer's capacity.
  void clear() {
    bytes_.clear();
    acc_ = 0;
    nbits_ = 0;
  }

  std::size_t bit_count() const { return bytes_.size() * 8 + nbits_; }
  /// The whole bytes written so far (every bit, once finish() has run).
  const std::vector<u8>& bytes() const { return bytes_; }

 private:
  static u64 low_mask(int count) { return (u64{1} << count) - 1; }

  /// Moves every whole pending byte into bytes_, leaving < 8 bits pending.
  void flush_bytes() {
    while (nbits_ >= 8) {
      nbits_ -= 8;
      bytes_.push_back(static_cast<u8>(acc_ >> nbits_));
    }
    acc_ &= low_mask(nbits_);
  }

  std::vector<u8> bytes_;
  u64 acc_ = 0;    ///< the low nbits_ bits are pending, oldest highest
  int nbits_ = 0;  ///< < 32 between calls
};

class BitReader {
 public:
  explicit BitReader(const std::vector<u8>& bytes) : bytes_(bytes) {}

  int get_bit() {
    FEVES_CHECK_MSG(pos_ < bytes_.size() * 8, "bitstream exhausted");
    const u8 byte = bytes_[pos_ / 8];
    const int bit = (byte >> (7 - pos_ % 8)) & 1;
    ++pos_;
    return bit;
  }

  u32 get_bits(int count) {
    FEVES_CHECK(count >= 0 && count <= 32);
    u32 v = 0;
    for (int i = 0; i < count; ++i) v = (v << 1) | static_cast<u32>(get_bit());
    return v;
  }

  u32 get_ue() {
    int zeros = 0;
    while (get_bit() == 0) {
      ++zeros;
      FEVES_CHECK_MSG(zeros <= 32, "malformed Exp-Golomb code");
    }
    u64 code = 1;
    for (int i = 0; i < zeros; ++i) code = (code << 1) | static_cast<u64>(get_bit());
    return static_cast<u32>(code - 1);
  }

  i32 get_se() {
    const u32 mapped = get_ue();
    const i64 v = (mapped + 1) / 2;
    return static_cast<i32>((mapped & 1) != 0 ? v : -v);
  }

  std::size_t bit_position() const { return pos_; }
  bool exhausted() const { return pos_ >= bytes_.size() * 8; }

 private:
  const std::vector<u8>& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace feves
