#include "codec/bitstream.hpp"
#include "codec/cavlc.hpp"

#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>

namespace feves {
namespace {

TEST(Bitstream, BitRoundTrip) {
  BitWriter bw;
  bw.put_bit(1);
  bw.put_bit(0);
  bw.put_bits(0b1011, 4);
  bw.put_bits(0xDEAD, 16);
  bw.finish();
  BitReader br(bw.bytes());
  EXPECT_EQ(br.get_bit(), 1);
  EXPECT_EQ(br.get_bit(), 0);
  EXPECT_EQ(br.get_bits(4), 0b1011u);
  EXPECT_EQ(br.get_bits(16), 0xDEADu);
}

TEST(Bitstream, UeKnownCodewords) {
  // ue(0)='1', ue(1)='010', ue(2)='011', ue(3)='00100'.
  BitWriter bw;
  bw.put_ue(0);
  bw.put_ue(1);
  bw.put_ue(2);
  bw.put_ue(3);
  bw.finish();
  EXPECT_EQ(bw.bytes().size(), 2u);
  EXPECT_EQ(bw.bytes()[0], 0b10100110);  // 1 010 011 0...
  BitReader br(bw.bytes());
  EXPECT_EQ(br.get_ue(), 0u);
  EXPECT_EQ(br.get_ue(), 1u);
  EXPECT_EQ(br.get_ue(), 2u);
  EXPECT_EQ(br.get_ue(), 3u);
}

TEST(Bitstream, UeSeSweepRoundTrip) {
  BitWriter bw;
  for (u32 v = 0; v < 1000; ++v) bw.put_ue(v);
  for (i32 v = -500; v <= 500; ++v) bw.put_se(v);
  bw.put_ue(0xFFFFFF);
  bw.finish();
  BitReader br(bw.bytes());
  for (u32 v = 0; v < 1000; ++v) EXPECT_EQ(br.get_ue(), v);
  for (i32 v = -500; v <= 500; ++v) EXPECT_EQ(br.get_se(), v);
  EXPECT_EQ(br.get_ue(), 0xFFFFFFu);
}

TEST(Bitstream, ReaderThrowsPastEnd) {
  BitWriter bw;
  bw.put_bits(0xA, 4);
  bw.finish();
  BitReader br(bw.bytes());
  br.get_bits(8);
  EXPECT_THROW(br.get_bit(), Error);
}

// ---- BitWriter against a bit-at-a-time oracle ---------------------------

/// The writer's contract one bit at a time: MSB-first codes, Exp-Golomb as
/// leading zeros plus v + 1, and a stop bit plus zeros up to a byte.
struct BitOracle {
  std::vector<int> bits;

  void put_bits(u32 value, int count) {
    for (int i = count - 1; i >= 0; --i) bits.push_back((value >> i) & 1);
  }
  void put_ue(u32 v) {
    const u64 code = static_cast<u64>(v) + 1;
    int len = 0;
    while ((code >> (len + 1)) != 0) ++len;
    for (int i = 0; i < len; ++i) bits.push_back(0);
    for (int i = len; i >= 0; --i) bits.push_back(static_cast<int>((code >> i) & 1));
  }
  std::vector<u8> finished() const {
    std::vector<int> b = bits;
    if (b.size() % 8 != 0) {
      b.push_back(1);
      while (b.size() % 8 != 0) b.push_back(0);
    }
    std::vector<u8> out(b.size() / 8, 0);
    for (std::size_t i = 0; i < b.size(); ++i) {
      out[i / 8] = static_cast<u8>(out[i / 8] | (b[i] << (7 - i % 8)));
    }
    return out;
  }
};

/// Writes `n` random codes — single bits, 0..32-bit fields, ue(v) across
/// every code length up to v = 2^32 - 1, se(v) — into both.
void random_codes(Rng& rng, int n, BitWriter& bw, BitOracle& oracle) {
  for (int i = 0; i < n; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0: {
        const int bit = static_cast<int>(rng.uniform_int(0, 1));
        bw.put_bit(bit);
        oracle.put_bits(static_cast<u32>(bit), 1);
        break;
      }
      case 1: {
        const int count = static_cast<int>(rng.uniform_int(0, 32));
        const u32 value = static_cast<u32>(rng.next());  // high bits ignored
        bw.put_bits(value, count);
        oracle.put_bits(count == 32 ? value : value & ((1u << count) - 1),
                        count);
        break;
      }
      case 2: {
        const int width = static_cast<int>(rng.uniform_int(0, 32));
        u32 v = width == 0 ? 0u : static_cast<u32>(rng.next() >> (64 - width));
        if (rng.uniform_int(0, 15) == 0) v = 0xFFFFFFFFu;
        bw.put_ue(v);
        oracle.put_ue(v);
        break;
      }
      default: {
        const i32 v = static_cast<i32>(rng.uniform_int(-100000, 100000));
        bw.put_se(v);
        oracle.put_ue(v <= 0 ? static_cast<u32>(-2 * static_cast<i64>(v))
                             : static_cast<u32>(2 * static_cast<i64>(v) - 1));
        break;
      }
    }
  }
}

TEST(Bitstream, WriterMatchesBitAtATimeOracle) {
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    BitWriter bw;
    BitOracle oracle;
    random_codes(rng, static_cast<int>(rng.uniform_int(0, 300)), bw, oracle);
    EXPECT_EQ(bw.bit_count(), oracle.bits.size()) << "round " << round;
    bw.finish();
    ASSERT_EQ(bw.bytes(), oracle.finished()) << "round " << round;
  }
}

TEST(Bitstream, AppendSplicesAtEveryBitOffset) {
  Rng rng(2025);
  for (int offset = 0; offset < 8; ++offset) {
    for (int round = 0; round < 40; ++round) {
      BitWriter head;
      BitOracle oracle;
      // `offset` bits past some whole bytes (none at all in round 0).
      const u32 whole_bytes = round == 0 ? 0u : static_cast<u32>(rng.uniform_int(0, 5));
      for (u32 b = 0; b < whole_bytes; ++b) {
        const u32 byte = static_cast<u32>(rng.uniform_int(0, 255));
        head.put_bits(byte, 8);
        oracle.put_bits(byte, 8);
      }
      const u32 lead = static_cast<u32>(rng.uniform_int(0, 255)) & ((1u << offset) - 1);
      head.put_bits(lead, offset);
      oracle.put_bits(lead, offset);
      // Every other round splices an empty writer.
      BitWriter row;
      if (round % 2 == 1) {
        random_codes(rng, static_cast<int>(rng.uniform_int(1, 120)), row, oracle);
      }
      const std::size_t row_bits = row.bit_count();
      head.append(row);
      EXPECT_EQ(row.bit_count(), row_bits) << "append leaves its source alone";
      random_codes(rng, static_cast<int>(rng.uniform_int(0, 10)), head, oracle);
      EXPECT_EQ(head.bit_count(), oracle.bits.size())
          << "offset " << offset << ", round " << round;
      head.finish();
      ASSERT_EQ(head.bytes(), oracle.finished())
          << "offset " << offset << ", round " << round;
    }
  }
}

TEST(Bitstream, ClearKeepsNothingButCapacity) {
  BitWriter bw;
  bw.put_bits(0xABCDE, 20);
  bw.clear();
  EXPECT_EQ(bw.bit_count(), 0u);
  bw.put_ue(2);  // '011'
  bw.finish();
  ASSERT_EQ(bw.bytes().size(), 1u);
  EXPECT_EQ(bw.bytes()[0], 0b01110000);
}

// ---- CAVLC --------------------------------------------------------------

void roundtrip(const i16 in[16]) {
  BitWriter bw;
  const int tc = cavlc_encode_4x4(bw, in);
  bw.finish();
  BitReader br(bw.bytes());
  i16 out[16];
  const int tc2 = cavlc_decode_4x4(br, out);
  EXPECT_EQ(tc, tc2);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(in[i], out[i]) << "coeff " << i;
}

TEST(Cavlc, AllZeroBlock) {
  i16 levels[16] = {};
  BitWriter bw;
  EXPECT_EQ(cavlc_encode_4x4(bw, levels), 0);
  bw.finish();
  EXPECT_LE(bw.bytes().size(), 1u);  // a zero block costs one ue(0) = 1 bit
  roundtrip(levels);
}

TEST(Cavlc, SingleDcCoefficient) {
  i16 levels[16] = {};
  levels[0] = 5;
  roundtrip(levels);
}

TEST(Cavlc, TrailingOnesOnly) {
  i16 levels[16] = {};
  levels[0] = 1;
  levels[1] = -1;
  levels[4] = 1;  // zig-zag: positions 0,1,2
  roundtrip(levels);
}

TEST(Cavlc, MixedLevelsAndZeroRuns) {
  i16 levels[16] = {};
  levels[0] = -7;
  levels[4] = 3;
  levels[2] = 1;
  levels[10] = -1;
  roundtrip(levels);
}

TEST(Cavlc, FullBlockMaxCoefficients) {
  i16 levels[16];
  for (int i = 0; i < 16; ++i) levels[i] = static_cast<i16>((i % 2) ? -3 - i : 3 + i);
  roundtrip(levels);
}

TEST(Cavlc, LargeLevelsUseEscape) {
  i16 levels[16] = {};
  levels[0] = 3000;
  levels[1] = -2900;
  levels[5] = 2;
  roundtrip(levels);
}

TEST(Cavlc, FourTrailingOnesOnlyThreeQualify) {
  // Five ±1 coefficients: only the last three (in scan order) are T1s, the
  // rest go through level coding.
  i16 levels[16] = {};
  levels[0] = 1;
  levels[1] = -1;
  levels[4] = 1;
  levels[8] = -1;
  levels[5] = 1;
  roundtrip(levels);
}

TEST(Cavlc, HighFrequencyOnlyCoefficient) {
  i16 levels[16] = {};
  levels[15] = -2;  // last zig-zag position: total_zeros = 15
  roundtrip(levels);
}

/// Exhaustive-ish property sweep over random sparse blocks at several
/// densities — the encoder/decoder pair must be the identity.
class CavlcRandom : public ::testing::TestWithParam<int> {};

TEST_P(CavlcRandom, RoundTripRandomBlocks) {
  const int density = GetParam();  // coefficients per block
  Rng rng(static_cast<u64>(density) * 7001 + 17);
  for (int trial = 0; trial < 300; ++trial) {
    i16 levels[16] = {};
    for (int c = 0; c < density; ++c) {
      const int pos = static_cast<int>(rng.uniform_int(0, 15));
      const int mag_class = static_cast<int>(rng.uniform_int(0, 3));
      const i64 mag = mag_class == 0   ? 1
                      : mag_class == 1 ? rng.uniform_int(1, 3)
                      : mag_class == 2 ? rng.uniform_int(1, 40)
                                       : rng.uniform_int(1, 3500);
      levels[pos] = static_cast<i16>(rng.uniform_int(0, 1) ? mag : -mag);
    }
    roundtrip(levels);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, CavlcRandom,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 16));

TEST(Cavlc, StreamOfManyBlocksStaysInSync) {
  // Decoding must consume exactly the bits encoding produced, block after
  // block, with no drift.
  Rng rng(4242);
  std::vector<std::array<i16, 16>> blocks(200);
  BitWriter bw;
  for (auto& blk : blocks) {
    blk.fill(0);
    const int n = static_cast<int>(rng.uniform_int(0, 6));
    for (int c = 0; c < n; ++c) {
      blk[static_cast<std::size_t>(rng.uniform_int(0, 15))] =
          static_cast<i16>(rng.uniform_int(-9, 9));
    }
    cavlc_encode_4x4(bw, blk.data());
  }
  bw.finish();
  BitReader br(bw.bytes());
  for (const auto& blk : blocks) {
    i16 out[16];
    cavlc_decode_4x4(br, out);
    EXPECT_EQ(std::memcmp(blk.data(), out, sizeof(out)), 0);
  }
}

}  // namespace
}  // namespace feves
