// Crc32 is the checksum on every record the session store appends, so its
// values are part of the on-disk format: a faster implementation must
// reproduce them bit for bit. These cases pin it to the published check
// values and to a bit-at-a-time reference over many lengths and alignments.

#include "topkpkg/common/crc32.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace topkpkg {
namespace {

// CRC-32 (IEEE 802.3, reflected) one bit at a time, straight from the
// polynomial: no table, nothing shared with the implementation under test.
std::uint32_t ReferenceCrc32(const unsigned char* data, std::size_t len,
                             std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (c >> 1) ^ 0xEDB88320u : c >> 1;
    }
  }
  return ~c;
}

std::uint32_t Crc32Of(const std::string& s, std::uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(Crc32Of("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32Of("a"), 0xE8B7BE43u);
  EXPECT_EQ(Crc32Of("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, EmptyInputReturnsTheSeed) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
  EXPECT_EQ(Crc32Of("", 0x12345678u), 0x12345678u);
}

TEST(Crc32, SeedChainsAcrossEverySplit) {
  const std::string text = "123456789 and then some more bytes to split";
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::uint32_t head = Crc32(text.data(), cut);
    EXPECT_EQ(Crc32(text.data() + cut, text.size() - cut, head),
              Crc32Of(text))
        << "cut at " << cut;
  }
  // Three pieces chain the same way.
  const std::uint32_t a = Crc32(text.data(), 5);
  const std::uint32_t ab = Crc32(text.data() + 5, 11, a);
  EXPECT_EQ(Crc32(text.data() + 16, text.size() - 16, ab), Crc32Of(text));
}

TEST(Crc32, MatchesBitwiseReferenceOverLengthsAndAlignments) {
  std::mt19937_64 rng(20260417);
  std::uniform_int_distribution<int> byte(0, 255);
  // Room for the longest length at the largest offset.
  std::vector<unsigned char> buf(4096 + 64);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(byte(rng));
  std::uniform_int_distribution<std::size_t> length(0, 4096);
  std::uniform_int_distribution<std::size_t> offset(0, 63);
  std::uniform_int_distribution<std::uint32_t> seed;
  // Every short length at every alignment within a 16-byte block, then
  // random long ones, each with a zero and a random seed.
  for (std::size_t len = 0; len <= 64; ++len) {
    for (std::size_t off = 0; off < 16; ++off) {
      const unsigned char* p = buf.data() + off;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len, 0))
          << "len " << len << " offset " << off;
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = length(rng);
    const std::size_t off = offset(rng);
    const std::uint32_t s = seed(rng);
    const unsigned char* p = buf.data() + off;
    ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len, 0))
        << "len " << len << " offset " << off;
    ASSERT_EQ(Crc32(p, len, s), ReferenceCrc32(p, len, s))
        << "len " << len << " offset " << off << " seed " << s;
  }
}

}  // namespace
}  // namespace topkpkg
