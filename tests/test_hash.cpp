#include "sig/hash.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

namespace symbiosis::sig {
namespace {

class IndexHashTest : public testing::TestWithParam<HashKind> {};

TEST_P(IndexHashTest, IndexInRange) {
  const IndexHash h(GetParam(), 4096);
  for (LineAddr line = 0; line < 10000; line += 7) {
    EXPECT_LT(h.index(line), 4096u);
  }
  // High address bits (process bases at 1 TiB boundaries) must still land
  // inside the filter.
  EXPECT_LT(h.index((LineAddr{5} << 34) + 1234), 4096u);
}

TEST_P(IndexHashTest, Deterministic) {
  const IndexHash a(GetParam(), 1024);
  const IndexHash b(GetParam(), 1024);
  for (LineAddr line = 0; line < 100; ++line) EXPECT_EQ(a.index(line), b.index(line));
}

TEST_P(IndexHashTest, SpreadsSequentialLines) {
  // Any sane cache-index hash maps 4096 consecutive lines onto ~all of a
  // 4096-entry filter (modulo is exactly bijective; the XOR family nearly).
  const IndexHash h(GetParam(), 4096);
  std::set<std::size_t> hit;
  for (LineAddr line = 0; line < 4096; ++line) hit.insert(h.index(line));
  // Modulo/XOR-fold are bijective on this range; multiplicative mixing is
  // merely low-discrepancy (~89%), so the floor is set at 85%.
  EXPECT_GT(hit.size(), 4096u * 85 / 100);
}

TEST_P(IndexHashTest, DerivedHashesDiffer) {
  const IndexHash h(GetParam(), 4096);
  int same01 = 0, same02 = 0;
  for (LineAddr line = 0; line < 500; ++line) {
    same01 += h.index_k(line, 0) == h.index_k(line, 1);
    same02 += h.index_k(line, 0) == h.index_k(line, 2);
  }
  EXPECT_LT(same01, 50);
  EXPECT_LT(same02, 50);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, IndexHashTest,
                         testing::Values(HashKind::Xor, HashKind::XorInverseReverse,
                                         HashKind::Modulo, HashKind::Multiply),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(IndexHash, ModuloIsExactRemainder) {
  const IndexHash h(HashKind::Modulo, 1000);  // non-power-of-two allowed
  EXPECT_EQ(h.index(1234), 234u);
  EXPECT_EQ(h.index(999), 999u);
}

TEST(IndexHash, XorFoldKnownValue) {
  // entries=16 -> 4-bit chunks. line 0xAB = 1010_1011 -> A^B = 0001.
  const IndexHash h(HashKind::Xor, 16);
  EXPECT_EQ(h.index(0xAB), 0xAu ^ 0xBu);
}

TEST(IndexHash, InverseReverseRelatesToXor) {
  const IndexHash plain(HashKind::Xor, 256);
  const IndexHash invrev(HashKind::XorInverseReverse, 256);
  // For every line the inv-rev index must be the bit-reversed complement of
  // the plain XOR index (an 8-bit permutation of the index space).
  for (LineAddr line = 0; line < 300; ++line) {
    std::size_t x = plain.index(line);
    std::size_t expected = 0;
    x = ~x & 0xff;
    for (int bit = 0; bit < 8; ++bit) {
      expected = (expected << 1) | ((x >> bit) & 1);
    }
    EXPECT_EQ(invrev.index(line), expected) << line;
  }
}

TEST(IndexHash, RejectsNonPow2ForXorFamily) {
  EXPECT_THROW(IndexHash(HashKind::Xor, 1000), std::invalid_argument);
  EXPECT_THROW(IndexHash(HashKind::XorInverseReverse, 48), std::invalid_argument);
  EXPECT_THROW(IndexHash(HashKind::Multiply, 3), std::invalid_argument);
  EXPECT_NO_THROW(IndexHash(HashKind::Modulo, 1000));
}

TEST(IndexHash, RejectsZeroEntries) {
  EXPECT_THROW(IndexHash(HashKind::Xor, 0), std::invalid_argument);
}

TEST(IndexHash, RejectsSingleEntryForFoldingKinds) {
  // One entry is a zero-bit index: the XOR fold would never advance and
  // the multiplicative shift would be by 64.
  for (const HashKind kind : {HashKind::Xor, HashKind::XorInverseReverse, HashKind::Multiply}) {
    EXPECT_THROW(IndexHash(kind, 1), std::invalid_argument) << to_string(kind);
  }
  const IndexHash modulo(HashKind::Modulo, 1);
  EXPECT_EQ(modulo.index(12345), 0u);
}

TEST(IndexHash, PresenceIsNotAnAddressHash) {
  EXPECT_THROW(IndexHash(HashKind::Presence, 4096), std::invalid_argument);
}

TEST(HashKindNames, RoundTrip) {
  for (const HashKind kind : {HashKind::Xor, HashKind::XorInverseReverse, HashKind::Modulo,
                              HashKind::Presence, HashKind::Multiply}) {
    EXPECT_EQ(parse_hash_kind(to_string(kind)), kind);
  }
  EXPECT_THROW((void)parse_hash_kind("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace symbiosis::sig
