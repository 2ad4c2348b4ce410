// Tests for the SHA-1 substrate against FIPS 180-1 vectors, plus the
// consistent-hashing key derivation.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "hash/keys.hpp"
#include "hash/sha1.hpp"

namespace cycloid::hash {
namespace {

TEST(Sha1, EmptyString) {
  EXPECT_EQ(Sha1::to_hex(Sha1::digest("")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::to_hex(Sha1::digest("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(Sha1::to_hex(Sha1::digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(Sha1::to_hex(Sha1::digest(
                "The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, MillionAs) {
  Sha1 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(Sha1::to_hex(hasher.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalEqualsOneShot) {
  const std::string text = "Cycloid: a constant-degree DHT";
  for (std::size_t split = 0; split <= text.size(); ++split) {
    Sha1 hasher;
    hasher.update(text.substr(0, split));
    hasher.update(text.substr(split));
    EXPECT_EQ(hasher.finish(), Sha1::digest(text)) << "split=" << split;
  }
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 hasher;
  hasher.update("first");
  (void)hasher.finish();
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(Sha1::to_hex(hasher.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-new-block path.
  const std::string block(64, 'x');
  Sha1 incremental;
  for (char c : block) incremental.update(&c, 1);
  EXPECT_EQ(incremental.finish(), Sha1::digest(block));
}

TEST(Sha1, Digest64MatchesDigestPrefix) {
  const auto digest = Sha1::digest("node-17");
  std::uint64_t expected = 0;
  for (int i = 0; i < 8; ++i) expected = (expected << 8) | digest[static_cast<std::size_t>(i)];
  EXPECT_EQ(Sha1::digest64("node-17"), expected);
}

TEST(Sha1, PaddingBoundaries) {
  // Tails of 55 bytes (padding fits the block), 56 and 63 (padding spills
  // into one more block) and 64, one block later again at 119/120.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
  };
  for (const auto& [length, hex] : cases) {
    EXPECT_EQ(Sha1::to_hex(Sha1::digest(std::string(length, 'a'))), hex)
        << "length=" << length;
  }
}

TEST(Sha1, Digest64MatchesStreamingDigestAtEveryLength) {
  // Covers names whose padding fits their last block (<= 55 tail bytes),
  // the 56..63-byte tails whose padding spills into one more block, the
  // exact 64-byte block and multi-block names.
  std::string text;
  for (std::size_t length = 0; length <= 130; ++length) {
    Sha1 hasher;
    hasher.update(text);
    const Sha1::Digest digest = hasher.finish();
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < 8; ++i) expected = (expected << 8) | digest[i];
    EXPECT_EQ(Sha1::digest64(text), expected) << "length=" << length;
    text.push_back(static_cast<char>('a' + length % 26));
  }
}

TEST(Keys, HashNameIsDeterministic) {
  EXPECT_EQ(hash_name("alpha"), hash_name("alpha"));
  EXPECT_NE(hash_name("alpha"), hash_name("beta"));
}

TEST(Keys, HashIndexDistinct) {
  EXPECT_NE(hash_index(0), hash_index(1));
  EXPECT_EQ(hash_index(5), hash_name("key-5"));
}

TEST(Keys, ReduceStaysInSpace) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_LT(reduce(hash_index(i), 2048), 2048u);
  }
}

TEST(Keys, ReduceUnitHalfOpen) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double v = reduce_unit(hash_index(i));
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Keys, Fnv1aKnownValues) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace cycloid::hash
