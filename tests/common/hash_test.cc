#include "common/hash.h"

#include <gtest/gtest.h>

#include <string>

namespace domd {
namespace {

// Usable in constant expressions.
static_assert(Fnv1a64("a") == 0xaf63dc4c8601ec8cull);

// The published FNV-1a 64 test vectors.
TEST(HashTest, Fnv1a64MatchesStandardVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(HashTest, SeedContinuesADigest) {
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
  EXPECT_EQ(Fnv1a64("", 12345u), 12345u);
}

TEST(HashTest, HashesBytesAboveSevenBitsUnsigned) {
  // Bytes >= 0x80 must fold in as unsigned, whatever char's signedness.
  const std::string high("\xFF", 1);
  EXPECT_EQ(Fnv1a64(high), (kFnv1aOffset ^ 0xFFull) * kFnv1aPrime);
}

}  // namespace
}  // namespace domd
