#include "common/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace domd {
namespace {

Flags Parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return ParseFlags(static_cast<int>(argv.size()), argv.data(), 0);
}

TEST(FlagsTest, ReadsCheckedValuesAndFallbacks) {
  const Flags flags = Parse({"--port", "8080", "--ratio", "0.25", "stray",
                             "--seed", "7", "--name", "x"});
  EXPECT_EQ(IntFlag<int>(flags, "port", 1, 0, 65535), 8080);
  EXPECT_EQ(IntFlag<std::uint64_t>(flags, "seed", 0), 7u);
  EXPECT_EQ(IntFlag<std::size_t>(flags, "absent", 42), 42u);
  EXPECT_DOUBLE_EQ(DoubleFlag(flags, "ratio", 1.0), 0.25);
  EXPECT_DOUBLE_EQ(DoubleFlag(flags, "absent", 1.5), 1.5);
  EXPECT_EQ(FlagOr(flags, "name", ""), "x");
  EXPECT_EQ(flags.count("stray"), 0u);
}

TEST(FlagsDeathTest, MalformedIntegerExitsTwo) {
  const Flags flags = Parse({"--port", "abc"});
  EXPECT_EXIT(IntFlag<int>(flags, "port", 7433),
              ::testing::ExitedWithCode(2), "error: --port: not an integer");
}

TEST(FlagsDeathTest, OutOfRangeIntegerExitsTwo) {
  EXPECT_EXIT(IntFlag<int>(Parse({"--port", "70000"}), "port", 0, 0, 65535),
              ::testing::ExitedWithCode(2),
              "error: --port: 70000 is outside \\[0, 65535\\]");
  EXPECT_EXIT(IntFlag<std::size_t>(Parse({"--workers", "-1"}), "workers", 4),
              ::testing::ExitedWithCode(2), "error: --workers: -1 is outside");
  EXPECT_EXIT(IntFlag<int>(Parse({"--k", "99999999999"}), "k", 60),
              ::testing::ExitedWithCode(2),
              "error: --k: 99999999999 is outside");
}

TEST(FlagsDeathTest, MalformedOrNonFiniteDoubleExitsTwo) {
  EXPECT_EXIT(DoubleFlag(Parse({"--t", "60days"}), "t", 100),
              ::testing::ExitedWithCode(2), "error: --t: not a number");
  EXPECT_EXIT(DoubleFlag(Parse({"--t", "nan"}), "t", 100),
              ::testing::ExitedWithCode(2), "error: --t: nan is not finite");
}

TEST(FlagsDeathTest, FlagWithoutValueExitsTwo) {
  EXPECT_EXIT(Parse({"--bundle", "dir", "--port"}),
              ::testing::ExitedWithCode(2), "error: --port: missing value");
}

}  // namespace
}  // namespace domd
