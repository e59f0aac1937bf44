// Seeded mutation fuzz of the bundle MANIFEST. A fixed seed draws a fixed
// budget of mutants of a real v2 manifest: byte flips, truncations,
// dropped, duplicated and reordered lines, huge and negative numbers, the
// v1 magic, and unknown records. Every mutant goes through both readers of
// a bundle, ModelBundle::Load and CopyBundleDurable. Each must answer OK
// or a non-OK Status (never crash), a copy that fails must leave nothing
// under its destination, and a copy that succeeds must reproduce the
// manifest byte for byte and load exactly as its source does.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "serve/model_bundle.h"
#include "serve/serve_test_fixture.h"

namespace domd {
namespace {

using testing_internal::GetServeFixture;

constexpr std::uint64_t kSeed = 20261017;
constexpr int kBudget = 500;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A private copy of the fixture's v1 bundle whose MANIFEST the test
/// rewrites freely, plus a destination path for CopyBundleDurable.
struct Scratch {
  std::string src;
  std::string dest;
  std::string manifest;  ///< the real v2 manifest bytes.
};

Scratch MakeScratch(const std::string& name) {
  Scratch scratch;
  const std::string root = ::testing::TempDir() + "/domd_manifest_" + name;
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  scratch.src = root + "/src";
  scratch.dest = root + "/dest";
  std::filesystem::copy(GetServeFixture().dir_v1, scratch.src,
                        std::filesystem::copy_options::recursive);
  scratch.manifest = ReadFile(scratch.src + "/MANIFEST");
  return scratch;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

std::size_t Pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
}

/// Applies one randomly drawn mutation operator to `text`.
std::string MutateOnce(const std::string& text, Rng& rng) {
  static const char* const kNumbers[] = {
      "0",  "-1", "-18446744073709551615", "18446744073709551615",
      "18446744073709551616", "99999999999999999999999999999999", "+7",
      "1e9", "0x10", " 3", "3 ", ""};
  std::vector<std::string> lines = Lines(text);
  switch (rng.UniformInt(0, 9)) {
    case 0: {  // flip one bit of one byte.
      if (text.empty()) return text;
      std::string out = text;
      const std::size_t at = Pick(rng, out.size());
      out[at] = static_cast<char>(out[at] ^ (1 << rng.UniformInt(0, 7)));
      return out;
    }
    case 1:  // truncate anywhere.
      return text.substr(0, Pick(rng, text.size() + 1));
    case 2:  // drop a line.
      if (!lines.empty()) lines.erase(lines.begin() + Pick(rng, lines.size()));
      return Join(lines);
    case 3:  // duplicate a line in place.
      if (!lines.empty()) {
        const std::size_t at = Pick(rng, lines.size());
        lines.insert(lines.begin() + at, lines[at]);
      }
      return Join(lines);
    case 4:  // swap two lines.
      if (!lines.empty()) {
        std::swap(lines[Pick(rng, lines.size())],
                  lines[Pick(rng, lines.size())]);
      }
      return Join(lines);
    case 5:  // a huge, negative or malformed number as a record's value.
      if (!lines.empty()) {
        std::string& line = lines[Pick(rng, lines.size())];
        const std::size_t space = line.rfind(' ');
        line = line.substr(0, space == std::string::npos ? 0 : space + 1) +
               kNumbers[Pick(rng, std::size(kNumbers))];
      }
      return Join(lines);
    case 6:  // the v1 magic.
      if (!lines.empty()) lines[0] = "domd_bundle v1";
      return Join(lines);
    case 7:  // a checksum naming a file the bundle does not have.
      lines.push_back("checksum extra.bin 42");
      return Join(lines);
    case 8:  // an unknown record.
      lines.insert(lines.begin() + Pick(rng, lines.size() + 1),
                   "compression zstd");
      return Join(lines);
    default:  // random bytes spliced in.
    {
      std::string out = text;
      std::string junk;
      for (std::int64_t n = rng.UniformInt(1, 8); n > 0; --n) {
        junk += static_cast<char>(rng.UniformInt(0, 255));
      }
      out.insert(Pick(rng, out.size() + 1), junk);
      return out;
    }
  }
}

bool DestinationUntouched(const std::string& dest) {
  return !std::filesystem::exists(dest) &&
         !std::filesystem::exists(dest + ".tmp");
}

TEST(ManifestFuzzTest, MutantsLoadOrFailCleanlyAndCopiesAreAllOrNothing) {
  Scratch scratch = MakeScratch("fuzz");
  Rng rng(kSeed);
  int loaded = 0, copied = 0;
  for (int i = 0; i < kBudget; ++i) {
    std::string mutant = scratch.manifest;
    for (std::int64_t n = rng.UniformInt(1, 3); n > 0; --n) {
      mutant = MutateOnce(mutant, rng);
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + ":\n" + mutant);
    WriteFile(scratch.src + "/MANIFEST", mutant);

    const auto load = ModelBundle::Load(scratch.src);
    std::filesystem::remove_all(scratch.dest);
    const Status copy = CopyBundleDurable(scratch.src, scratch.dest);
    if (load.ok()) {
      ++loaded;
      // Load is the stricter reader: whatever it accepts, a copy accepts.
      EXPECT_TRUE(copy.ok()) << copy;
    }
    if (!copy.ok()) {
      EXPECT_TRUE(DestinationUntouched(scratch.dest)) << copy;
      continue;
    }
    ++copied;
    EXPECT_EQ(ReadFile(scratch.dest + "/MANIFEST"), mutant);
    const auto reload = ModelBundle::Load(scratch.dest);
    EXPECT_EQ(reload.status().code(), load.status().code());
  }
  RecordProperty("loaded", loaded);
  RecordProperty("copied", copied);
  // The mutants are not all rejected, nor all accepted: both paths ran.
  EXPECT_GT(copied, 0);
  EXPECT_LT(copied, kBudget);
  EXPECT_LT(loaded, kBudget);
}

TEST(ManifestFuzzTest, MissingChecksumRecordFailsCopyBeforeAnyWrite) {
  Scratch scratch = MakeScratch("missing_sum");
  const std::vector<std::string> lines = Lines(scratch.manifest);
  int checksum_lines = 0;
  for (std::size_t drop = 0; drop < lines.size(); ++drop) {
    if (lines[drop].rfind("checksum ", 0) != 0) continue;
    ++checksum_lines;
    std::vector<std::string> kept = lines;
    kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(drop));
    WriteFile(scratch.src + "/MANIFEST", Join(kept));
    std::filesystem::remove_all(scratch.dest);
    EXPECT_EQ(CopyBundleDurable(scratch.src, scratch.dest).code(),
              StatusCode::kDataLoss)
        << lines[drop];
    EXPECT_TRUE(DestinationUntouched(scratch.dest)) << lines[drop];
    EXPECT_EQ(ModelBundle::Load(scratch.src).status().code(),
              StatusCode::kDataLoss);
  }
  EXPECT_EQ(checksum_lines, 3);
}

TEST(ManifestFuzzTest, UnknownChecksumRecordFailsCopyBeforeAnyWrite) {
  Scratch scratch = MakeScratch("unknown_sum");
  for (const std::string& mutant :
       {scratch.manifest + "checksum extra.bin 42\n",
        scratch.manifest + "checksum models.txt 42\n",
        scratch.manifest + "checksum avails.csv\n",
        scratch.manifest + "signature models.txt 42\n"}) {
    WriteFile(scratch.src + "/MANIFEST", mutant);
    std::filesystem::remove_all(scratch.dest);
    EXPECT_EQ(CopyBundleDurable(scratch.src, scratch.dest).code(),
              StatusCode::kInvalidArgument)
        << mutant;
    EXPECT_TRUE(DestinationUntouched(scratch.dest)) << mutant;
    EXPECT_EQ(ModelBundle::Load(scratch.src).status().code(),
              StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace domd
