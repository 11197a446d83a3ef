// Golden-file coverage for model/io: the checked-in corpus under
// tests/data/io_corpus must round-trip byte-for-byte (serialize -> parse ->
// serialize is the identity on serializer output), and every file under
// tests/data/io_malformed must be rejected with the typed error its name
// promises — never a crash. A byte-soup pass (controller_wire_fuzz style)
// then hammers the parser with mutated and random input.
#include "model/io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "util/rng.h"

#ifndef WOLT_TEST_DATA_DIR
#error "WOLT_TEST_DATA_DIR must point at tests/data"
#endif

namespace wolt::model {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

fs::path DataDir() { return fs::path(WOLT_TEST_DATA_DIR); }

TEST(IoGoldenTest, CorpusRoundTripsByteStable) {
  int files = 0;
  for (const auto& entry : fs::directory_iterator(DataDir() / "io_corpus")) {
    ++files;
    const std::string golden = ReadFile(entry.path());

    const LoadResult first = NetworkFromStringDetailed(golden);
    ASSERT_TRUE(first.ok())
        << entry.path() << ": " << ToString(first.error.kind) << " at line "
        << first.error.line << ": " << first.error.message;

    // The corpus was written by SaveNetwork, so parse -> serialize must
    // reproduce the file exactly...
    const std::string once = NetworkToString(*first.network);
    EXPECT_EQ(once, golden) << entry.path();

    // ...and serialize -> parse -> serialize must be a fixed point.
    const LoadResult second = NetworkFromStringDetailed(once);
    ASSERT_TRUE(second.ok()) << entry.path();
    EXPECT_EQ(NetworkToString(*second.network), once) << entry.path();
  }
  EXPECT_GE(files, 3) << "corpus went missing";
}

TEST(IoGoldenTest, MalformedCorpusRejectedWithTypedErrors) {
  const std::map<std::string, IoErrorKind> expected = {
      {"truncated.net", IoErrorKind::kTruncated},
      {"bad_header.net", IoErrorKind::kBadHeader},
      {"bad_version.net", IoErrorKind::kBadHeader},
      {"bad_count.net", IoErrorKind::kBadCount},
      {"bad_record.net", IoErrorKind::kBadRecord},
      {"bad_keyvalue.net", IoErrorKind::kBadKeyValue},
      {"bad_number.net", IoErrorKind::kBadNumber},
      {"negative_rate.net", IoErrorKind::kBadNumber},
      // Non-finite values: accepted by stod, fatal to the Evaluator's
      // aggregates — must die at load time with a typed error.
      {"inf_rate.net", IoErrorKind::kBadNumber},
      {"inf_plc.net", IoErrorKind::kBadNumber},
      {"nan_demand.net", IoErrorKind::kBadNumber},
      {"bad_dimension.net", IoErrorKind::kBadDimension},
      {"trailing.net", IoErrorKind::kTrailingInput},
      {"partial_rssi.net", IoErrorKind::kTruncated},
      // A pinned WiFi channel must be a whole number inside the plan range
      // (model::kMaxWifiChannels); each defect gets the typed kBadChannel.
      {"channel_out_of_range.net", IoErrorKind::kBadChannel},
      {"channel_negative.net", IoErrorKind::kBadChannel},
      {"channel_fractional.net", IoErrorKind::kBadChannel},
  };
  int files = 0;
  for (const auto& entry :
       fs::directory_iterator(DataDir() / "io_malformed")) {
    ++files;
    const auto it = expected.find(entry.path().filename().string());
    ASSERT_NE(it, expected.end())
        << entry.path() << " has no expected error kind; add it to the map";

    const LoadResult res = NetworkFromStringDetailed(ReadFile(entry.path()));
    EXPECT_FALSE(res.ok()) << entry.path();
    EXPECT_EQ(res.error.kind, it->second)
        << entry.path() << ": got " << ToString(res.error.kind) << " at line "
        << res.error.line << ": " << res.error.message;
    EXPECT_GT(res.error.line, 0) << entry.path();
    EXPECT_FALSE(res.error.message.empty()) << entry.path();
  }
  EXPECT_EQ(files, static_cast<int>(expected.size()));
}

// Byte-soup: mutated serializations and raw random bytes must always come
// back as ok-or-typed-error, and a successful parse must re-serialize
// without throwing.
TEST(IoGoldenTest, ByteSoupNeverCrashes) {
  const std::string base =
      ReadFile(DataDir() / "io_corpus" / "labelled_domains.net");
  util::Rng rng(987654321);

  for (int trial = 0; trial < 600; ++trial) {
    std::string text = base;
    const int mutations = rng.UniformInt(1, 8);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t pos = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(text.size()) - 1));
      switch (rng.UniformInt(0, 3)) {
        case 0:  // flip a bit
          text[pos] = static_cast<char>(text[pos] ^ (1 << rng.UniformInt(0, 7)));
          break;
        case 1:  // overwrite with a random byte
          text[pos] = static_cast<char>(rng.UniformInt(0, 255));
          break;
        case 2:  // delete
          text.erase(text.begin() + static_cast<std::ptrdiff_t>(pos));
          break;
        case 3:  // insert a random byte
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                      static_cast<char>(rng.UniformInt(0, 255)));
          break;
      }
    }
    const LoadResult res = NetworkFromStringDetailed(text);
    if (res.ok()) {
      EXPECT_NO_THROW(NetworkToString(*res.network));
    } else {
      EXPECT_NE(res.error.kind, IoErrorKind::kNone);
    }
  }

  for (int trial = 0; trial < 200; ++trial) {
    std::string text(static_cast<std::size_t>(rng.UniformInt(0, 400)), '\0');
    for (char& c : text) c = static_cast<char>(rng.UniformInt(0, 255));
    const LoadResult res = NetworkFromStringDetailed(text);
    if (!res.ok()) {
      EXPECT_NE(res.error.kind, IoErrorKind::kNone);
    }
  }
}

}  // namespace
}  // namespace wolt::model
