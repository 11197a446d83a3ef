// Byte-pinned CentralController snapshot. SaveState output sits inside every
// WFL1 fleet snapshot record, so its layout is a resume contract: a
// controller driven through the fixed sequence below must write exactly the
// committed bytes in tests/data/controller_snapshot, and those bytes must
// restore into a fresh controller that writes them back unchanged. The
// round-trip test in controller_test compares a controller against its own
// restored twin, so only this file pins the layout on its own.
//
// The sequence is chosen to set every field SaveState writes: users with and
// without RSSI and demand, assigned and unassigned users, a directive given
// up after its last retry, pending directives after a retry, one extender
// that has never reported a capacity, a quarantine trip and release, and an
// extender still quarantined with its flips recorded. It also runs every
// reoptimization entry point, so the committed assignment pins what they
// decided.
//
// There is deliberately no regeneration switch. A diff here means fleet
// journals written by an older build no longer resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/controller.h"
#include "core/wolt.h"
#include "util/codec.h"

#ifndef WOLT_TEST_DATA_DIR
#error "WOLT_TEST_DATA_DIR must point at tests/data"
#endif

namespace wolt::core {
namespace {

namespace fs = std::filesystem;

fs::path SnapshotPath() {
  return fs::path(WOLT_TEST_DATA_DIR) / "controller_snapshot" /
         "controller.snap";
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

RetryParams SnapshotRetry() {
  RetryParams retry;
  retry.max_attempts = 3;
  return retry;
}

QuarantineParams SnapshotQuarantine() {
  QuarantineParams q;
  q.flap_threshold = 3;
  q.window = 40.0;
  q.hold = 6.0;
  return q;
}

CentralController MakeController() {
  return CentralController(4, std::make_unique<WoltPolicy>(), SnapshotRetry(),
                           SnapshotQuarantine());
}

// Four extenders; extender 3 never reports a capacity.
CentralController DriveController() {
  CentralController cc = MakeController();
  cc.HandleCapacityReport({0, 60.0});
  cc.HandleCapacityReport({1, 45.5});
  cc.HandleCapacityReport({2, 30.25});

  // Arrivals with and without RSSI and demand; 105 hears nothing and stays
  // unassigned.
  cc.HandleUserArrival({101, {15.0, 10.0, 8.0, 0.0}, {}, {}, {}});
  cc.HandleUserArrival({102,
                        {40.0, 20.0, 0.0, 5.0},
                        {-61.5, -70.25, -95.0, -88.0},
                        {},
                        12.5});
  cc.HandleUserArrival({103, {0.0, 25.0, 35.0, 0.0}, {}, {}, 7.75});
  cc.HandleUserArrival(
      {104, {22.0, 0.0, 18.0, 0.0}, {-58.0, -99.0, -64.5, -90.0}, {}, {}});
  cc.HandleUserArrival({105, {0.0, 0.0, 0.0, 0.0}, {}, {}, {}});

  // 101 and 102 acknowledge; the rest of the first directives go unacked
  // through every retry and are given up.
  for (const std::int64_t id : {101, 102}) {
    if (const auto e = cc.ExtenderOf(id)) cc.HandleDirectiveAck({id, *e});
  }
  for (const double t : {1.0, 3.0, 7.0, 15.0}) {
    cc.AdvanceTime(t);
    cc.CollectRetries();
  }

  // Extender 0 flips down and back up: two flips, one short of a trip.
  cc.AdvanceTime(16.0);
  cc.HandleCapacityReport({0, 0.0});
  cc.AdvanceTime(16.5);
  cc.HandleCapacityReport({0, 60.0});

  // Extender 1 flaps three times, trips, and is released after the hold.
  for (const double t : {17.0, 17.5, 18.0}) {
    cc.AdvanceTime(t);
    cc.HandleCapacityReport({1, t == 17.5 ? 44.0 : 0.0});
  }
  cc.HandleCapacityReport({1, 47.0});  // held while quarantined
  cc.AdvanceTime(25.0);

  // A mobile user refreshes its scan and reports where it is camped.
  cc.HandleScanUpdate({103, {5.0, 30.0, 12.0, 0.0}, {}, -1, 9.0});
  cc.Reoptimize();
  cc.ReoptimizeAtTier(ReoptTier::kHungarianOnly);
  cc.ReoptimizeAtTier(ReoptTier::kGreedy);

  // A departure shifts the indices behind it.
  cc.HandleUserDeparture(101);

  // Trace-style ingest: 106 is registered unassigned until the next epoch,
  // which places it.
  cc.IngestScan({106, {11.0, 0.0, 26.5, 3.0}, {}, {}, 20.0});
  cc.ReoptimizeUpToTier(ReoptTier::kFull);

  // Extender 2 flaps into quarantine and stays there.
  for (const double t : {26.0, 26.25, 26.5}) {
    cc.AdvanceTime(t);
    cc.HandleCapacityReport({2, t == 26.25 ? 30.25 : 0.0});
  }
  cc.ReoptimizeAtTier(ReoptTier::kFull);

  // 107 arrives after everything else; its directive is retried once and
  // still pending when the snapshot is taken. 108 is ingested and left
  // unassigned.
  cc.HandleUserArrival(
      {107, {0.0, 33.0, 0.0, 0.0}, {-99.0, -52.75, -99.0, -99.0}, {}, 4.0});
  cc.AdvanceTime(27.75);
  cc.CollectRetries();
  cc.IngestScan({108, {9.5, 9.5, 0.0, 0.0}, {}, {}, {}});
  return cc;
}

std::string SaveBytes(const CentralController& cc) {
  std::string blob;
  cc.SaveState(&blob);
  return blob;
}

TEST(ControllerSnapshot, SequenceSetsEveryField) {
  const CentralController cc = DriveController();
  EXPECT_TRUE(cc.network().HasRssi());
  EXPECT_GT(cc.DirectivesGivenUp(), 0u);
  EXPECT_GT(cc.PendingDirectives(), 0u);
  EXPECT_GT(cc.QuarantineReleases(), 0u);
  EXPECT_TRUE(cc.IsQuarantined(2));
  EXPECT_FALSE(cc.IsQuarantined(1));
  EXPECT_FALSE(cc.ExtenderOf(101).has_value());  // departed
  EXPECT_FALSE(cc.ExtenderOf(105).has_value());  // hears nothing
  EXPECT_FALSE(cc.ExtenderOf(108).has_value());  // ingested, not yet placed
  EXPECT_TRUE(cc.ExtenderOf(106).has_value());
  EXPECT_TRUE(cc.ExtenderOf(107).has_value());
}

TEST(ControllerSnapshot, SaveStateReproducesTheCommittedBytes) {
  const std::string want = ReadFile(SnapshotPath());
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(SaveBytes(DriveController()), want)
      << "the controller snapshot layout or a reoptimization outcome "
         "changed; fleet journals written by an older build would no "
         "longer resume";
}

TEST(ControllerSnapshot, CommittedBytesRestoreAndSaveBack) {
  const std::string want = ReadFile(SnapshotPath());
  ASSERT_FALSE(want.empty());
  CentralController restored = MakeController();
  util::ByteCursor cur(want);
  ASSERT_TRUE(restored.RestoreState(&cur));
  EXPECT_TRUE(cur.AtEnd());
  EXPECT_EQ(SaveBytes(restored), want);
}

}  // namespace
}  // namespace wolt::core
