// Golden-file coverage for the trace serialization (sim/workload.h),
// following the io_golden_test pattern: the committed corpus under
// tests/data/trace_corpus must match a fresh in-memory generation
// byte-for-byte (generation is a pure function of its seed). Regenerate the
// corpus after an intentional format change with:
//   WOLT_REGEN_TRACE_GOLDEN=1 ./tests/workload_golden_test
#include "sim/workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/scenario.h"
#include "util/fileio.h"
#include "util/rng.h"

#ifndef WOLT_TEST_DATA_DIR
#error "WOLT_TEST_DATA_DIR must point at tests/data"
#endif

namespace wolt::sim {
namespace {

namespace fs = std::filesystem;

fs::path DataDir() { return fs::path(WOLT_TEST_DATA_DIR); }

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool RegenRequested() {
  const char* env = std::getenv("WOLT_REGEN_TRACE_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

struct CorpusEntry {
  std::string name;
  WorkloadParams params;
  std::uint64_t seed = 0;
};

// The committed corpus: one trace per mobility model, covering every load
// curve and the background-traffic channel. Small horizons keep the files
// reviewable.
std::vector<CorpusEntry> Corpus() {
  std::vector<CorpusEntry> entries;

  CorpusEntry teleport;
  teleport.name = "teleport_constant.trace";
  teleport.params.horizon = 5.0;
  teleport.params.arrival_rate = 1.0;
  teleport.params.mean_session = 4.0;
  teleport.params.initial_users = 2;
  teleport.params.mobility.model = MobilityModel::kTeleport;
  teleport.params.move_tick = 1.0;
  teleport.seed = 101;
  entries.push_back(teleport);

  CorpusEntry waypoint;
  waypoint.name = "waypoint_diurnal.trace";
  waypoint.params.horizon = 5.0;
  waypoint.params.arrival_rate = 1.0;
  waypoint.params.mean_session = 4.0;
  waypoint.params.initial_users = 2;
  waypoint.params.mobility.model = MobilityModel::kWaypoint;
  waypoint.params.move_tick = 1.0;
  waypoint.params.load = LoadCurve::kDiurnal;
  waypoint.params.load_period = 4.0;
  waypoint.seed = 202;
  entries.push_back(waypoint);

  CorpusEntry hotspot;
  hotspot.name = "hotspot_bursty_bg.trace";
  hotspot.params.horizon = 5.0;
  hotspot.params.arrival_rate = 1.0;
  hotspot.params.mean_session = 4.0;
  hotspot.params.initial_users = 2;
  hotspot.params.mobility.model = MobilityModel::kHotspot;
  hotspot.params.move_tick = 1.0;
  hotspot.params.load = LoadCurve::kBursty;
  hotspot.params.burst_rate = 1.0;
  hotspot.params.background_share = 0.5;
  hotspot.seed = 303;
  entries.push_back(hotspot);

  return entries;
}

// The corpus topology: fixed scenario, fixed seed — regeneration and
// verification must agree on the base network bit-for-bit.
model::Network CorpusNetwork(const ScenarioGenerator& generator) {
  util::Rng rng(424242);
  return generator.Generate(rng);
}

ScenarioGenerator CorpusGenerator() {
  ScenarioParams p;
  p.num_extenders = 3;
  p.num_users = 0;
  return ScenarioGenerator(p);
}

TEST(WorkloadGoldenTest, CorpusMatchesGeneration) {
  const ScenarioGenerator generator = CorpusGenerator();
  const model::Network base = CorpusNetwork(generator);
  const fs::path dir = DataDir() / "trace_corpus";

  if (RegenRequested()) {
    fs::create_directories(dir);
    for (const CorpusEntry& entry : Corpus()) {
      const WorkloadTrace trace =
          GenerateTrace(generator, base, entry.params, entry.seed);
      const io::IoStatus st = util::WriteFileAtomic(
          (dir / entry.name).string(), TraceToString(trace));
      ASSERT_TRUE(st.ok()) << st.Message();
    }
    GTEST_SKIP() << "regenerated trace corpus under " << dir;
  }

  for (const CorpusEntry& entry : Corpus()) {
    const std::string golden = ReadFile(dir / entry.name);
    ASSERT_FALSE(golden.empty()) << dir / entry.name;

    // Generation is a pure function of (scenario, params, seed): a fresh
    // generation must reproduce the committed bytes exactly. A mismatch
    // means the generator or the format drifted — regenerate deliberately
    // with WOLT_REGEN_TRACE_GOLDEN=1 and review the diff.
    const WorkloadTrace fresh =
        GenerateTrace(generator, base, entry.params, entry.seed);
    EXPECT_EQ(TraceToString(fresh), golden) << entry.name;
  }
}

}  // namespace
}  // namespace wolt::sim
