// Replays the checked-in reproducers under tests/regressions/.  Each .scn is
// a world on which some engine path once disagreed with the from-scratch
// analysis (the file's comment says which).  For every file, the engine's
// result with all flows added, and after each single removal, must equal
// the from-scratch analysis of the same flow set bit for bit: verdict,
// fixed-point jitters and every frame's response.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "engine/analysis_engine.hpp"
#include "io/scenario_io.hpp"

namespace gmfnet::engine {
namespace {

void expect_bit_identical(const core::HolisticResult& inc,
                          const core::HolisticResult& cold,
                          const std::string& where) {
  ASSERT_EQ(inc.converged, cold.converged) << where;
  ASSERT_EQ(inc.schedulable, cold.schedulable) << where;
  if (!inc.converged) return;
  EXPECT_TRUE(inc.jitters == cold.jitters)
      << where << ": jitter fixed points differ";
  ASSERT_EQ(inc.flows.size(), cold.flows.size()) << where;
  for (std::size_t f = 0; f < inc.flows.size(); ++f) {
    ASSERT_EQ(inc.flows[f].frames.size(), cold.flows[f].frames.size());
    for (std::size_t k = 0; k < inc.flows[f].frames.size(); ++k) {
      EXPECT_EQ(inc.flows[f].frames[k].response,
                cold.flows[f].frames[k].response)
          << where << ": flow " << f << " frame " << k;
    }
  }
}

std::vector<std::filesystem::path> reproducers() {
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::directory_iterator(
           std::filesystem::path(GMFNET_TESTS_DIR) / "regressions")) {
    if (e.path().extension() == ".scn") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Regressions, EveryRemovalMatchesFromScratch) {
  const std::vector<std::filesystem::path> files = reproducers();
  ASSERT_FALSE(files.empty()) << "no reproducers under tests/regressions";
  for (const std::filesystem::path& path : files) {
    const workload::Scenario sc = io::load_scenario(path.string());
    const std::string name = path.filename().string();
    for (std::size_t gone = 0; gone < sc.flows.size(); ++gone) {
      AnalysisEngine eng(sc.network);
      for (const gmf::Flow& f : sc.flows) eng.add_flow(f);
      expect_bit_identical(
          eng.evaluate(),
          core::analyze_holistic(core::AnalysisContext(sc.network, sc.flows)),
          name + " with every flow");
      std::vector<gmf::Flow> rest = sc.flows;
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(gone));
      ASSERT_TRUE(eng.remove_flow(gone));
      expect_bit_identical(
          eng.evaluate(),
          core::analyze_holistic(core::AnalysisContext(sc.network, rest)),
          name + " without flow " + std::to_string(gone));
    }
  }
}

}  // namespace
}  // namespace gmfnet::engine
