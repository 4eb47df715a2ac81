// End-to-end profiling smoke check: runs the quickstart example with
// DGFLOW_PROFILE=1 and verifies that the archived JSON report parses, shows a
// deep timer hierarchy with nonzero timings, and carries the solver counters.
// The quickstart binary path is injected by CMake via DGFLOW_QUICKSTART_PATH.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "instrumentation/report.h"

using namespace dgflow;

namespace
{
std::string slurp(const std::string &path)
{
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}
} // namespace

TEST(ProfileSmoke, QuickstartEmitsValidProfileJson)
{
  const std::string json_path = "profile_smoke.json";
  const std::string stdout_path = "profile_smoke_stdout.txt";
  std::remove(json_path.c_str());

  const std::string cmd = "env DGFLOW_PROFILE=1 DGFLOW_PROFILE_JSON=" +
                          json_path + " " DGFLOW_QUICKSTART_PATH " 2 2 > " +
                          stdout_path + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << slurp(stdout_path);

  // the console table was printed alongside the JSON archive
  const std::string console = slurp(stdout_path);
  EXPECT_NE(console.find("profile: scoped timers"), std::string::npos);
  EXPECT_NE(console.find("profile: counters"), std::string::npos);

  const std::string text = slurp(json_path);
  ASSERT_FALSE(text.empty()) << "quickstart did not write " << json_path;
  const prof::ProfileReport report = prof::ProfileReport::parse_json(text);

  // the hierarchy resolves cg -> mg_vcycle -> levels -> smoother
  EXPECT_GE(report.depth(), 4u);
  ASSERT_FALSE(report.timers.empty());
  const auto *cg = report.find("cg");
  ASSERT_NE(cg, nullptr);
  EXPECT_GT(cg->count, 0ul);
  EXPECT_GT(cg->total, 0.);
  const auto *vcycle = report.find("cg/mg_vcycle");
  ASSERT_NE(vcycle, nullptr);
  EXPECT_GT(vcycle->count, 0ul);
  EXPECT_GT(vcycle->total, 0.);
  EXPECT_LE(vcycle->total, cg->total);

  // solver + matrix-free counters are populated
  EXPECT_GT(report.counters.at("cg_iterations"), 0ll);
  EXPECT_GT(report.counters.at("mf_cell_batches"), 0ll);
  EXPECT_GT(report.counters.at("mf_dofs"), 0ll);

  // roofline counters from MatrixFree::reinit (the quickstart mesh is
  // deformed, so the metric stays uncompressed - assert presence and sane
  // ranges, not a ratio below 1)
  EXPECT_GT(report.counters.at("mf_metric_bytes_stored"), 0ll);
  EXPECT_GE(report.counters.at("mf_metric_bytes_full"),
            report.counters.at("mf_metric_bytes_stored"));

  // gauges: compression ratio, face lane fill, and per-operator throughput
  EXPECT_GT(report.gauges.at("mf_metric_compression"), 0.);
  EXPECT_LE(report.gauges.at("mf_metric_compression"), 1.0 + 1e-12);
  EXPECT_GT(report.gauges.at("mf_face_lane_fill"), 0.);
  EXPECT_LE(report.gauges.at("mf_face_lane_fill"), 1.0 + 1e-12);
  EXPECT_GT(report.gauges.at("laplace_dofs_per_s"), 0.);
  EXPECT_GT(report.gauges.at("laplace_bytes_per_dof"), 0.);
  EXPECT_NE(console.find("profile: gauges"), std::string::npos);

  std::remove(json_path.c_str());
  std::remove(stdout_path.c_str());
}
