// The run engine and the experiment drivers, including the headline
// Theorem 27 matrix property: predicted frontier == observed frontier.
#include "src/core/engine.h"

#include <gtest/gtest.h>

#include "src/core/experiments.h"
#include "src/core/solvability.h"

namespace setlib::core {
namespace {

TEST(EngineTest, FriendlySolvableRunSucceeds) {
  RunConfig cfg;
  cfg.spec = {2, 2, 5};
  cfg.system = matching_system(cfg.spec);
  cfg.seed = 3;
  const RunReport report = run_agreement(cfg);
  EXPECT_TRUE(report.success) << report.detail;
  EXPECT_LE(report.distinct_decisions, 2);
  EXPECT_LE(report.witness_bound, cfg.timeliness_bound);
  EXPECT_EQ(report.algorithm, "kanti-omega+paxos");
}

TEST(EngineTest, TrivialRegimeUsesTrivialAlgorithm) {
  RunConfig cfg;
  cfg.spec = {1, 2, 4};  // k > t
  cfg.system = {4, 4, 4};  // even fully asynchronous
  const RunReport report = run_agreement(cfg);
  EXPECT_TRUE(report.success) << report.detail;
  EXPECT_EQ(report.algorithm, "trivial");
  EXPECT_FALSE(report.detector.used);
}

TEST(EngineTest, FriendlyWithCrashes) {
  RunConfig cfg;
  cfg.spec = {2, 1, 4};
  cfg.system = matching_system(cfg.spec);  // S^1_{3,4}
  cfg.seed = 9;
  cfg.run_full_budget = true;  // let the planned crashes actually occur
  cfg.max_steps = 300'000;
  auto plan = sched::CrashPlan::none(4);
  plan.set_crash(3, 10'000);
  plan.set_crash(2, 40'000);
  cfg.crashes = plan;
  const RunReport report = run_agreement(cfg);
  EXPECT_TRUE(report.success) << report.detail;
  EXPECT_EQ(report.faulty, ProcSet::of({2, 3}));
  // Crashed processes may or may not have decided before crashing; the
  // correct ones must all agree on one value (k = 1).
  EXPECT_EQ(report.distinct_decisions, 1);
}

TEST(EngineTest, RotisserieSolvableSideSucceeds) {
  RunConfig cfg;
  cfg.spec = {2, 2, 5};
  cfg.system = {2, 3, 5};  // gap 1 >= t+1-k = 1
  cfg.family = ScheduleFamily::kRotisserie;
  const RunReport report = run_agreement(cfg);
  EXPECT_TRUE(report.success) << report.detail;
  EXPECT_EQ(report.witness_bound, 1);  // crashed-only observers
  EXPECT_EQ(report.faulty.size(), 1);
}

TEST(EngineTest, RotisserieUnsolvableSideDefeatsDetector) {
  RunConfig cfg;
  cfg.spec = {2, 1, 4};
  cfg.system = {1, 2, 4};  // gap 1 < t+1-k = 2
  cfg.family = ScheduleFamily::kRotisserie;
  cfg.run_full_budget = true;
  const RunReport report = run_agreement(cfg);
  EXPECT_FALSE(report.detector.abstract_ok) << report.detail;
  EXPECT_FALSE(report.detector.stabilized);
}

TEST(EngineTest, StarverFamilyDefeatsDetector) {
  RunConfig cfg;
  cfg.spec = {2, 2, 5};
  cfg.system = {3, 4, 5};  // i > k
  cfg.family = ScheduleFamily::kKSubsetStarver;
  cfg.run_full_budget = true;
  const RunReport report = run_agreement(cfg);
  EXPECT_FALSE(report.detector.abstract_ok) << report.detail;
  EXPECT_EQ(report.faulty, ProcSet());
}

TEST(EngineTest, ReportDecisionsShapeIsConsistent) {
  RunConfig cfg;
  cfg.spec = {1, 1, 3};
  cfg.system = matching_system(cfg.spec);
  const RunReport report = run_agreement(cfg);
  ASSERT_EQ(report.decisions.size(), 3u);
  int decided = 0;
  for (const auto& d : report.decisions) {
    if (d.has_value()) ++decided;
  }
  EXPECT_GE(decided, 3 - cfg.spec.t);
  EXPECT_EQ(report.timely_set.size(), 1);
  EXPECT_EQ(report.observed_set.size(), 2);
}

TEST(ExperimentsTest, Figure1RowsMatchPaperClaims) {
  ExperimentRunner serial;  // one thread, unsharded
  const auto rows = figure1_rows(12, serial);
  ASSERT_EQ(rows.size(), 12u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.bound_union, 2) << "phase " << row.phase;
    EXPECT_EQ(row.prefix_len, 2 * row.phase * (row.phase + 1));
  }
  // Divergence of the individual bounds with the phase index: the
  // bound after phase i reflects the i-long starvation stretches.
  EXPECT_GE(rows[11].bound_p1, rows[3].bound_p1 + 6);
  EXPECT_GE(rows[11].bound_p2, rows[3].bound_p2 + 6);
  EXPECT_GE(rows[11].bound_p1, 12);
}

TEST(ExperimentsTest, DetectorConvergenceFriendly) {
  DetectorRunConfig cfg;
  cfg.n = 4;
  cfg.k = 1;
  cfg.t = 2;
  cfg.seed = 5;
  const auto result = run_detector_convergence(cfg);
  EXPECT_TRUE(result.stabilized);
  EXPECT_TRUE(result.property_ok);
  EXPECT_EQ(result.winnerset.size(), 1);
  EXPECT_GT(result.max_iterations, 0);
  EXPECT_EQ(result.ops_per_iteration, 4 * 4 + 1 + 4 + 4);
}

TEST(ExperimentsTest, DetectorConvergenceWithCrashes) {
  DetectorRunConfig cfg;
  cfg.n = 5;
  cfg.k = 2;
  cfg.t = 2;
  cfg.crash_count = 2;
  cfg.crash_step = 30'000;
  cfg.seed = 8;
  cfg.max_steps = 1'500'000;
  const auto result = run_detector_convergence(cfg);
  EXPECT_TRUE(result.property_ok);
}

class MatrixSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatrixSweep, FrontierMatchesEverywhere) {
  const auto [t, k, n] = GetParam();
  MatrixConfig cfg;
  cfg.spec = {t, k, n};
  cfg.max_steps = 700'000;
  cfg.rotisserie_growth = 512;
  ExperimentRunner serial;  // one thread, unsharded
  const auto cells = thm27_matrix(cfg, serial);
  EXPECT_EQ(cells.size(),
            static_cast<std::size_t>(n * (n + 1) / 2));
  for (const auto& cell : cells) {
    EXPECT_TRUE(cell.matches)
        << "(t,k,n)=(" << t << "," << k << "," << n << ") cell (i,j)=("
        << cell.i << "," << cell.j << ") family=" << cell.family
        << " predicted="
        << (cell.predicted_solvable ? "solvable" : "unsolvable")
        << " detector=" << (cell.detector_property ? "holds" : "defeated")
        << " :: " << cell.detail;
  }
  const std::string rendered = render_matrix(cfg.spec, cells);
  EXPECT_NE(rendered.find("MATCH"), std::string::npos);
  EXPECT_EQ(rendered.find("MISMATCH"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Grid, MatrixSweep,
                         ::testing::Values(std::tuple{2, 1, 4},
                                           std::tuple{2, 2, 5},
                                           std::tuple{3, 2, 5}));

}  // namespace
}  // namespace setlib::core
