// Scenario-layer tests: every registered name resolves to a runnable
// instance, unknown keys fail with candidate suggestions, grid/torus
// sizing reports the realized node count instead of silently changing
// it, and SweepRunner output is byte-identical across executions and
// thread counts.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "graph/algorithms.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace gather::scenario {
namespace {

ScenarioSpec tiny_spec() {
  ScenarioSpec spec;
  spec.family = "ring";
  spec.n = 10;
  spec.k = 2;
  spec.placement = "one-node";
  spec.seed = 5;
  return spec;
}

TEST(Registries, EveryFamilyResolvesConnectedAndReportsRealizedN) {
  for (const std::string& name : graph_families().list()) {
    if (name == "file") continue;  // needs a path param; covered below
    ScenarioSpec spec = tiny_spec();
    spec.family = name;
    const ResolvedScenario r = resolve(spec);
    if (const graph::Graph* csr = r.graph->as_csr()) {
      EXPECT_TRUE(graph::validate(*csr)) << name;
    }
    EXPECT_TRUE(graph::is_connected(*r.graph)) << name;
    EXPECT_EQ(r.realized_n, r.graph->num_nodes()) << name;
    EXPECT_EQ(r.requested_n, spec.n) << name;
    EXPECT_EQ(r.placement.size(), spec.k) << name;
  }
}

TEST(Registries, EveryPlacementResolves) {
  for (const std::string& name : placements().list()) {
    ScenarioSpec spec = tiny_spec();
    spec.placement = name;
    spec.k = 3;
    const ResolvedScenario r = resolve(spec);
    EXPECT_EQ(r.placement.size(), 3u) << name;
    for (const graph::RobotStart& start : r.placement) {
      EXPECT_LT(start.node, r.realized_n) << name;
      EXPECT_GE(start.label, 1u) << name;
    }
  }
}

TEST(Registries, EveryLabelingResolvesToDistinctLabels) {
  for (const std::string& name : labelings().list()) {
    ScenarioSpec spec = tiny_spec();
    spec.labeling = name;
    spec.k = 4;
    spec.placement = "dispersed";
    const ResolvedScenario r = resolve(spec);
    for (std::size_t i = 0; i < r.placement.size(); ++i) {
      for (std::size_t j = i + 1; j < r.placement.size(); ++j) {
        EXPECT_NE(r.placement[i].label, r.placement[j].label) << name;
      }
    }
  }
}

TEST(Registries, EveryAlgorithmRunsWithSoundDetection) {
  for (const std::string& name : algorithms().list()) {
    ScenarioSpec spec = tiny_spec();
    spec.n = 8;
    spec.k = 3;
    spec.algorithm = name;
    spec.placement = "one-node";  // undispersed start suits all three
    const core::RunOutcome out = run_scenario(spec);
    EXPECT_TRUE(out.result.detection_correct) << name;
    EXPECT_TRUE(out.result.gathered_at_end) << name;
  }
}

TEST(Registries, EverySequencePolicyResolves) {
  for (const std::string& name : sequences().list()) {
    ScenarioSpec spec = tiny_spec();
    spec.n = 8;
    spec.sequence = name;
    const ResolvedScenario r = resolve(spec);
    ASSERT_NE(r.run_spec.config.sequence, nullptr) << name;
    EXPECT_GE(r.run_spec.config.sequence->length(), 1u) << name;
  }
}

TEST(Registries, UnknownKeysErrorWithCandidateSuggestions) {
  {
    ScenarioSpec spec = tiny_spec();
    spec.family = "rng";
    try {
      (void)resolve(spec);
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("did you mean 'ring'"),
                std::string::npos)
          << e.what();
    }
  }
  {
    ScenarioSpec spec = tiny_spec();
    spec.placement = "dispresed";
    try {
      (void)resolve(spec);
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("dispersed"), std::string::npos)
          << e.what();
    }
  }
  {
    ScenarioSpec spec = tiny_spec();
    spec.algorithm = "fastr";
    try {
      (void)resolve(spec);
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("faster"), std::string::npos)
          << e.what();
    }
  }
  {
    // Unknown *parameter* keys are rejected against the entry's schema.
    ScenarioSpec spec = tiny_spec();
    spec.family = "grid";
    spec.family_params.set("row", "4");
    try {
      (void)resolve(spec);
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find("rows"), std::string::npos)
          << e.what();
    }
  }
  // The 'file' family demands its path parameter.
  ScenarioSpec spec = tiny_spec();
  spec.family = "file";
  EXPECT_THROW((void)resolve(spec), ScenarioError);
}

TEST(Registries, GridAndTorusRealizeNearSquare) {
  EXPECT_EQ(near_square_dims(16, 1).rows, 4u);
  EXPECT_EQ(near_square_dims(16, 1).cols, 4u);
  EXPECT_EQ(near_square_dims(12, 1).rows, 3u);
  EXPECT_EQ(near_square_dims(12, 1).cols, 4u);
  // 17 is prime: the exact pair 1x17 is a path, not a grid — take the
  // near-square cover and let realized_n report the substitution.
  EXPECT_EQ(near_square_dims(17, 1).rows, 4u);
  EXPECT_EQ(near_square_dims(17, 1).cols, 5u);
  EXPECT_EQ(near_square_dims(10, 3).rows, 3u);
  EXPECT_EQ(near_square_dims(10, 3).cols, 4u);

  ScenarioSpec spec = tiny_spec();
  spec.family = "grid";
  spec.n = 16;
  EXPECT_EQ(resolve(spec).realized_n, 16u);  // the seed CLI made this 16 only by luck
  spec.n = 17;
  const ResolvedScenario r17 = resolve(spec);
  EXPECT_EQ(r17.requested_n, 17u);
  EXPECT_EQ(r17.realized_n, 20u);  // 4x5, reported — never silent

  spec.family = "torus";
  spec.n = 10;
  EXPECT_EQ(resolve(spec).realized_n, 12u);  // 3x4, sides >= 3

  // Explicit shape params override the derivation.
  spec.family = "grid";
  spec.family_params.set("rows", "2");
  spec.family_params.set("cols", "9");
  EXPECT_EQ(resolve(spec).realized_n, 18u);
}

TEST(Sweep, KRuleForms) {
  EXPECT_EQ(parse_k_rule("5").name, "k=5");
  EXPECT_EQ(parse_k_rule("5").k_of_n(99), 5u);
  EXPECT_EQ(parse_k_rule("n/2+1").name, "n/2+1");
  EXPECT_EQ(parse_k_rule("n/2+1").k_of_n(10), 6u);
  EXPECT_EQ(parse_k_rule("n/3").k_of_n(12), 4u);
  EXPECT_EQ(parse_k_rule("n").k_of_n(7), 7u);
  EXPECT_EQ(parse_k_rule("n/7").k_of_n(9), 2u);  // clamped below at 2
  EXPECT_THROW((void)parse_k_rule("x"), ScenarioError);
  EXPECT_THROW((void)parse_k_rule("n/0"), ScenarioError);
  EXPECT_THROW((void)parse_k_rule(""), ScenarioError);
  EXPECT_THROW((void)parse_k_rule("-2"), ScenarioError);   // no stoull wrap
  EXPECT_THROW((void)parse_k_rule("5x"), ScenarioError);   // no truncation
  EXPECT_THROW((void)parse_k_rule("n/-2"), ScenarioError);
}

SweepSpec small_sweep() {
  SweepSpec sweep;
  sweep.base.sequence = "covering";
  sweep.base.placement = "adversarial";
  sweep.families = {"ring", "torus"};
  sweep.sizes = {8, 9};
  sweep.k_rules = {k_fraction(2, 1), k_fixed(2)};
  sweep.seeds = {1, 2};
  return sweep;
}

TEST(Sweep, EnumerationIsOrderedAndFiltered) {
  SweepSpec sweep = small_sweep();
  const std::size_t full = SweepRunner::enumerate(sweep).size();
  EXPECT_EQ(full, 2u * 2u * 2u * 2u);  // families x k-rules x sizes x seeds
  sweep.filter = [](const ScenarioSpec& s) { return s.n == 8; };
  const auto points = SweepRunner::enumerate(sweep);
  EXPECT_EQ(points.size(), full / 2);
  // Outer-to-inner order: family, then k-rule, then size, then seed.
  EXPECT_EQ(points.front().spec.family, "ring");
  EXPECT_EQ(points.back().spec.family, "torus");
  EXPECT_EQ(points.front().k_rule, "n/2+1");
  EXPECT_EQ(points.front().spec.seed, 1u);
  EXPECT_EQ(points[1].spec.seed, 2u);
}

TEST(Sweep, ByteIdenticalAcrossRunsAndThreadCounts) {
  SweepSpec sweep = small_sweep();
  sweep.threads = 4;
  Caches caches;
  std::ostringstream first, second, serial, json_a, json_b;
  SweepRunner::write_csv(first, SweepRunner::run(sweep, caches));
  SweepRunner::write_csv(second, SweepRunner::run(sweep, caches));
  sweep.threads = 1;
  SweepRunner::write_csv(serial, SweepRunner::run(sweep, caches));
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(first.str(), serial.str());
  EXPECT_NE(first.str().find("family,"), std::string::npos);

  sweep.threads = 4;
  SweepRunner::write_json(json_a, SweepRunner::run(sweep, caches));
  sweep.threads = 2;
  SweepRunner::write_json(json_b, SweepRunner::run(sweep, caches));
  EXPECT_EQ(json_a.str(), json_b.str());

  // A cell holding a comma (here a graph-file path) is quoted, so the
  // row keeps the header's column count.
  const std::string path = testing::TempDir() + "/a,b.graph";
  std::filesystem::copy_file(
      std::string(GATHER_TEST_DATA_DIR) + "/cli_petersen.graph", path,
      std::filesystem::copy_options::overwrite_existing);
  SweepSpec file_sweep;
  file_sweep.base.family = "file";
  file_sweep.base.family_params.set("path", path);
  file_sweep.base.k = 3;
  std::ostringstream file_csv;
  SweepRunner::write_csv(file_csv, SweepRunner::run(file_sweep, caches));
  std::filesystem::remove(path);
  const std::string text = file_csv.str();
  const std::size_t header_end = text.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const std::string row = text.substr(header_end + 1);
  EXPECT_EQ(row.rfind("file,\"path=" + path + "\",", 0), 0u) << row;
  std::size_t columns = 1;
  bool quoted = false;
  for (const char c : row) {
    if (c == '"') quoted = !quoted;
    if (c == ',' && !quoted) ++columns;
  }
  EXPECT_EQ(columns, SweepRunner::csv_header().size()) << row;
}

TEST(Sweep, SkipInfeasibleDropsPointsButNeverTypos) {
  // hypercube realizes 8 nodes from n=10, so k=10 passes any filter on
  // the requested n yet fails at resolve time.
  SweepSpec sweep;
  sweep.base.placement = "adversarial";
  sweep.base.sequence = "covering";
  sweep.families = {"ring", "hypercube"};
  sweep.sizes = {10};
  sweep.k_rules = {parse_k_rule("n")};
  Caches caches;
  EXPECT_THROW((void)SweepRunner::run(sweep, caches), ScenarioError);
  sweep.skip_infeasible = true;
  const std::vector<SweepRow> rows = SweepRunner::run(sweep, caches);
  ASSERT_EQ(rows.size(), 1u);  // the hypercube point was dropped
  EXPECT_EQ(rows[0].spec.family, "ring");
  // Typos still throw, even with skip_infeasible: keys are validated
  // before any factory runs.
  sweep.families = {"ring", "rng"};
  EXPECT_THROW((void)SweepRunner::run(sweep, caches), ScenarioError);
  // An all-infeasible sweep reports the first error instead of
  // returning silently empty results.
  sweep.families = {"hypercube"};
  EXPECT_THROW((void)SweepRunner::run(sweep, caches), ScenarioError);
}

TEST(Sweep, RowsCarryResolvedInstanceFacts) {
  SweepSpec sweep;
  sweep.base.family = "hypercube";  // realizes 16 nodes from n=12
  sweep.base.n = 12;
  sweep.base.k = 4;
  sweep.base.placement = "dispersed";
  sweep.base.sequence = "covering";
  Caches caches;
  const std::vector<SweepRow> rows = SweepRunner::run(sweep, caches);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].realized_n, 16u);
  EXPECT_GE(rows[0].min_pair_distance, 1u);
  EXPECT_TRUE(rows[0].outcome.result.detection_correct);
}

}  // namespace
}  // namespace gather::scenario
