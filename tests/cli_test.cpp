// CLI parser tests, plus the outcome display the gather_cli front end
// prints.
#include <gtest/gtest.h>

#include "core/run.hpp"
#include "scenario/scenario.hpp"
#include "support/cli.hpp"

namespace gather::support {
namespace {

CliParser standard_parser() {
  CliParser cli;
  cli.add_option("n", "12", "node count");
  cli.add_option("name", "ring", "family");
  cli.add_flag("verbose", "chatty output");
  return cli;
}

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args);
  return argv;
}

TEST(Cli, DefaultsApply) {
  CliParser cli = standard_parser();
  const auto argv = argv_of({});
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get("n"), "12");
  EXPECT_EQ(cli.get("name"), "ring");
  EXPECT_FALSE(cli.get_flag("verbose"));
  EXPECT_FALSE(cli.provided("n"));
}

TEST(Cli, EqualsForm) {
  CliParser cli = standard_parser();
  const auto argv = argv_of({"--n=20", "--name=grid"});
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get("n"), "20");
  EXPECT_EQ(cli.get("name"), "grid");
  EXPECT_TRUE(cli.provided("n"));
}

TEST(Cli, SpaceForm) {
  CliParser cli = standard_parser();
  const auto argv = argv_of({"--n", "33"});
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get("n"), "33");
}

TEST(Cli, FlagForm) {
  CliParser cli = standard_parser();
  const auto argv = argv_of({"--verbose"});
  cli.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, PositionalCollected) {
  CliParser cli = standard_parser();
  const auto argv = argv_of({"input.graph", "--n=5", "more"});
  cli.parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.graph");
  EXPECT_EQ(cli.positional()[1], "more");
}

TEST(Cli, UnknownOptionRejected) {
  CliParser cli = standard_parser();
  const auto argv = argv_of({"--bogus=1"});
  EXPECT_THROW(cli.parse(static_cast<int>(argv.size()), argv.data()), CliError);
}

TEST(Cli, MissingValueRejected) {
  CliParser cli = standard_parser();
  const auto argv = argv_of({"--n"});
  EXPECT_THROW(cli.parse(static_cast<int>(argv.size()), argv.data()), CliError);
}

TEST(Cli, FlagWithValueRejected) {
  CliParser cli = standard_parser();
  const auto argv = argv_of({"--verbose=yes"});
  EXPECT_THROW(cli.parse(static_cast<int>(argv.size()), argv.data()), CliError);
}

TEST(Cli, UsageListsOptions) {
  const CliParser cli = standard_parser();
  const std::string usage = cli.usage("tool");
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("--verbose"), std::string::npos);
  EXPECT_NE(usage.find("node count"), std::string::npos);
}

TEST(Cli, CappedRunDisplaysNoResolvingStage) {
  // The run behind `gather_cli --graph=torus --n=36 --k=19
  // --placement=dispersed --hard-cap=1`: the cap ends it before any
  // stage resolves it, so the "resolved by stage:" line reads "none"
  // (it printed "hop--1"). The CSV column and ABI JSON keep -1.
  scenario::ScenarioSpec spec;
  spec.family = "torus";
  spec.n = 36;
  spec.k = 19;
  spec.placement = "dispersed";
  spec.hard_cap = 1;
  const core::RunOutcome out =
      scenario::run_resolved(scenario::resolve(spec), spec.trace_path);
  EXPECT_TRUE(out.result.hit_round_cap);
  EXPECT_EQ(out.gathered_stage_hop, -1);
  EXPECT_EQ(core::stage_label(out.gathered_stage_hop), "none");
  EXPECT_EQ(core::stage_label(0), "hop-0");
  EXPECT_EQ(core::stage_label(6), "hop-6");
}

}  // namespace
}  // namespace gather::support
