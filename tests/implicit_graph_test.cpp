// Differential referee for the implicit topologies.
//
//  1. Structural identity: for every (v, port) of small instances, the
//     closed-form ImplicitGraph must reproduce the materialized
//     generator bit-exactly — same node, same entry port — plus node
//     and edge counts, degrees, and closed-form distance vs BFS. This
//     is the contract that makes an implicit run indistinguishable from
//     a CSR run at ANY scale: the small cases pin the port arithmetic
//     exhaustively, the execution tests below pin the integration.
//  2. Execution identity: every overlapping registry point
//     (family pair × n × placement × scheduler) must produce the same
//     trace hash, the same RunResult, and the same recorded trace bytes
//     whether the topology is materialized or implicit.
//  3. Record→replay round trip through the binary trace subsystem on an
//     implicit-topology run.
//  4. 32-bit index audit regressions: n·deg near 2^32 fails loudly with
//     EngineInvariantError, never wraps.
//  5. O(robots) memory: a gathering scenario runs on an implicit grid
//     with n = 10^6 nodes; sparse and dense node-table modes are
//     bit-identical.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/implicit.hpp"
#include "scenario/scenario.hpp"
#include "sim/trace.hpp"
#include "support/assert.hpp"

namespace gather {
namespace {

using graph::Graph;
using graph::HalfEdge;
using graph::ImplicitGraph;
using graph::NodeId;
using graph::Port;

// ---- 1. structural identity -------------------------------------------

void expect_structurally_identical(const Graph& csr, const ImplicitGraph& imp,
                                   const std::string& label) {
  ASSERT_EQ(csr.num_nodes(), imp.num_nodes()) << label;
  EXPECT_EQ(csr.num_edges(), imp.num_edges()) << label;
  EXPECT_EQ(csr.max_degree(), imp.max_degree()) << label;
  for (NodeId v = 0; v < csr.num_nodes(); ++v) {
    ASSERT_EQ(csr.degree(v), imp.degree(v)) << label << " v=" << v;
    for (Port p = 0; p < csr.degree(v); ++p) {
      const HalfEdge want = csr.traverse(v, p);
      const HalfEdge got = imp.traverse(v, p);
      EXPECT_EQ(want.to, got.to) << label << " v=" << v << " port=" << p;
      EXPECT_EQ(want.to_port, got.to_port)
          << label << " v=" << v << " port=" << p;
    }
  }
}

void expect_distance_matches_bfs(const Graph& csr, const ImplicitGraph& imp,
                                 const std::string& label) {
  // Every source would be O(n^2 log n); a deterministic stride covers
  // corners and interior alike.
  const std::size_t n = csr.num_nodes();
  const std::size_t stride = std::max<std::size_t>(1, n / 7);
  for (NodeId s = 0; s < n; s += static_cast<NodeId>(stride)) {
    const std::vector<std::uint32_t> dist = graph::bfs_distances(csr, s);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(dist[v], imp.distance(s, v))
          << label << " s=" << s << " v=" << v;
    }
  }
}

TEST(ImplicitStructure, GridMatchesGeneratorPortForPort) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 5}, {5, 1}, {2, 2}, {2, 9}, {4, 4}, {3, 7}, {7, 3}, {6, 5}};
  for (const auto& [rows, cols] : shapes) {
    const std::string label =
        "grid " + std::to_string(rows) + "x" + std::to_string(cols);
    const Graph csr = graph::make_grid(rows, cols);
    const ImplicitGraph imp = ImplicitGraph::grid(rows, cols);
    expect_structurally_identical(csr, imp, label);
    expect_distance_matches_bfs(csr, imp, label);
  }
}

TEST(ImplicitStructure, TorusMatchesGeneratorPortForPort) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {3, 3}, {3, 4}, {4, 3}, {5, 3}, {4, 6}, {5, 5}, {3, 8}};
  for (const auto& [rows, cols] : shapes) {
    const std::string label =
        "torus " + std::to_string(rows) + "x" + std::to_string(cols);
    const Graph csr = graph::make_torus(rows, cols);
    const ImplicitGraph imp = ImplicitGraph::torus(rows, cols);
    expect_structurally_identical(csr, imp, label);
    expect_distance_matches_bfs(csr, imp, label);
  }
}

TEST(ImplicitStructure, HypercubeMatchesGeneratorPortForPort) {
  for (unsigned dim = 1; dim <= 10; ++dim) {
    const std::string label = "hypercube dim=" + std::to_string(dim);
    const Graph csr = graph::make_hypercube(dim);
    const ImplicitGraph imp = ImplicitGraph::hypercube(dim);
    expect_structurally_identical(csr, imp, label);
    if (dim <= 7) expect_distance_matches_bfs(csr, imp, label);
  }
}

TEST(ImplicitStructure, TopologyAlgorithmsAgree) {
  // The generic graph algorithms must see the same graph through either
  // interface (they drive degree()/traverse() only).
  const ImplicitGraph imp = ImplicitGraph::torus(4, 5);
  const Graph csr = graph::make_torus(4, 5);
  EXPECT_TRUE(graph::is_connected(imp));
  EXPECT_EQ(graph::bfs_distances(csr, 7), graph::bfs_distances(imp, 7));
}

// ---- 2. execution identity across the registry ------------------------

scenario::ScenarioSpec base_point(const std::string& family, std::size_t n,
                                  const std::string& placement,
                                  const std::string& scheduler) {
  scenario::ScenarioSpec spec;
  spec.family = family;
  spec.n = n;
  spec.k = 3;
  spec.placement = placement;
  spec.scheduler = scheduler;
  if (scheduler == "semi-synchronous") spec.scheduler_params.set("fairness", "3");
  spec.seed = 11;
  return spec;
}

// A registry point may legitimately abort with a ProtocolViolation
// under an adversarial scheduler; representation identity then means
// both twins abort identically.
struct PointResult {
  std::optional<core::RunOutcome> outcome;
  std::string violation;
};

PointResult run_point(const scenario::ScenarioSpec& spec) {
  try {
    return {scenario::run_scenario(spec), {}};
  } catch (const ProtocolViolation& e) {
    return {std::nullopt, e.what()};
  }
}

void expect_same_outcome(const core::RunOutcome& a, const core::RunOutcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.result.metrics.trace_hash, b.result.metrics.trace_hash) << label;
  EXPECT_EQ(a.result.metrics.rounds, b.result.metrics.rounds) << label;
  EXPECT_EQ(a.result.metrics.simulated_rounds,
            b.result.metrics.simulated_rounds)
      << label;
  EXPECT_EQ(a.result.metrics.total_moves, b.result.metrics.total_moves)
      << label;
  EXPECT_EQ(a.result.metrics.total_message_bits,
            b.result.metrics.total_message_bits)
      << label;
  EXPECT_EQ(a.result.gathered_at_end, b.result.gathered_at_end) << label;
  EXPECT_EQ(a.result.detection_correct, b.result.detection_correct) << label;
  EXPECT_EQ(a.result.all_terminated, b.result.all_terminated) << label;
  EXPECT_EQ(a.result.gather_node, b.result.gather_node) << label;
}

TEST(ImplicitExecution, MatchesMaterializedTwinAcrossRegistryPoints) {
  const std::pair<const char*, const char*> pairs[] = {
      {"grid", "implicit-grid"},
      {"torus", "implicit-torus"},
      {"hypercube", "implicit-hypercube"}};
  for (const auto& [material, implicit] : pairs) {
    for (const std::size_t n : {std::size_t{9}, std::size_t{16}}) {
      for (const char* placement : {"adversarial", "one-node", "undispersed"}) {
        for (const char* sched : {"synchronous", "semi-synchronous"}) {
          const std::string label = std::string(implicit) +
                                    " n=" + std::to_string(n) + " " +
                                    placement + " " + sched;
          scenario::ScenarioSpec mat_spec =
              base_point(material, n, placement, sched);
          scenario::ScenarioSpec imp_spec =
              base_point(implicit, n, placement, sched);
          const scenario::ResolvedScenario mr = scenario::resolve(mat_spec);
          const scenario::ResolvedScenario ir = scenario::resolve(imp_spec);
          ASSERT_EQ(mr.realized_n, ir.realized_n) << label;
          ASSERT_NE(mr.graph->as_csr(), nullptr) << label;
          ASSERT_NE(ir.graph->as_implicit(), nullptr) << label;
          // Identical placements: the instance the adversary builds must
          // not depend on the representation.
          ASSERT_EQ(mr.placement.size(), ir.placement.size()) << label;
          for (std::size_t i = 0; i < mr.placement.size(); ++i) {
            EXPECT_EQ(mr.placement[i].node, ir.placement[i].node) << label;
            EXPECT_EQ(mr.placement[i].label, ir.placement[i].label) << label;
          }
          const PointResult mat = run_point(mat_spec);
          const PointResult imp = run_point(imp_spec);
          ASSERT_EQ(mat.outcome.has_value(), imp.outcome.has_value())
              << label << " mat-violation='" << mat.violation
              << "' imp-violation='" << imp.violation << "'";
          if (mat.outcome.has_value()) {
            expect_same_outcome(*mat.outcome, *imp.outcome, label);
          } else {
            EXPECT_EQ(mat.violation, imp.violation) << label;
          }
        }
      }
    }
  }
}

TEST(ImplicitExecution, TraceBytesMatchMaterializedTwin) {
  // The strongest equality: the recorded binary traces — every move of
  // every robot in every round — must be byte-identical.
  scenario::ScenarioSpec mat_spec =
      base_point("torus", 12, "adversarial", "synchronous");
  scenario::ScenarioSpec imp_spec =
      base_point("implicit-torus", 12, "adversarial", "synchronous");
  const std::string mat_path = testing::TempDir() + "/mat_twin.trace";
  const std::string imp_path = testing::TempDir() + "/imp_twin.trace";
  mat_spec.trace_path = mat_path;
  imp_spec.trace_path = imp_path;
  (void)scenario::run_scenario(mat_spec);
  (void)scenario::run_scenario(imp_spec);
  EXPECT_EQ(sim::read_trace_file(mat_path), sim::read_trace_file(imp_path));
  std::remove(mat_path.c_str());
  std::remove(imp_path.c_str());
}

// ---- 3. record → replay round trip on an implicit topology ------------

TEST(ImplicitExecution, RecordReplayRoundTrip) {
  scenario::ScenarioSpec spec =
      base_point("implicit-grid", 16, "undispersed", "synchronous");
  const std::string path = testing::TempDir() + "/implicit_roundtrip.trace";
  spec.trace_path = path;
  const core::RunOutcome live = scenario::run_scenario(spec);
  const sim::Trace trace = sim::decode_trace(sim::read_trace_file(path));
  const sim::ReplayResult replay = sim::replay_trace(trace);
  EXPECT_FALSE(replay.violation);
  EXPECT_EQ(replay.result.metrics.trace_hash, live.result.metrics.trace_hash);
  EXPECT_EQ(replay.result.metrics.rounds, live.result.metrics.rounds);
  EXPECT_EQ(replay.result.metrics.total_moves,
            live.result.metrics.total_moves);
  EXPECT_EQ(replay.result.gathered_at_end, live.result.gathered_at_end);
  ASSERT_FALSE(replay.final_positions.empty());
  for (const NodeId pos : replay.final_positions) {
    EXPECT_EQ(pos, live.result.gather_node);
  }
  std::remove(path.c_str());
}

// ---- 4. 32-bit index audit --------------------------------------------

TEST(IndexAudit, NearOverflowFailsLoudly) {
  // 65536 * 65536 = 2^32 overflows NodeId (and collides with the
  // kNoPort/kNoSlot sentinels); one node fewer fits.
  EXPECT_THROW((void)ImplicitGraph::grid(65536, 65536), EngineInvariantError);
  EXPECT_THROW((void)ImplicitGraph::torus(65536, 65536), EngineInvariantError);
  EXPECT_THROW((void)ImplicitGraph::hypercube(32), EngineInvariantError);
  const ImplicitGraph big = ImplicitGraph::grid(65536, 65535);
  EXPECT_EQ(big.num_nodes(), std::uint64_t{65536} * 65535);
  // O(1) construction at the boundary: the descriptor answers queries
  // about its far corner without materializing anything.
  const NodeId last = static_cast<NodeId>(big.num_nodes() - 1);
  EXPECT_EQ(big.degree(last), 2u);
  EXPECT_EQ(ImplicitGraph::hypercube(31).num_nodes(), std::size_t{1} << 31);
}

TEST(IndexAudit, BuilderRejectsOversizedMaterialization) {
  EXPECT_THROW(graph::GraphBuilder(std::size_t{1} << 32),
               EngineInvariantError);
}

// ---- 5. O(robots) engine memory ---------------------------------------

TEST(SparseNodeTable, SparseAndDenseModesAreBitIdentical) {
  // Same scenario, node table forced sparse (dense_node_limit=1) vs the
  // dense default: the representation of per-node bookkeeping must be
  // invisible to results.
  scenario::ScenarioSpec spec =
      base_point("implicit-grid", 400, "adversarial", "synchronous");
  spec.sequence = "lazy";   // covering-sequence search is O(n^2)-expensive
  spec.hard_cap = 500;      // bit-identity needs decisions, not convergence
  const scenario::ResolvedScenario r = scenario::resolve(spec);
  core::RunSpec dense_spec = r.run_spec;
  core::RunSpec sparse_spec = r.run_spec;
  sparse_spec.dense_node_limit = 1;
  const core::RunOutcome dense =
      core::run_gathering(*r.graph, r.placement, dense_spec);
  const core::RunOutcome sparse =
      core::run_gathering(*r.graph, r.placement, sparse_spec);
  expect_same_outcome(dense, sparse, "sparse vs dense node table");
}

TEST(SparseNodeTable, MillionNodeGridGathersInSparseMode) {
  // The tentpole acceptance probe: a real gathering scenario on an
  // implicit grid with n = 10^6 (sparse node table engages above
  // dense_node_limit = 2^18). The swarm starts gathered and the paper
  // protocol keeps it moving as one group, so the run exercises
  // thousands of rounds of real movement on the million-node instance
  // — it would OOM-or-crawl long before finishing if anything in the
  // engine or topology allocated O(n) per round.
  scenario::ScenarioSpec spec;
  spec.family = "implicit-grid";
  spec.n = 1000 * 1000;
  spec.k = 8;
  spec.placement = "one-node";
  spec.sequence = "lazy";
  spec.hard_cap = 50'000;
  spec.seed = 9;
  const core::RunOutcome out = scenario::run_scenario(spec);
  EXPECT_TRUE(out.result.gathered_at_end);
  EXPECT_GT(out.result.metrics.total_moves, 0u);
}

}  // namespace
}  // namespace gather
