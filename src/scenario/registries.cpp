#include "scenario/registries.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "graph/implicit.hpp"
#include "graph/io.hpp"
#include "uxs/coverage.hpp"

namespace gather::scenario {
namespace {

void require(bool cond, const std::string& what) {
  if (!cond) throw ScenarioError(what);
}

std::size_t clamp_min(std::size_t v, std::size_t lo) { return std::max(v, lo); }

/// Wrap a materialized CSR build as the shared immutable topology the
/// registry hands out.
TopologyPtr csr(graph::Graph g) {
  return std::make_shared<const graph::Graph>(std::move(g));
}

// Grid/torus shape: explicit rows/cols params win; otherwise derive a
// near-square pair from n (see near_square_dims).
GridDims grid_dims(std::size_t n, const Params& params, std::size_t min_side) {
  GridDims dims;
  dims.rows = params.get_uint("rows", 0);
  dims.cols = params.get_uint("cols", 0);
  if (dims.rows == 0 && dims.cols == 0) return near_square_dims(n, min_side);
  if (dims.rows == 0) dims.rows = clamp_min((n + dims.cols - 1) / dims.cols, min_side);
  if (dims.cols == 0) dims.cols = clamp_min((n + dims.rows - 1) / dims.rows, min_side);
  require(dims.rows >= min_side && dims.cols >= min_side,
          "grid/torus sides must be >= " + std::to_string(min_side));
  return dims;
}

GraphFamilyRegistry make_graph_families() {
  GraphFamilyRegistry reg("graph family");
  const auto no_params = std::vector<ParamSpec>{};

  reg.add("ring", "cycle C_n (n >= 3)", no_params,
          [](std::size_t n, const Params&, std::uint64_t) {
            require(n >= 3, "family 'ring' requires n >= 3");
            return csr(graph::make_ring(n));
          });
  reg.add("path", "path P_n — Lemma 15's tight instance", no_params,
          [](std::size_t n, const Params&, std::uint64_t) {
            require(n >= 1, "family 'path' requires n >= 1");
            return csr(graph::make_path(n));
          });
  reg.add("complete", "clique K_n", no_params,
          [](std::size_t n, const Params&, std::uint64_t) {
            require(n >= 1, "family 'complete' requires n >= 1");
            return csr(graph::make_complete(n));
          });
  reg.add("star", "center plus n-1 leaves (n >= 2)", no_params,
          [](std::size_t n, const Params&, std::uint64_t) {
            require(n >= 2, "family 'star' requires n >= 2");
            return csr(graph::make_star(n));
          });
  reg.add("grid",
          "near-square rows x cols grid; realized n = rows*cols",
          {{"rows", "explicit row count (0 = derive from n)", "0"},
           {"cols", "explicit column count (0 = derive from n)", "0"}},
          [](std::size_t n, const Params& p, std::uint64_t) {
            require(n >= 1, "family 'grid' requires n >= 1");
            const GridDims d = grid_dims(n, p, 1);
            return csr(graph::make_grid(d.rows, d.cols));
          });
  reg.add("torus",
          "near-square rows x cols torus, sides >= 3; realized n = rows*cols",
          {{"rows", "explicit row count (0 = derive from n)", "0"},
           {"cols", "explicit column count (0 = derive from n)", "0"}},
          [](std::size_t n, const Params& p, std::uint64_t) {
            const GridDims d = grid_dims(n, p, 3);
            return csr(graph::make_torus(d.rows, d.cols));
          });
  reg.add("hypercube",
          "Q_dim with 2^dim nodes; dim = round(log2 n) unless given",
          {{"dim", "explicit dimension (0 = derive from n)", "0"}},
          [](std::size_t n, const Params& p, std::uint64_t) {
            std::size_t dim = p.get_uint("dim", 0);
            if (dim == 0) {
              require(n >= 2, "family 'hypercube' requires n >= 2");
              dim = static_cast<std::size_t>(
                  std::llround(std::log2(static_cast<double>(n))));
            }
            require(dim >= 1 && dim < 20,
                    "family 'hypercube' wants dimension in [1, 19]");
            return csr(graph::make_hypercube(static_cast<unsigned>(dim)));
          });
  reg.add("binary-tree", "complete binary tree on exactly n nodes", no_params,
          [](std::size_t n, const Params&, std::uint64_t) {
            require(n >= 1, "family 'binary-tree' requires n >= 1");
            return csr(graph::make_complete_binary_tree(n));
          });
  reg.add("lollipop", "clique on ceil(n/2) nodes with a pendant path",
          no_params, [](std::size_t n, const Params&, std::uint64_t) {
            require(n >= 3, "family 'lollipop' requires n >= 3");
            return csr(graph::make_lollipop(n));
          });
  reg.add("barbell", "two cliques of n/3 joined by a path (n >= 6)", no_params,
          [](std::size_t n, const Params&, std::uint64_t) {
            require(n >= 6, "family 'barbell' requires n >= 6");
            return csr(graph::make_barbell(n));
          });
  reg.add("caterpillar",
          "spine path with legs; realized n = spine*(1+legs)",
          {{"legs", "legs per spine node", "2"}},
          [](std::size_t n, const Params& p, std::uint64_t) {
            const std::size_t legs = p.get_uint("legs", 2);
            require(n >= 1, "family 'caterpillar' requires n >= 1");
            const std::size_t spine =
                clamp_min((n + legs) / (1 + legs), 1);
            return csr(graph::make_caterpillar(spine, legs));
          });
  reg.add("wheel", "hub joined to an (n-1)-ring (n >= 4)", no_params,
          [](std::size_t n, const Params&, std::uint64_t) {
            require(n >= 4, "family 'wheel' requires n >= 4");
            return csr(graph::make_wheel(n));
          });
  reg.add("bipartite",
          "complete bipartite K_{a,b}; defaults a = n/2, b = n - a",
          {{"a", "left side size (0 = n/2)", "0"},
           {"b", "right side size (0 = n - a)", "0"}},
          [](std::size_t n, const Params& p, std::uint64_t) {
            std::size_t a = p.get_uint("a", 0);
            std::size_t b = p.get_uint("b", 0);
            if (a == 0) a = clamp_min(n / 2, 1);
            if (b == 0) b = clamp_min(n > a ? n - a : 1, 1);
            return csr(graph::make_complete_bipartite(a, b));
          });
  reg.add("tree", "uniform random labeled tree (Prüfer)", no_params,
          [](std::size_t n, const Params&, std::uint64_t seed) {
            require(n >= 1, "family 'tree' requires n >= 1");
            return csr(graph::make_random_tree(n, seed));
          });
  reg.add("random",
          "connected G(n, m): random spanning tree plus extra edges",
          {{"m", "edge count (0 = min(2n, max simple))", "0"}},
          [](std::size_t n, const Params& p, std::uint64_t seed) {
            require(n >= 1, "family 'random' requires n >= 1");
            const std::size_t max_m = n * (n - 1) / 2;
            std::size_t m = p.get_uint("m", 0);
            if (m == 0) m = std::min(2 * n, max_m);
            require(m + 1 >= n && m <= max_m,
                    "family 'random' wants m in [n-1, n(n-1)/2], got m=" +
                        std::to_string(m));
            return csr(graph::make_random_connected(n, m, seed));
          });
  reg.add("regular",
          "random connected d-regular graph; bumps n by one if n*d is odd",
          {{"d", "degree (>= 2, < n)", "3"}},
          [](std::size_t n, const Params& p, std::uint64_t seed) {
            const std::size_t d = p.get_uint("d", 3);
            require(d >= 2, "family 'regular' requires d >= 2");
            require(n > d, "family 'regular' requires n > d");
            if ((n * d) % 2 != 0) ++n;  // realized n is reported upstream
            return csr(graph::make_random_regular(
                n, static_cast<std::uint32_t>(d), seed));
          });
  reg.add("implicit-grid",
          "closed-form rows x cols grid: O(1)-memory descriptor, "
          "port-identical to 'grid' (n may reach 10^9)",
          {{"rows", "explicit row count (0 = derive from n)", "0"},
           {"cols", "explicit column count (0 = derive from n)", "0"}},
          [](std::size_t n, const Params& p, std::uint64_t) -> TopologyPtr {
            require(n >= 1, "family 'implicit-grid' requires n >= 1");
            const GridDims d = grid_dims(n, p, 1);
            return std::make_shared<const graph::ImplicitGraph>(
                graph::ImplicitGraph::grid(d.rows, d.cols));
          });
  reg.add("implicit-torus",
          "closed-form rows x cols torus (sides >= 3): O(1)-memory "
          "descriptor, port-identical to 'torus'",
          {{"rows", "explicit row count (0 = derive from n)", "0"},
           {"cols", "explicit column count (0 = derive from n)", "0"}},
          [](std::size_t n, const Params& p, std::uint64_t) -> TopologyPtr {
            const GridDims d = grid_dims(n, p, 3);
            return std::make_shared<const graph::ImplicitGraph>(
                graph::ImplicitGraph::torus(d.rows, d.cols));
          });
  reg.add("implicit-hypercube",
          "closed-form Q_dim: O(1)-memory descriptor, port-identical to "
          "'hypercube'; dim may reach 31",
          {{"dim", "explicit dimension (0 = derive from n)", "0"}},
          [](std::size_t n, const Params& p, std::uint64_t) -> TopologyPtr {
            std::size_t dim = p.get_uint("dim", 0);
            if (dim == 0) {
              require(n >= 2, "family 'implicit-hypercube' requires n >= 2");
              dim = static_cast<std::size_t>(
                  std::llround(std::log2(static_cast<double>(n))));
            }
            require(dim >= 1 && dim <= 31,
                    "family 'implicit-hypercube' wants dimension in [1, 31]");
            return std::make_shared<const graph::ImplicitGraph>(
                graph::ImplicitGraph::hypercube(static_cast<unsigned>(dim)));
          });
  reg.add("file",
          "edge-list file (see graph/io.hpp); n is taken from the file",
          {{"path", "edge-list file path", ""}},
          [](std::size_t, const Params& p, std::uint64_t) {
            const std::string path = p.get("path", "");
            require(!path.empty(), "family 'file' requires params path=<file>");
            return csr(graph::read_edge_list_file(path));
          });
  return reg;
}

PlacementRegistry make_placements() {
  PlacementRegistry reg("placement");
  const auto no_params = std::vector<ParamSpec>{};
  const auto need_k_le_n = [](std::size_t k, const graph::Topology& g,
                              const char* name) {
    require(k <= g.num_nodes(),
            std::string("placement '") + name + "' requires k <= n (k=" +
                std::to_string(k) + ", realized n=" +
                std::to_string(g.num_nodes()) + ")");
  };

  reg.add("adversarial",
          "greedy max-min-distance spread (the paper's adversary)", no_params,
          [need_k_le_n](const graph::Topology& g, std::size_t k, const Params&,
                        std::uint64_t seed) {
            need_k_le_n(k, g, "adversarial");
            return graph::nodes_adversarial_spread(g, k, seed);
          });
  reg.add("dispersed", "k distinct uniformly random nodes", no_params,
          [need_k_le_n](const graph::Topology& g, std::size_t k, const Params&,
                        std::uint64_t seed) {
            need_k_le_n(k, g, "dispersed");
            return graph::nodes_dispersed_random(g, k, seed);
          });
  reg.add("undispersed",
          "one node holds two robots, the rest land uniformly (k >= 2)",
          no_params,
          [](const graph::Topology& g, std::size_t k, const Params&,
             std::uint64_t seed) {
            require(k >= 2, "placement 'undispersed' requires k >= 2");
            return graph::nodes_undispersed_random(g, k, seed);
          });
  reg.add("one-node", "all k robots on one random node", no_params,
          [](const graph::Topology& g, std::size_t k, const Params&,
             std::uint64_t seed) {
            return graph::nodes_all_on_one(g, k, seed);
          });
  reg.add("pair",
          "planted pair at exact hop distance, rest spread far",
          {{"distance", "hop distance of the planted pair", "2"}},
          [need_k_le_n](const graph::Topology& g, std::size_t k, const Params& p,
                        std::uint64_t seed) {
            require(k >= 2, "placement 'pair' requires k >= 2");
            need_k_le_n(k, g, "pair");
            const auto distance =
                static_cast<std::uint32_t>(p.get_uint("distance", 2));
            return graph::nodes_pair_at_distance(g, k, distance, seed);
          });
  reg.add("clustered",
          "co-located groups placed by adversarial spread",
          {{"clusters", "number of groups (0 = max(1, k/2))", "0"}},
          [](const graph::Topology& g, std::size_t k, const Params& p,
             std::uint64_t seed) {
            std::size_t clusters = p.get_uint("clusters", 0);
            if (clusters == 0) clusters = std::max<std::size_t>(1, k / 2);
            require(clusters <= g.num_nodes(),
                    "placement 'clustered' requires clusters <= n");
            return graph::nodes_clustered(g, k, clusters, seed);
          });
  return reg;
}

LabelingRegistry make_labelings() {
  LabelingRegistry reg("labeling");
  const auto no_params = std::vector<ParamSpec>{};
  reg.add("random", "distinct uniform labels from [1, n^b]", no_params,
          [](std::size_t k, std::size_t n, unsigned b, std::uint64_t seed) {
            return graph::labels_random_distinct(k, n, b, seed);
          });
  reg.add("sequential", "labels 1..k", no_params,
          [](std::size_t k, std::size_t, unsigned, std::uint64_t) {
            return graph::labels_sequential(k);
          });
  reg.add("equal-length",
          "distinct labels sharing the maximum bit length in [1, n^b]",
          no_params,
          [](std::size_t k, std::size_t n, unsigned b, std::uint64_t) {
            return graph::labels_equal_length(k, n, b);
          });
  return reg;
}

AlgorithmRegistry make_algorithms() {
  AlgorithmRegistry reg("algorithm");
  const auto no_params = std::vector<ParamSpec>{};
  reg.add("faster", "§2.3 Faster-Gathering step ladder (Theorems 12/16)",
          no_params, core::AlgorithmKind::FasterGathering);
  reg.add("undispersed",
          "§2.2 Undispersed-Gathering (Theorem 8; needs undispersed start)",
          no_params, core::AlgorithmKind::UndispersedOnly);
  reg.add("uxs", "§2.1 UXS gathering (Theorem 6; the baseline proxy)",
          no_params, core::AlgorithmKind::UxsOnly);
  return reg;
}

SchedulerRegistry make_schedulers() {
  SchedulerRegistry reg("scheduler");
  const auto no_params = std::vector<ParamSpec>{};
  reg.add("synchronous",
          "the paper's model (§1.1): all robots start in round 0, every "
          "robot acts every round",
          no_params,
          [](std::size_t, const Params&, std::uint64_t)
              -> std::shared_ptr<const sim::Scheduler> {
            return std::make_shared<sim::SynchronousScheduler>();
          });
  reg.add("adversarial-delay",
          "arbitrary startup times (§3 future work): per-robot start "
          "delays drawn from [0, max-delay]",
          {{"max-delay", "largest start delay in rounds", "64"}},
          [](std::size_t k, const Params& p, std::uint64_t seed)
              -> std::shared_ptr<const sim::Scheduler> {
            const std::uint64_t max_delay = p.get_uint("max-delay", 64);
            return std::make_shared<sim::AdversarialDelayScheduler>(
                seed, max_delay, k);
          });
  reg.add("semi-synchronous",
          "adversarial subset activation: pending robots act at least "
          "once every `fairness` rounds; robots run on activation-count "
          "local clocks with the fairness bound as common knowledge, so "
          "the paper's algorithms execute (and gather) instead of "
          "violating immediately",
          {{"fairness", "fairness window in rounds (>= 1)", "4"}},
          [](std::size_t, const Params& p, std::uint64_t seed)
              -> std::shared_ptr<const sim::Scheduler> {
            const std::uint64_t fairness = p.get_uint("fairness", 4);
            require(fairness >= 1,
                    "scheduler 'semi-synchronous' requires fairness >= 1");
            return std::make_shared<sim::SemiSynchronousScheduler>(seed,
                                                                   fairness);
          });
  reg.add("crash-fault",
          "`crashes` robots halt permanently at adversary-chosen rounds "
          "in [0, window] — the detection-soundness probe",
          {{"crashes", "number of robots that crash", "1"},
           {"window", "latest possible crash round", "64"}},
          [](std::size_t k, const Params& p, std::uint64_t seed)
              -> std::shared_ptr<const sim::Scheduler> {
            const std::uint64_t crashes = p.get_uint("crashes", 1);
            const std::uint64_t window = p.get_uint("window", 64);
            require(crashes <= k,
                    "scheduler 'crash-fault' requires crashes <= k (k=" +
                        std::to_string(k) + ", crashes=" +
                        std::to_string(crashes) + ")");
            return std::make_shared<sim::CrashFaultScheduler>(seed, crashes,
                                                              window, k);
          });
  return reg;
}

SequenceRegistry make_sequences() {
  SequenceRegistry reg("sequence policy");
  const auto no_params = std::vector<ParamSpec>{};
  reg.add("covering",
          "shortest covering pseudorandom prefix for this graph (oracle-side)",
          no_params, [](const graph::Topology& g, std::uint64_t seed) {
            return uxs::make_covering_sequence(g, seed);
          });
  reg.add("paper", "pseudorandom, paper length T = n^5 ceil(log2 n)",
          no_params, [](const graph::Topology& g, std::uint64_t) {
            const std::size_t n = g.num_nodes();
            return uxs::make_pseudorandom_sequence(n, uxs::paper_length(n));
          });
  reg.add("lazy",
          "counter-based pseudorandom, practical length, O(1) memory "
          "(for huge implicit instances)",
          no_params, [](const graph::Topology& g, std::uint64_t) {
            const std::size_t n = g.num_nodes();
            return uxs::make_lazy_sequence(n, uxs::practical_length(n));
          });
  reg.add("paper-checked",
          "paper length, coverage-validated; falls back to covering",
          no_params, [](const graph::Topology& g, std::uint64_t seed) {
            const std::size_t n = g.num_nodes();
            auto seq =
                uxs::make_pseudorandom_sequence(n, uxs::paper_length(n));
            if (!uxs::covers_all_starts(g, *seq)) {
              seq = uxs::make_covering_sequence(g, seed);
            }
            return seq;
          });
  return reg;
}

}  // namespace

GraphFamilyRegistry& graph_families() {
  static GraphFamilyRegistry reg = make_graph_families();
  return reg;
}

PlacementRegistry& placements() {
  static PlacementRegistry reg = make_placements();
  return reg;
}

LabelingRegistry& labelings() {
  static LabelingRegistry reg = make_labelings();
  return reg;
}

AlgorithmRegistry& algorithms() {
  static AlgorithmRegistry reg = make_algorithms();
  return reg;
}

SequenceRegistry& sequences() {
  static SequenceRegistry reg = make_sequences();
  return reg;
}

SchedulerRegistry& schedulers() {
  static SchedulerRegistry reg = make_schedulers();
  return reg;
}

GridDims near_square_dims(std::size_t n, std::size_t min_side) {
  n = std::max(n, min_side * min_side);
  // Exact divisor pair closest to square, accepted when the aspect ratio
  // stays <= 2 (1 x 17 is a path, not a grid).
  const auto root =
      static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  for (std::size_t rows = root; rows >= std::max<std::size_t>(min_side, 1);
       --rows) {
    if (n % rows == 0) {
      const std::size_t cols = n / rows;
      if (cols <= 2 * rows) return GridDims{rows, cols};
      break;
    }
    if (rows == 1) break;
  }
  // Near-square cover: smallest rows*cols >= n with |rows-cols| small.
  const std::size_t rows = std::max(min_side, root);
  const std::size_t cols = std::max(min_side, (n + rows - 1) / rows);
  return GridDims{rows, cols};
}

}  // namespace gather::scenario
