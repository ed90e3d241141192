// E-T16 — Theorem 16 (the headline result): gathering with detection in
//   (i)   O(n^3)       when k >= floor(n/2) + 1,
//   (ii)  O(n^4 log n) when floor(n/3) + 1 <= k < floor(n/2) + 1,
//   (iii) Õ(n^5)       otherwise,
// under ADVERSARIAL placements (greedy max-min-distance spread) — the
// "power of many robots": more robots force a closer pair (Lemma 15),
// which lets the cheap early stages finish the job.
//
// The regimes are exactly a scenario sweep: families × k-rules × sizes
// under the adversarial placement, so this bench is a SweepSpec plus
// per-regime exponent fits over the returned rows. The regime-(iii)
// rows use 2 far robots; their round count is dominated by the ladder
// offset Σ hop budgets = Θ(n^5 log n), the paper's Õ(n^5).
#include "bench_common.hpp"

namespace gather::bench {
namespace {

struct Regime {
  std::string rule;  // k-rule name, the sweep's regime axis
  std::string name;
  std::string expected;
  int max_stage_hop;  // stage that must suffice
};

void run() {
  using support::TextTable;
  support::print_banner(std::cout,
                        "E-T16  Theorem 16: the three k-regimes (headline)");
  std::cout << "Workload: adversarial max-min-distance placements on rings\n"
               "and sparse random graphs; labels random in [1, n^2].\n";

  std::vector<Regime> regimes{
      {"n/2+1", "(i) k=n/2+1", "O(n^3)", 2},
      {"n/3+1", "(ii) k=n/3+1", "O(n^4 log n)", 4},
      {"2", "(iii) k=2 far", "O~(n^5)", 6},
  };

  scenario::SweepSpec sweep;
  sweep.base.placement = "adversarial";
  sweep.base.algorithm = "faster";
  sweep.base.sequence = "covering";
  sweep.base.seed = 41;
  sweep.families = {"ring", "random"};
  sweep.sizes = {9, 12, 15, 18, 24, 30};
  for (Regime& regime : regimes) {
    sweep.k_rules.push_back(scenario::parse_k_rule(regime.rule));
    regime.rule = sweep.k_rules.back().name;  // row key, e.g. "2" -> "k=2"
  }
  sweep.filter = [](const scenario::ScenarioSpec& s) {
    return s.k >= 2 && s.k <= s.n;
  };
  scenario::Caches caches;
  const std::vector<scenario::SweepRow> rows =
      scenario::SweepRunner::run(sweep, caches);

  TextTable table({"family", "regime", "n", "k", "min dist", "rounds",
                   "achieved stage", "fit input", "detection"});
  auto csv = maybe_csv("theorem16", {"family", "regime", "n", "k", "mindist",
                                     "rounds", "stage", "detection"});
  TextTable fits({"family", "regime", "rounds growth", "expected"});

  // Rows arrive grouped family -> k-rule -> n (the sweep's documented
  // order), so per-(family, regime) fits are contiguous scans.
  for (const std::string& family : sweep.families) {
    for (const Regime& regime : regimes) {
      std::vector<double> ns, rounds;
      for (const scenario::SweepRow& row : rows) {
        if (row.spec.family != family || row.k_rule != regime.rule) continue;
        // Regime (iii)'s Õ(n^5) is the catch-all's cost: only rows that
        // actually reach it (min dist > 5) belong in its exponent fit —
        // smaller instances resolve earlier, which is within the bound
        // but would contaminate the shape estimate.
        const bool fit_row =
            regime.max_stage_hop < 6 || row.min_pair_distance > 5;
        if (fit_row) {
          ns.push_back(static_cast<double>(row.realized_n));
          rounds.push_back(
              static_cast<double>(row.outcome.result.metrics.rounds));
        }
        table.add_row({family, regime.name,
                       TextTable::num(std::uint64_t{row.realized_n}),
                       TextTable::num(std::uint64_t{row.spec.k}),
                       TextTable::num(std::uint64_t{row.min_pair_distance}),
                       TextTable::grouped(row.outcome.result.metrics.rounds),
                       "hop-" + std::to_string(row.outcome.gathered_stage_hop),
                       fit_row ? "yes" : "excluded (d<6)",
                       detection_cell(row.outcome)});
        if (csv) {
          csv->add_row({family, regime.name,
                        TextTable::num(std::uint64_t{row.realized_n}),
                        TextTable::num(std::uint64_t{row.spec.k}),
                        TextTable::num(std::uint64_t{row.min_pair_distance}),
                        TextTable::num(row.outcome.result.metrics.rounds),
                        TextTable::num(static_cast<std::uint64_t>(
                            row.outcome.gathered_stage_hop)),
                        detection_cell(row.outcome)});
        }
      }
      fits.add_row({family, regime.name, fitted_exponent(ns, rounds),
                    regime.expected});
    }
  }
  table.print(std::cout);
  fits.print(std::cout);
  std::cout
      << "Shape check: regime (i) resolves by stage 2 with ~n^3 rounds;\n"
         "regime (ii) by stage 4 within O(n^4 log n); regime (iii) falls\n"
         "to the catch-all whose round count grows ~n^5 (the ladder's\n"
         "Σ hop budgets) — the ordering (i) < (ii) < (iii) is the paper's\n"
         "power-of-many-robots claim.\n";
}

}  // namespace
}  // namespace gather::bench

int main() {
  gather::bench::run();
  return 0;
}
