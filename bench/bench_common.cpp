#include "bench_common.hpp"

#include <chrono>
#include <sstream>

namespace gather::bench {

Stopwatch::Stopwatch() : start_(std::chrono::steady_clock::now()) {}

double Stopwatch::seconds() const {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now - start_).count();
}

Measurement measure(const graph::Topology& g, const graph::Placement& placement,
                    const core::RunSpec& spec) {
  Measurement m;
  const Stopwatch watch;
  m.outcome = core::run_gathering(g, placement, spec);
  m.wall_seconds = watch.seconds();
  return m;
}

Measurement measure(const scenario::ScenarioSpec& spec) {
  const scenario::ResolvedScenario r = scenario::resolve(spec);
  return measure(*r.graph, r.placement, r.run_spec);
}

std::vector<Measurement> measure_scenarios(
    const std::vector<scenario::ScenarioSpec>& specs) {
  return support::parallel_map_index<Measurement>(
      specs.size(), support::default_thread_count(),
      [&](std::size_t i) { return measure(specs[i]); });
}

std::vector<Measurement> measure_all(
    const std::vector<std::function<Measurement()>>& thunks) {
  return support::parallel_map_index<Measurement>(
      thunks.size(), support::default_thread_count(),
      [&](std::size_t i) { return thunks[i](); });
}

std::string fitted_exponent(const std::vector<double>& ns,
                            const std::vector<double>& rounds) {
  if (ns.size() < 2) return "-";
  const support::LinearFit fit = support::loglog_fit(ns, rounds);
  std::ostringstream os;
  os << "n^" << support::TextTable::num(fit.slope, 2)
     << " (R2=" << support::TextTable::num(fit.r_squared, 3) << ")";
  return os.str();
}

std::string detection_cell(const core::RunOutcome& outcome) {
  if (outcome.result.detection_correct) return "OK";
  std::string why;
  if (!outcome.result.all_terminated) why += "no-term ";
  if (outcome.result.hit_round_cap) why += "cap ";
  if (!outcome.result.gathered_at_end) why += "not-gathered ";
  return "FAIL(" + why + ")";
}

std::string ratio_cell(double measured, double bound) {
  if (bound <= 0.0) return "-";
  std::ostringstream os;
  os << "x" << support::TextTable::num(measured / bound, 3);
  return os.str();
}

std::unique_ptr<support::CsvWriter> maybe_csv(
    const std::string& name, const std::vector<std::string>& header) {
  const std::string dir = support::csv_output_dir();
  if (dir.empty()) return nullptr;
  return std::make_unique<support::CsvWriter>(dir + "/" + name + ".csv",
                                              header);
}

}  // namespace gather::bench
