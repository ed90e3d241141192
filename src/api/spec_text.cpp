#include "api/spec_text.hpp"

#include <limits>
#include <optional>
#include <sstream>
#include <vector>

namespace gather::api {
namespace {

using scenario::Params;
using scenario::ScenarioError;

struct Line {
  std::string key;
  std::string value;
};

std::string trim(const std::string& s) {
  const std::size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const std::size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::vector<Line> split_lines(const std::string& text) {
  std::vector<Line> lines;
  std::stringstream ss(text);
  std::string raw;
  while (std::getline(ss, raw)) {
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ScenarioError("bad spec line '" + line + "' (want key=value)");
    }
    lines.push_back(Line{trim(line.substr(0, eq)), trim(line.substr(eq + 1))});
  }
  return lines;
}

std::uint64_t parse_uint_value(const Line& line) {
  const std::optional<std::uint64_t> value = scenario::parse_uint(line.value);
  if (!value) {
    throw ScenarioError("bad unsigned value for spec key '" + line.key +
                        "': '" + line.value + "'");
  }
  return *value;
}

bool parse_bool_value(const Line& line) {
  if (line.value == "0" || line.value == "false") return false;
  if (line.value == "1" || line.value == "true") return true;
  throw ScenarioError("bad boolean value for spec key '" + line.key + "': '" +
                      line.value + "' (want 0/1/true/false)");
}

/// An unsigned value that must fit the field's type T — never wrapped.
template <typename T>
T parse_uint_as(const Line& line) {
  const std::uint64_t value = parse_uint_value(line);
  if (value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    throw ScenarioError("value out of range for spec key '" + line.key +
                        "': '" + line.value + "'");
  }
  return static_cast<T>(value);
}

/// A signed int whose magnitude fits `int`, so negating it is defined.
int parse_int_value(const Line& line) {
  const bool negative = !line.value.empty() && line.value[0] == '-';
  const int magnitude = parse_uint_as<int>(
      Line{line.key, negative ? line.value.substr(1) : line.value});
  return negative ? -magnitude : magnitude;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(trim(item));
  }
  return out;
}

/// Apply one line to a ScenarioSpec; false = key not a run-spec field.
bool apply_run_key(scenario::ScenarioSpec& spec, const Line& line) {
  if (line.key == "family") {
    spec.family = line.value;
  } else if (line.key == "family_params") {
    spec.family_params = Params::parse(line.value);
  } else if (line.key == "placement") {
    spec.placement = line.value;
  } else if (line.key == "placement_params") {
    spec.placement_params = Params::parse(line.value);
  } else if (line.key == "labeling") {
    spec.labeling = line.value;
  } else if (line.key == "algorithm") {
    spec.algorithm = line.value;
  } else if (line.key == "sequence") {
    spec.sequence = line.value;
  } else if (line.key == "scheduler") {
    spec.scheduler = line.value;
  } else if (line.key == "scheduler_params") {
    spec.scheduler_params = Params::parse(line.value);
  } else if (line.key == "n") {
    spec.n = parse_uint_as<std::size_t>(line);
  } else if (line.key == "k") {
    spec.k = parse_uint_as<std::size_t>(line);
  } else if (line.key == "id_exponent_b") {
    spec.id_exponent_b = parse_uint_as<unsigned>(line);
  } else if (line.key == "seed") {
    spec.seed = parse_uint_value(line);
  } else if (line.key == "delta_aware") {
    spec.delta_aware = parse_bool_value(line);
  } else if (line.key == "known_min_pair_distance") {
    spec.known_min_pair_distance = parse_int_value(line);
  } else if (line.key == "hard_cap") {
    spec.hard_cap = parse_uint_as<sim::Round>(line);
  } else if (line.key == "decide_threads") {
    spec.decide_threads = parse_uint_as<unsigned>(line);
  } else if (line.key == "trace_path") {
    spec.trace_path = line.value;
  } else {
    return false;
  }
  return true;
}

[[noreturn]] void unknown_key(const Line& line, const char* kind) {
  throw ScenarioError(std::string("unknown ") + kind + " spec key '" +
                      line.key + "'");
}

}  // namespace

scenario::ScenarioSpec parse_run_spec(const std::string& text) {
  scenario::ScenarioSpec spec;
  for (const Line& line : split_lines(text)) {
    if (!apply_run_key(spec, line)) unknown_key(line, "run");
  }
  return spec;
}

scenario::SweepSpec parse_sweep_spec(const std::string& text) {
  scenario::SweepSpec sweep;
  for (const Line& line : split_lines(text)) {
    if (line.key == "families") {
      sweep.families = split_list(line.value);
    } else if (line.key == "sizes") {
      sweep.sizes.clear();
      for (const std::string& item : split_list(line.value)) {
        sweep.sizes.push_back(parse_uint_as<std::size_t>(Line{line.key, item}));
      }
    } else if (line.key == "k_rules") {
      sweep.k_rules.clear();
      for (const std::string& item : split_list(line.value)) {
        sweep.k_rules.push_back(scenario::parse_k_rule(item));
      }
    } else if (line.key == "placements") {
      sweep.placements = split_list(line.value);
    } else if (line.key == "algorithms") {
      sweep.algorithms = split_list(line.value);
    } else if (line.key == "schedulers") {
      sweep.schedulers = split_list(line.value);
    } else if (line.key == "seeds") {
      sweep.seeds.clear();
      for (const std::string& item : split_list(line.value)) {
        sweep.seeds.push_back(parse_uint_value(Line{line.key, item}));
      }
    } else if (line.key == "threads") {
      sweep.threads = parse_uint_as<unsigned>(line);
    } else if (line.key == "steal_chunk") {
      sweep.steal_chunk = parse_uint_as<std::size_t>(line);
    } else if (line.key == "use_result_cache") {
      sweep.use_result_cache = parse_bool_value(line);
    } else if (line.key == "trace_dir") {
      sweep.trace_dir = line.value;
    } else if (apply_run_key(sweep.base, line)) {
      // base-point field
    } else {
      unknown_key(line, "sweep");
    }
  }
  apply_sweep_policy(sweep);
  return sweep;
}

void apply_sweep_policy(scenario::SweepSpec& sweep) {
  sweep.base.trace_path.clear();  // trace_path is single-run only
  // Cheap pre-filter on the REQUESTED n; families that round n (e.g.
  // hypercube) can still reject k at resolve time, so infeasible points
  // are additionally skipped rather than aborting the sweep.
  sweep.filter = [](const scenario::ScenarioSpec& s) {
    return s.k >= 2 && s.k <= s.n;
  };
  sweep.skip_infeasible = true;
  // Adversarial schedulers can legitimately break protocol invariants
  // mid-run; report that per row (the `violation` column) instead of
  // aborting the sweep.
  sweep.tolerate_protocol_violations = true;
}

}  // namespace gather::api
