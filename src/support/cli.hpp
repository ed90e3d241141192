// Minimal command-line option parser for the example tools.
//
// Supports --key=value, --key value, and boolean --flag forms, with a
// generated usage string. Values stay strings: gather_cli hands them to
// the spec-text parser, which owns integer parsing. No external
// dependencies; just enough for the example tools.
//
// Layer contract (src/support/): pure utilities with no knowledge of the
// paper's model — assertions, RNG, bitstrings, math, stats, tables, CSV,
// CLI, parallel sweeps. Depends on nothing but the standard library;
// every other layer may depend on it. See docs/ARCHITECTURE.md §1.
#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace gather::support {

class CliError : public std::runtime_error {
 public:
  explicit CliError(const std::string& what) : std::runtime_error(what) {}
};

class CliParser {
 public:
  /// Declare an option before parse(); `doc` feeds usage().
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& doc);
  void add_flag(const std::string& name, const std::string& doc);

  /// Parse argv; throws CliError on unknown options or missing values.
  void parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// True if the user supplied the option explicitly.
  [[nodiscard]] bool provided(const std::string& name) const;

  /// Positional arguments (everything that is not an option).
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] std::string usage(const std::string& program) const;

 private:
  struct Option {
    std::string value;
    std::string doc;
    bool is_flag = false;
    bool provided = false;
  };
  std::map<std::string, Option> options_;
  std::vector<std::string> positional_;

  [[nodiscard]] const Option& find(const std::string& name) const;
};

}  // namespace gather::support
