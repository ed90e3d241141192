#include "support/cli.hpp"

#include <sstream>

namespace gather::support {

void CliParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& doc) {
  options_[name] = Option{default_value, doc, false, false};
}

void CliParser::add_flag(const std::string& name, const std::string& doc) {
  options_[name] = Option{"false", doc, true, false};
}

const CliParser::Option& CliParser::find(const std::string& name) const {
  const auto it = options_.find(name);
  if (it == options_.end()) throw CliError("unknown option: --" + name);
  return it->second;
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = options_.find(arg);
    if (it == options_.end()) throw CliError("unknown option: --" + arg);
    Option& opt = it->second;
    if (opt.is_flag) {
      if (has_value) throw CliError("flag --" + arg + " takes no value");
      opt.value = "true";
    } else if (has_value) {
      opt.value = value;
    } else {
      if (i + 1 >= argc) throw CliError("option --" + arg + " needs a value");
      opt.value = argv[++i];
    }
    opt.provided = true;
  }
}

std::string CliParser::get(const std::string& name) const {
  return find(name).value;
}

bool CliParser::get_flag(const std::string& name) const {
  return find(name).value == "true";
}

bool CliParser::provided(const std::string& name) const {
  return find(name).provided;
}

std::string CliParser::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  for (const auto& [name, opt] : options_) {
    os << "  --" << name;
    if (!opt.is_flag) os << "=<" << (opt.value.empty() ? "value" : opt.value) << ">";
    os << "\n      " << opt.doc << "\n";
  }
  return os.str();
}

}  // namespace gather::support
