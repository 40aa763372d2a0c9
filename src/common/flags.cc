#include "src/common/flags.h"

#include <string_view>

#include "src/common/strings.h"

namespace pdpa {

FlagSet FlagSet::Parse(int argc, const char* const* argv) {
  FlagSet flags;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      flags.values_[std::string(body.substr(0, eq))] = std::string(body.substr(eq + 1));
      continue;
    }
    // --key value, unless the next token is another flag (then it's a
    // boolean switch).
    if (i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[std::string(body)] = argv[i + 1];
      ++i;
    } else {
      flags.values_[std::string(body)] = "true";
    }
  }
  for (const auto& [name, value] : flags.values_) {
    flags.consumed_[name] = false;
  }
  return flags;
}

std::string FlagSet::GetString(const std::string& name, const std::string& default_value) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  consumed_[name] = true;
  return it->second;
}

int FlagSet::GetInt(const std::string& name, int default_value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  consumed_[name] = true;
  int value = 0;
  if (!ParseInt(it->second, &value)) {
    parse_error_ = true;
    return default_value;
  }
  return value;
}

double FlagSet::GetDouble(const std::string& name, double default_value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  consumed_[name] = true;
  double value = 0;
  if (!ParseDouble(it->second, &value)) {
    parse_error_ = true;
    return default_value;
  }
  return value;
}

bool FlagSet::GetBool(const std::string& name, bool default_value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  consumed_[name] = true;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> FlagSet::UnconsumedFlags() const {
  std::vector<std::string> unconsumed;
  for (const auto& [name, used] : consumed_) {
    if (!used) {
      unconsumed.push_back(name);
    }
  }
  return unconsumed;
}

}  // namespace pdpa
