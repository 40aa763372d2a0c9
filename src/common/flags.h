// Minimal command-line flag parsing for the tools.
//
// Supports --key=value, --key value, and bare --switch (value "true").
// Positional arguments are collected in order. Unknown flags are kept so
// callers can reject them explicitly.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

namespace pdpa {

class FlagSet {
 public:
  // Parses argv (excluding argv[0]).
  static FlagSet Parse(int argc, const char* const* argv);

  // Typed getters with defaults; a present-but-malformed value returns the
  // default and sets the error flag.
  std::string GetString(const std::string& name, const std::string& default_value) const;
  int GetInt(const std::string& name, int default_value);
  double GetDouble(const std::string& name, double default_value);
  bool GetBool(const std::string& name, bool default_value);

  const std::vector<std::string>& positional() const { return positional_; }

  // Names seen on the command line but never queried; call after all Get*
  // calls to reject typos.
  std::vector<std::string> UnconsumedFlags() const;

  bool had_parse_error() const { return parse_error_; }

 private:
  std::map<std::string, std::string> values_;
  // Consumption tracking is bookkeeping, not observable state: getters stay
  // const while recording which flags were queried.
  mutable std::map<std::string, bool> consumed_;
  std::vector<std::string> positional_;
  bool parse_error_ = false;
};

}  // namespace pdpa

#endif  // SRC_COMMON_FLAGS_H_
