// Phase-2 per-file rules: each runs over one file's token stream. Moved
// verbatim from the v1 monolith; behaviour (messages, line anchors, scope
// gating) is pinned by tests/lint_fixture_test.cmake.
#include "src/common/strings.h"
#include "tools/lint/lint.h"

namespace pdpa {
namespace lint {
namespace {

void AddFinding(std::vector<Finding>* findings, const ScanResult& scan, const std::string& file,
                int line, const char* rule, std::string message) {
  if (Suppressed(scan, line, rule)) {
    return;
  }
  findings->push_back(Finding{file, line, rule, std::move(message), false});
}

// Names declared (or bound as parameters) with an unordered container type:
// `std::unordered_map<K, V>[&*] name`. Template arguments are skipped by
// angle-depth counting; `>>` is one token and closes two levels.
std::set<std::string> UnorderedTypedNames(const std::vector<Token>& tokens) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent ||
        tokens[i].text.find("unordered") == std::string::npos) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < tokens.size() && tokens[j].text == "<") {
      int angle = 1;
      for (++j; j < tokens.size() && angle > 0; ++j) {
        if (tokens[j].text == "<") {
          ++angle;
        } else if (tokens[j].text == ">") {
          --angle;
        } else if (tokens[j].text == ">>") {
          angle -= 2;
        } else if (tokens[j].text == ";") {
          angle = 0;  // malformed; bail out of the template scan
        }
      }
    }
    while (j < tokens.size() &&
           (tokens[j].text == "&" || tokens[j].text == "*" || tokens[j].text == "&&" ||
            tokens[j].text == "const")) {
      ++j;
    }
    if (j < tokens.size() && tokens[j].kind == Token::Kind::kIdent) {
      names.insert(tokens[j].text);
    }
  }
  return names;
}

}  // namespace

void CheckWallClock(const SourceFile& file, std::vector<Finding>* findings) {
  if (file.scope == Scope::kOther) {
    return;  // The rule covers src/ and tools/ only.
  }
  static const std::set<std::string>* kBannedIdents = new std::set<std::string>{
      "rand", "srand", "system_clock", "high_resolution_clock", "steady_clock"};
  static const std::set<std::string>* kBannedCalls =
      new std::set<std::string>{"time", "clock"};
  const std::vector<Token>& tokens = file.scan.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != Token::Kind::kIdent) {
      continue;
    }
    if (kBannedIdents->contains(token.text)) {
      // Sanctioned-clock allowance: the host-time self-profiler's one
      // translation unit is the only place in src/ allowed to read
      // steady_clock (everything else calls prof::NowNanos()). Only that
      // exact token in that exact file — system_clock etc. stay banned.
      if (token.text == "steady_clock" && file.rel_path == "src/obs/prof.cc") {
        continue;
      }
      AddFinding(findings, file.scan, file.rel_path, token.line, "wall-clock",
                 StrFormat("nondeterministic source '%s' in sim code (use SimTime)",
                           token.text.c_str()));
      continue;
    }
    if (kBannedCalls->contains(token.text) && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      AddFinding(findings, file.scan, file.rel_path, token.line, "wall-clock",
                 StrFormat("nondeterministic source '%s()' in sim code (use SimTime)",
                           token.text.c_str()));
    }
  }
}

void CheckUnorderedIter(const SourceFile& file, std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = file.scan.tokens;
  const std::set<std::string> unordered_names = UnorderedTypedNames(tokens);
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent || tokens[i].text != "for" ||
        tokens[i + 1].text != "(") {
      continue;
    }
    // Walk the for-header; a range-for has a `:` at depth 1. `::` is one
    // token, so a bare `:` is unambiguous.
    int depth = 0;
    bool seen_colon = false;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      const Token& t = tokens[j];
      if (t.text == "(" || t.text == "[" || t.text == "{") {
        ++depth;
      } else if (t.text == ")" || t.text == "]" || t.text == "}") {
        --depth;
        if (depth == 0) {
          break;
        }
      } else if (t.text == ":" && depth == 1) {
        seen_colon = true;
      } else if (seen_colon && t.kind == Token::Kind::kIdent &&
                 (t.text.find("unordered") != std::string::npos ||
                  unordered_names.contains(t.text))) {
        AddFinding(findings, file.scan, file.rel_path, tokens[i].line, "unordered-iter",
                   "range-for over an unordered container: iteration order is "
                   "unspecified (sort first, or justify with // lint: ordered-ok)");
        break;
      }
    }
  }
}

void CheckFloatEq(const SourceFile& file, std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = file.scan.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != Token::Kind::kPunct || (token.text != "==" && token.text != "!=")) {
      continue;
    }
    const bool prev_float = i > 0 && IsFloatLiteral(tokens[i - 1]);
    const bool next_float = i + 1 < tokens.size() && IsFloatLiteral(tokens[i + 1]);
    if (prev_float || next_float) {
      AddFinding(findings, file.scan, file.rel_path, token.line, "float-eq",
                 StrFormat("'%s' against a floating-point literal (use NearlyEqual from "
                           "src/common/stats.h)",
                           token.text.c_str()));
    }
  }
}

void CheckDirectIo(const SourceFile& file, std::vector<Finding>* findings) {
  if (file.scope != Scope::kSrc) {
    return;  // Tools own their stdout/stderr.
  }
  static const std::set<std::string>* kBannedCalls =
      new std::set<std::string>{"printf", "fprintf", "puts", "putchar"};
  static const std::set<std::string>* kBannedStreams =
      new std::set<std::string>{"cout", "cerr"};
  const std::vector<Token>& tokens = file.scan.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != Token::Kind::kIdent) {
      continue;
    }
    // Call-position only: `printf` inside `__attribute__((format(printf,..)))`
    // is an identifier, not output.
    if (kBannedCalls->contains(token.text) && i + 1 < tokens.size() &&
        tokens[i + 1].text == "(") {
      AddFinding(findings, file.scan, file.rel_path, token.line, "direct-io",
                 StrFormat("'%s()' in src/ (emit through the obs layer or PDPA_LOG)",
                           token.text.c_str()));
      continue;
    }
    if (kBannedStreams->contains(token.text)) {
      AddFinding(findings, file.scan, file.rel_path, token.line, "direct-io",
                 StrFormat("'std::%s' in src/ (emit through the obs layer or PDPA_LOG)",
                           token.text.c_str()));
    }
  }
}

void CheckStreamFlush(const SourceFile& file, std::vector<Finding>* findings) {
  if (file.scope != Scope::kSrc) {
    return;  // Tools own their streams' flushing policy.
  }
  const std::vector<Token>& tokens = file.scan.tokens;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != Token::Kind::kIdent ||
        (token.text != "endl" && token.text != "flush")) {
      continue;
    }
    // Qualified (std::endl) or streamed (<< endl under a using-directive);
    // a plain identifier named `flush` is someone's variable, not I/O.
    const std::string& prev = tokens[i - 1].text;
    if (prev != "::" && prev != "<<") {
      continue;
    }
    AddFinding(findings, file.scan, file.rel_path, token.line, "stream-flush",
               StrFormat("'%s' in src/ flushes per line (write '\\n' and let BufWriter "
                         "batch; Flush() once at the end)",
                         token.text.c_str()));
  }
}

}  // namespace lint
}  // namespace pdpa
