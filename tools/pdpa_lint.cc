// pdpa_lint — the project's determinism & hygiene linter (driver).
//
// The rules live in tools/lint/ (see tools/lint/lint.h for the two-phase
// design). This file owns the CLI: flag parsing, file collection, the two
// phases' sequencing, waiver application, report formatting, exit codes.
//
//   phase 1: tokenize every input file, build the repo-wide indexes
//            (#include graph, mutex/rank inventory, lock-site table,
//            deterministic-sink set, layers.txt DAG).
//   phase 2: run the five per-file rules on each file and the three
//            whole-program rule families against the indexes.
//
// Output is `file:line: rule-id: message`, deterministic (sorted by file,
// line, rule). Exit 0 clean, 1 findings, 2 usage/IO error. There is
// deliberately no --fix: every violation is either a real bug or deserves
// a written justification (see --explain <rule-id> for each rule's
// approved escape hatch).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/strings.h"
#include "tools/lint/lint.h"

namespace pdpa {
namespace {

using lint::Finding;
using lint::LayerMap;
using lint::RepoIndex;
using lint::RuleInfo;
using lint::Scope;
using lint::SourceFile;
using lint::Waiver;

constexpr const char* kUsage = R"(usage: pdpa_lint [paths...] [flags]

Lints C++ sources (*.h, *.cc) for determinism and hygiene violations.
With no paths, lints src/ and tools/ under --root. Phase 1 indexes the
whole input set (includes, mutex ranks, lock sites); phase 2 runs per-file
and whole-program rules, so repo-wide rules see every file at once.

flags:
  --root DIR        repo root; scopes rules and waiver paths (default ".")
  --waivers FILE    waiver list (default <root>/lint_waivers.txt if present)
  --layers FILE     architecture DAG (default <root>/tools/lint/layers.txt
                    if present; layer rules are skipped without one)
  --json FILE       also write a JSON report ("-" for stdout)
  --today YYYY-MM-DD  waiver-expiry reference date (default: today)
  --treat_as DIR    classify explicit paths as src|tools for rule
                    scoping (fixture testing)
  --list_rules      print the rule catalog and exit
  --explain RULE    print one rule's rationale and escape hatch, then exit
  --waiver_expiry_within N
                    report-only mode: warn (exit 0) for waivers expiring
                    within N days of --today, instead of linting
  --help            this text

waiver format (lint_waivers.txt), one per line:
  <rule-id> <path-relative-to-root> <max-findings> <expires:YYYY-MM-DD> <reason...>
A waiver suppresses up to <max-findings> findings of <rule-id> in <path>
until <expires>; expired or over-budget waivers surface every finding.
)";

Scope ScopeOf(const std::string& rel_path) {
  if (rel_path.rfind("src/", 0) == 0) {
    return Scope::kSrc;
  }
  if (rel_path.rfind("tools/", 0) == 0) {
    return Scope::kTools;
  }
  return Scope::kOther;
}

bool IsSourceFile(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

// Expands files/directories into a sorted list of source files.
bool CollectFiles(const std::vector<std::string>& paths, std::vector<std::string>* files,
                  std::string* error) {
  namespace fs = std::filesystem;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end; it != end; ++it) {
        if (it->is_regular_file() && IsSourceFile(it->path())) {
          files->push_back(it->path().lexically_normal().string());
        }
      }
      continue;
    }
    if (fs::is_regular_file(path, ec)) {
      files->push_back(fs::path(path).lexically_normal().string());
      continue;
    }
    *error = StrFormat("no such file or directory: %s", path.c_str());
    return false;
  }
  std::sort(files->begin(), files->end());
  files->erase(std::unique(files->begin(), files->end()), files->end());
  return true;
}

std::string JsonEscapeMin(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

void WriteJsonReport(const std::vector<Finding>& findings, std::size_t files_scanned,
                     const std::string& today, std::ostream& out) {
  std::size_t unwaived = 0;
  for (const Finding& finding : findings) {
    unwaived += finding.waived ? 0 : 1;
  }
  out << "{\n  \"version\": 2,\n  \"today\": \"" << today << "\",\n  \"files_scanned\": "
      << files_scanned << ",\n  \"rules\": [\n";
  const std::vector<RuleInfo>& catalog = lint::RuleCatalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    out << "    {\"id\": \"" << catalog[i].id << "\", \"summary\": \""
        << JsonEscapeMin(catalog[i].summary) << "\"}"
        << (i + 1 < catalog.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"findings\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "    {\"file\": \"" << JsonEscapeMin(f.file) << "\", \"line\": " << f.line
        << ", \"rule\": \"" << f.rule << "\", \"waived\": " << (f.waived ? "true" : "false")
        << ", \"message\": \"" << JsonEscapeMin(f.message) << "\"}"
        << (i + 1 < findings.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"summary\": {\"total\": " << findings.size() << ", \"unwaived\": " << unwaived
      << ", \"waived\": " << findings.size() - unwaived << "}\n}\n";
}

// --waiver_expiry_within N: report-only advisory (always exit 0 unless the
// waiver file itself is broken). Separate from linting so lint_repo can
// pin --today for date-independence while CI still surfaces approaching
// expirations as a non-fatal, distinct message.
int RunWaiverExpiry(const std::string& waiver_path, int today, int within_days) {
  std::vector<Waiver> waivers;
  std::string error;
  if (!waiver_path.empty() && !lint::LoadWaivers(waiver_path, &waivers, &error)) {
    std::fprintf(stderr, "pdpa_lint: %s\n", error.c_str());
    return 2;
  }
  int flagged = 0;
  for (const Waiver& waiver : waivers) {
    const long days_left = lint::DaysBetween(today, waiver.expires);
    const std::string date = StrFormat("%04d-%02d-%02d", waiver.expires / 10000,
                                       (waiver.expires / 100) % 100, waiver.expires % 100);
    if (days_left < 0) {
      std::printf("pdpa_lint: waiver-expiry: line %d (%s %s) EXPIRED %s; re-justify or "
                  "remove it\n",
                  waiver.source_line, waiver.rule.c_str(), waiver.path.c_str(), date.c_str());
      ++flagged;
    } else if (days_left <= within_days) {
      std::printf("pdpa_lint: waiver-expiry: line %d (%s %s) expires in %ld day%s (%s)\n",
                  waiver.source_line, waiver.rule.c_str(), waiver.path.c_str(), days_left,
                  days_left == 1 ? "" : "s", date.c_str());
      ++flagged;
    }
  }
  std::printf("pdpa_lint: waiver-expiry: %zu waiver%s checked, %d within %d days "
              "(advisory only)\n",
              waivers.size(), waivers.size() == 1 ? "" : "s", flagged, within_days);
  return 0;
}

int RunExplain(const std::string& rule_id) {
  const RuleInfo* rule = lint::FindRuleInfo(rule_id);
  if (rule == nullptr) {
    std::fprintf(stderr, "pdpa_lint: unknown rule '%s' (see --list_rules)\n", rule_id.c_str());
    return 2;
  }
  std::printf("rule: %s\n\nsummary:\n  %s\n\nrationale:\n  %s\n\nescape hatch:\n  %s\n",
              rule->id, rule->summary, rule->rationale, rule->escape);
  return 0;
}

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (flags.GetBool("list_rules", false)) {
    for (const RuleInfo& rule : lint::RuleCatalog()) {
      std::printf("%-21s %s\n", rule.id, rule.summary);
    }
    return 0;
  }
  const std::string explain = flags.GetString("explain", "");
  if (!explain.empty()) {
    return RunExplain(explain);
  }
  const std::string root = flags.GetString("root", ".");
  const std::string waivers_flag = flags.GetString("waivers", "");
  const std::string layers_flag = flags.GetString("layers", "");
  const std::string json_path = flags.GetString("json", "");
  const std::string today_text = flags.GetString("today", "");
  const std::string treat_as = flags.GetString("treat_as", "");
  const int expiry_within = flags.GetInt("waiver_expiry_within", -1);
  std::vector<std::string> inputs = flags.positional();
  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "pdpa_lint: unknown flag --%s (see --help)\n", unknown.c_str());
    return 2;
  }
  if (flags.had_parse_error()) {
    std::fprintf(stderr, "pdpa_lint: malformed flag value (see --help)\n");
    return 2;
  }
  int today = lint::TodayYyyymmdd();
  if (!today_text.empty()) {
    today = lint::ParseDate(today_text);
    if (today == 0) {
      std::fprintf(stderr, "pdpa_lint: bad --today %s (want YYYY-MM-DD)\n", today_text.c_str());
      return 2;
    }
  }
  Scope forced_scope = Scope::kOther;
  bool have_forced_scope = false;
  if (!treat_as.empty()) {
    have_forced_scope = true;
    if (treat_as == "src") {
      forced_scope = Scope::kSrc;
    } else if (treat_as == "tools") {
      forced_scope = Scope::kTools;
    } else {
      std::fprintf(stderr, "pdpa_lint: bad --treat_as %s (want src|tools)\n",
                   treat_as.c_str());
      return 2;
    }
  }

  namespace fs = std::filesystem;
  std::string waiver_path = waivers_flag;
  if (waiver_path.empty()) {
    const fs::path fallback = fs::path(root) / "lint_waivers.txt";
    std::error_code ec;
    if (fs::is_regular_file(fallback, ec)) {
      waiver_path = fallback.string();
    }
  }
  if (expiry_within >= 0) {
    return RunWaiverExpiry(waiver_path, today, expiry_within);
  }

  if (inputs.empty()) {
    for (const char* dir : {"src", "tools"}) {
      const fs::path path = fs::path(root) / dir;
      std::error_code ec;
      if (fs::is_directory(path, ec)) {
        inputs.push_back(path.string());
      }
    }
    if (inputs.empty()) {
      std::fprintf(stderr, "pdpa_lint: nothing to lint under --root %s\n", root.c_str());
      return 2;
    }
  }
  std::vector<std::string> files;
  std::string error;
  if (!CollectFiles(inputs, &files, &error)) {
    std::fprintf(stderr, "pdpa_lint: %s\n", error.c_str());
    return 2;
  }

  std::vector<Waiver> waivers;
  if (!waiver_path.empty() && !lint::LoadWaivers(waiver_path, &waivers, &error)) {
    std::fprintf(stderr, "pdpa_lint: %s\n", error.c_str());
    return 2;
  }

  LayerMap layers;
  bool have_layers = false;
  std::string layers_path = layers_flag;
  if (layers_path.empty()) {
    const fs::path fallback = fs::path(root) / "tools" / "lint" / "layers.txt";
    std::error_code ec;
    if (fs::is_regular_file(fallback, ec)) {
      layers_path = fallback.string();
    }
  }
  if (!layers_path.empty()) {
    if (!lint::LoadLayers(layers_path, &layers, &error)) {
      std::fprintf(stderr, "pdpa_lint: %s\n", error.c_str());
      return 2;
    }
    have_layers = true;
  }

  // Phase 1: scan everything, build the repo-wide indexes.
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "pdpa_lint: cannot open %s\n", file.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    // Waiver paths and reported paths are root-relative when the file lies
    // under --root, verbatim otherwise.
    std::error_code ec;
    const fs::path rel = fs::relative(file, root, ec);
    std::string rel_path = (ec || rel.empty() || *rel.begin() == "..")
                               ? file
                               : rel.lexically_normal().generic_string();
    SourceFile source;
    source.scope = have_forced_scope ? forced_scope : ScopeOf(rel_path);
    source.rel_path = std::move(rel_path);
    source.scan = lint::Scan(text);
    source.includes = lint::ExtractIncludes(text);
    sources.push_back(std::move(source));
  }
  const RepoIndex index = lint::BuildRepoIndex(sources, have_layers ? &layers : nullptr);

  // Phase 2: per-file rules, then the whole-program rules on the indexes.
  std::vector<Finding> findings;
  for (const SourceFile& source : sources) {
    lint::CheckWallClock(source, &findings);
    lint::CheckUnorderedIter(source, &findings);
    lint::CheckFloatEq(source, &findings);
    lint::CheckDirectIo(source, &findings);
    lint::CheckStreamFlush(source, &findings);
    lint::CheckPtrTaint(source, index, &findings);
  }
  lint::CheckLayerRules(sources, index, &findings);
  lint::CheckLockOrder(sources, index, &findings);

  lint::ApplyWaivers(waivers, today, &findings);
  std::sort(findings.begin(), findings.end(), lint::FindingBefore);

  int unwaived = 0;
  for (const Finding& finding : findings) {
    if (finding.waived) {
      continue;
    }
    std::printf("%s:%d: %s: %s\n", finding.file.c_str(), finding.line, finding.rule.c_str(),
                finding.message.c_str());
    ++unwaived;
  }

  if (!json_path.empty()) {
    const std::string today_str = StrFormat("%04d-%02d-%02d", today / 10000,
                                            (today / 100) % 100, today % 100);
    if (json_path == "-") {
      WriteJsonReport(findings, files.size(), today_str, std::cout);
    } else {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "pdpa_lint: cannot write %s\n", json_path.c_str());
        return 2;
      }
      WriteJsonReport(findings, files.size(), today_str, out);
    }
  }

  if (unwaived > 0) {
    std::fprintf(stderr, "pdpa_lint: %d finding%s in %zu files\n", unwaived,
                 unwaived == 1 ? "" : "s", files.size());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
