// pdpa_lint's rule library — the linter split into testable units.
//
// Two-phase design (DESIGN.md §8):
//
//   phase 1  every input file is tokenized once (Scan) and the repo-wide
//            indexes are built from the token streams (BuildRepoIndex):
//            the #include graph over src/, the pdpa::Mutex inventory
//            (every declaration with its PDPA_LOCK_RANK), the lock-site
//            table (every MutexLock with the set of locks textually held
//            at that point), and the deterministic-sink method set.
//   phase 2  the five per-file rules run against each file's tokens, and
//            the three whole-program rule families (layer-cycle/layer-up,
//            lock-order, ptr-taint) run against the indexes.
//
// The tokenizer is deliberately self-contained (no libclang): it
// understands comments, string/char/raw-string literals and two-character
// operators, which is exactly enough for token-pattern rules with no
// build-system coupling. The price is that rules are textual — they see
// declarations and call sites, not types — so the repo pairs the static
// lock-order rule with the -DPDPA_AUDIT runtime auditor in
// src/common/mutex.h, which catches the std::unique_lock paths the token
// patterns cannot.
//
// Everything here is pure: no flag parsing, no process exit, no stdout.
// tools/pdpa_lint.cc is the driver.
#ifndef TOOLS_LINT_LINT_H_
#define TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace pdpa {
namespace lint {

// ---------------------------------------------------------------------------
// Tokenizer (phase 1)
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kString, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

struct ScanResult {
  std::vector<Token> tokens;
  // line -> rule ids suppressed on that line by `// lint: <directive>`.
  std::map<int, std::set<std::string>> suppressed;
};

ScanResult Scan(const std::string& text);
bool IsFloatLiteral(const Token& token);
bool Suppressed(const ScanResult& scan, int line, const std::string& rule);

// Inline-suppression comment spelling -> rule id ("float-eq-ok" -> "float-eq").
const std::map<std::string, std::string>& DirectiveTable();

// `#include "..."` targets of one file, with the line they appear on.
// Quoted includes only: system headers cannot participate in repo layering.
struct IncludeRef {
  std::string target;
  int line = 0;
};
std::vector<IncludeRef> ExtractIncludes(const std::string& text);

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

enum class Scope { kSrc, kTools, kOther };

struct RuleInfo {
  const char* id;        // catalog row; layer-cycle/layer-up share one row
  const char* summary;   // one line, shown by --list_rules
  const char* rationale; // paragraph, shown by --explain
  const char* escape;    // the approved escape hatch, shown by --explain
};

// The 8 catalog rows, in display order.
const std::vector<RuleInfo>& RuleCatalog();

// Catalog row for a rule id; accepts the finding ids `layer-cycle` and
// `layer-up` for the combined row. Null when unknown.
const RuleInfo* FindRuleInfo(const std::string& id);

// Whether `id` is a valid finding id (waiver files use these; the combined
// catalog row is not itself a finding id).
bool IsKnownRuleId(const std::string& id);

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;  // root-relative
  int line = 0;
  std::string rule;
  std::string message;
  bool waived = false;
};

// Deterministic report order: (file, line, rule).
bool FindingBefore(const Finding& a, const Finding& b);

// One scanned input: root-relative path, rule scope, token stream, includes.
struct SourceFile {
  std::string rel_path;
  Scope scope = Scope::kOther;
  ScanResult scan;
  std::vector<IncludeRef> includes;
};

// ---------------------------------------------------------------------------
// Repo-wide indexes (phase 1 output)
// ---------------------------------------------------------------------------

// One pdpa::Mutex declaration: `Mutex <member>{PDPA_LOCK_RANK(n)};`.
struct MutexDecl {
  std::string file;
  int line = 0;
  std::string member;
  int rank = -1;  // -1: declared without PDPA_LOCK_RANK
};

// One `MutexLock guard(&...-><member>)` acquisition, with the mutex members
// textually held at that point (enclosing MutexLock guards still in scope).
struct LockSite {
  std::string file;
  int line = 0;
  std::string member;
  std::vector<std::string> held;
};

// The architecture DAG from layers.txt: one layer per line, foundation
// first; each line lists the src/ subdirectories in that layer. A file in
// layer k may include only layers <= k.
struct LayerMap {
  std::vector<std::vector<std::string>> layers;  // layers[k] = dirs at k
  std::map<std::string, int> dir_layer;          // "sim" -> k
};
bool LoadLayers(const std::string& path, LayerMap* layers, std::string* error);

// One dir-level include edge ("qs" -> "rm") with a representative
// file:line (the first include that creates it, in sorted-file order).
struct DirEdge {
  std::string from_dir;
  std::string to_dir;
  std::string file;
  int line = 0;
};

struct RepoIndex {
  std::vector<MutexDecl> mutexes;
  std::vector<LockSite> lock_sites;
  std::vector<DirEdge> dir_edges;
  // Deterministic sinks: methods (flagged when called as `x.M(...)`) and
  // free functions (arg 0 — the destination out-param — is exempt).
  std::set<std::string> sink_methods;
  std::set<std::string> sink_free_fns;
  LayerMap layers;
  bool have_layers = false;
};

// Builds every index from the scanned files. `layers` may be null (layer
// rules are then skipped; per-file fixture runs have no layers.txt).
RepoIndex BuildRepoIndex(const std::vector<SourceFile>& files, const LayerMap* layers);

// ---------------------------------------------------------------------------
// Per-file rules (phase 2)
// ---------------------------------------------------------------------------

void CheckWallClock(const SourceFile& file, std::vector<Finding>* findings);
void CheckUnorderedIter(const SourceFile& file, std::vector<Finding>* findings);
void CheckFloatEq(const SourceFile& file, std::vector<Finding>* findings);
void CheckDirectIo(const SourceFile& file, std::vector<Finding>* findings);
void CheckStreamFlush(const SourceFile& file, std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// Whole-program rules (phase 2)
// ---------------------------------------------------------------------------

// layer-cycle + layer-up against index.layers (no-ops when !have_layers).
void CheckLayerRules(const std::vector<SourceFile>& files, const RepoIndex& index,
                     std::vector<Finding>* findings);

// Unranked/duplicate declarations and rank-order inversions at lock sites.
void CheckLockOrder(const std::vector<SourceFile>& files, const RepoIndex& index,
                    std::vector<Finding>* findings);

// Pointer/this/thread-id values reaching deterministic sinks; pointer-keyed
// containers; std::hash over pointer types. Per-file but sink-set-driven,
// so it lives with the whole-program rules.
void CheckPtrTaint(const SourceFile& file, const RepoIndex& index,
                   std::vector<Finding>* findings);

// ---------------------------------------------------------------------------
// Waivers
// ---------------------------------------------------------------------------

struct Waiver {
  std::string rule;
  std::string path;  // root-relative
  int max_findings = 0;
  int expires = 0;  // yyyymmdd
  std::string reason;
  int source_line = 0;
  mutable int used = 0;
};

// "YYYY-MM-DD" -> yyyymmdd; 0 on malformed input.
int ParseDate(const std::string& text);
int TodayYyyymmdd();

// Civil-calendar day count from `from` to `to` (positive when `to` is
// later). Pure integer arithmetic — no wall-clock reads.
long DaysBetween(int from_yyyymmdd, int to_yyyymmdd);

bool LoadWaivers(const std::string& path, std::vector<Waiver>* waivers, std::string* error);

// Marks findings covered by an in-date, in-budget waiver. Expired, stale or
// over-budget waivers leave their findings unwaived (note on stderr).
void ApplyWaivers(const std::vector<Waiver>& waivers, int today,
                  std::vector<Finding>* findings);

}  // namespace lint
}  // namespace pdpa

#endif  // TOOLS_LINT_LINT_H_
