// Phase 1: the repo-wide indexes. One pass over each file's token stream
// collects the pdpa::Mutex inventory (declaration + PDPA_LOCK_RANK) and the
// MutexLock lock-site table with textually-held sets (a stack of in-scope
// guards tracked by brace depth); the include lists collected at load time
// become the dir-level include graph; the deterministic-sink set is seeded
// with the known fmt.h / obs sinks and widened with whatever methods the
// scanned sink classes actually declare, so a new JsonObjectWriter overload
// is a sink the moment it is written.
#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/strings.h"
#include "tools/lint/lint.h"

namespace pdpa {
namespace lint {
namespace {

// src/<dir>/... -> "dir"; empty when the path is not a src/ subdirectory.
std::string SrcDirOf(const std::string& path) {
  if (path.rfind("src/", 0) != 0) {
    return "";
  }
  const std::size_t slash = path.find('/', 4);
  if (slash == std::string::npos) {
    return "";
  }
  return path.substr(4, slash - 4);
}

// Scans one file's tokens for mutex declarations and lock sites. The held
// stack tracks MutexLock guards by the brace depth they were declared at;
// a guard leaves scope when its block closes.
void IndexMutexes(const SourceFile& file, RepoIndex* index) {
  const std::vector<Token>& tokens = file.scan.tokens;
  struct HeldGuard {
    int depth;
    std::string member;
  };
  std::vector<HeldGuard> held;
  int depth = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.text == "{") {
      ++depth;
      continue;
    }
    if (token.text == "}") {
      --depth;
      while (!held.empty() && held.back().depth > depth) {
        held.pop_back();
      }
      continue;
    }
    if (token.kind != Token::Kind::kIdent) {
      continue;
    }
    // Declaration: `Mutex <member> { PDPA_LOCK_RANK ( n ) }` (paren init
    // accepted too); `Mutex <member>;` is an unranked declaration. `Mutex`
    // followed by anything else — `(`, `*`, `&`, `>` — is the class name in
    // a signature or template argument, not a declaration.
    if (token.text == "Mutex" && i + 2 < tokens.size() &&
        tokens[i + 1].kind == Token::Kind::kIdent) {
      const std::string& member = tokens[i + 1].text;
      const std::string& init = tokens[i + 2].text;
      if (init == ";") {
        index->mutexes.push_back({file.rel_path, token.line, member, -1});
      } else if (init == "{" || init == "(") {
        const std::string closer = init == "{" ? "}" : ")";
        int rank = -1;
        int init_depth = 1;
        for (std::size_t j = i + 3; j < tokens.size() && init_depth > 0; ++j) {
          if (tokens[j].text == init) {
            ++init_depth;
          } else if (tokens[j].text == closer) {
            --init_depth;
          } else if (tokens[j].text == "PDPA_LOCK_RANK" && j + 2 < tokens.size() &&
                     tokens[j + 1].text == "(" &&
                     tokens[j + 2].kind == Token::Kind::kNumber) {
            ParseInt(tokens[j + 2].text, &rank);
          }
        }
        index->mutexes.push_back({file.rel_path, token.line, member, rank});
      }
      continue;
    }
    // Lock site: `MutexLock <guard> ( & ... <member> )`. The mutex member
    // is the last identifier of the argument expression
    // (`&state->mutex`, `&group.group_mutex`, `&engine_mutex_`).
    if (token.text == "MutexLock" && i + 2 < tokens.size() &&
        tokens[i + 1].kind == Token::Kind::kIdent && tokens[i + 2].text == "(") {
      std::string member;
      int arg_depth = 1;
      for (std::size_t j = i + 3; j < tokens.size() && arg_depth > 0; ++j) {
        if (tokens[j].text == "(") {
          ++arg_depth;
        } else if (tokens[j].text == ")") {
          --arg_depth;
        } else if (tokens[j].kind == Token::Kind::kIdent) {
          member = tokens[j].text;
        }
      }
      if (!member.empty()) {
        LockSite site{file.rel_path, token.line, member, {}};
        for (const HeldGuard& guard : held) {
          site.held.push_back(guard.member);
        }
        index->lock_sites.push_back(std::move(site));
        held.push_back({depth, member});
      }
    }
  }
}

// Widens the sink set from what the scanned tree declares: every Append*
// free function in src/common/fmt.h, and every public-looking method of the
// serialization classes. Construction/reset/flush plumbing is excluded —
// `event_log.Reset(&sink)` wires a destination, it does not format values.
void DeriveSinks(const SourceFile& file, RepoIndex* index) {
  static const std::set<std::string>* kSinkClasses = new std::set<std::string>{
      "JsonObjectWriter", "EventLog"};
  static const std::set<std::string>* kExcluded = new std::set<std::string>{
      "Reset", "Flush", "Handoff", "HandoffConfinement"};
  const std::vector<Token>& tokens = file.scan.tokens;
  if (file.rel_path == "src/common/fmt.h") {
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind == Token::Kind::kIdent &&
          tokens[i].text.rfind("Append", 0) == 0 && tokens[i + 1].text == "(") {
        index->sink_free_fns.insert(tokens[i].text);
      }
    }
  }
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text != "class" || tokens[i + 1].kind != Token::Kind::kIdent ||
        !kSinkClasses->contains(tokens[i + 1].text)) {
      continue;
    }
    const std::string& class_name = tokens[i + 1].text;
    // Find the class body and harvest `<Ident> (` method spellings.
    std::size_t j = i + 2;
    while (j < tokens.size() && tokens[j].text != "{" && tokens[j].text != ";") {
      ++j;
    }
    if (j >= tokens.size() || tokens[j].text == ";") {
      continue;  // forward declaration
    }
    int body_depth = 1;
    for (++j; j < tokens.size() && body_depth > 0; ++j) {
      if (tokens[j].text == "{") {
        ++body_depth;
      } else if (tokens[j].text == "}") {
        --body_depth;
      } else if (tokens[j].kind == Token::Kind::kIdent && j + 1 < tokens.size() &&
                 tokens[j + 1].text == "(") {
        const std::string& name = tokens[j].text;
        if (name != class_name && !name.empty() &&
            std::isupper(static_cast<unsigned char>(name[0])) != 0 &&
            name.rfind("PDPA_", 0) != 0 && !kExcluded->contains(name)) {
          index->sink_methods.insert(name);
        }
      }
    }
  }
}

}  // namespace

bool LoadLayers(const std::string& path, LayerMap* layers, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = StrFormat("cannot open layers file %s", path.c_str());
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::vector<std::string> dirs;
    std::string dir;
    while (fields >> dir) {
      if (layers->dir_layer.contains(dir)) {
        *error = StrFormat("%s:%d: directory '%s' listed twice", path.c_str(), line_no,
                           dir.c_str());
        return false;
      }
      layers->dir_layer[dir] = static_cast<int>(layers->layers.size());
      dirs.push_back(dir);
    }
    if (!dirs.empty()) {
      layers->layers.push_back(std::move(dirs));
    }
  }
  if (layers->layers.empty()) {
    *error = StrFormat("%s: no layers defined", path.c_str());
    return false;
  }
  return true;
}

RepoIndex BuildRepoIndex(const std::vector<SourceFile>& files, const LayerMap* layers) {
  RepoIndex index;
  // Known sinks, so self-contained fixture files exercise the rule without
  // scanning fmt.h/event_log.h; DeriveSinks widens this from the real tree.
  index.sink_methods = {"Field", "Emit"};
  index.sink_free_fns = {"AppendInt", "AppendUint", "AppendGeneral", "AppendFixed"};
  if (layers != nullptr) {
    index.layers = *layers;
    index.have_layers = true;
  }
  std::set<std::pair<std::string, std::string>> seen_edges;
  for (const SourceFile& file : files) {
    IndexMutexes(file, &index);
    DeriveSinks(file, &index);
    const std::string from_dir = SrcDirOf(file.rel_path);
    if (from_dir.empty()) {
      continue;
    }
    for (const IncludeRef& include : file.includes) {
      const std::string to_dir = SrcDirOf(include.target);
      if (to_dir.empty() || to_dir == from_dir) {
        continue;
      }
      if (seen_edges.insert({from_dir, to_dir}).second) {
        index.dir_edges.push_back({from_dir, to_dir, file.rel_path, include.line});
      }
    }
  }
  return index;
}

}  // namespace lint
}  // namespace pdpa
