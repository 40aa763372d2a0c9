// Phase-2 whole-program rules, running against the phase-1 indexes:
//
//   layer-up     an #include that reaches a higher layer of the
//                architecture DAG (tools/lint/layers.txt), flagged at the
//                include line; also any src/ directory missing from the DAG.
//   layer-cycle  a cycle in the dir-level include graph, reported once per
//                distinct cycle (canonical rotation) at the first edge's
//                representative include.
//   lock-order   unranked or ambiguous pdpa::Mutex declarations, duplicate
//                ranks, and any MutexLock acquisition whose textually-held
//                set violates the strictly-increasing rank order.
//   ptr-taint    pointer/this/thread-id values reaching deterministic
//                sinks; pointer-keyed containers; std::hash over pointers.
#include <algorithm>
#include <map>
#include <utility>

#include "src/common/strings.h"
#include "tools/lint/lint.h"

namespace pdpa {
namespace lint {
namespace {

void AddFinding(std::vector<Finding>* findings, const ScanResult* scan, const std::string& file,
                int line, const char* rule, std::string message) {
  if (scan != nullptr && Suppressed(*scan, line, rule)) {
    return;
  }
  findings->push_back(Finding{file, line, rule, std::move(message), false});
}

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

// DFS over the dir graph collecting every cycle reachable via a back edge,
// canonicalized (rotated to the lexicographically smallest dir) so each
// distinct cycle is reported exactly once regardless of discovery order.
struct CycleFinder {
  const std::map<std::string, std::vector<std::string>>* adjacency;
  std::map<std::string, int> color;  // 0 white, 1 on stack, 2 done
  std::vector<std::string> stack;
  std::set<std::vector<std::string>> cycles;  // canonical rotations

  void Visit(const std::string& dir) {
    color[dir] = 1;
    stack.push_back(dir);
    const auto it = adjacency->find(dir);
    if (it != adjacency->end()) {
      for (const std::string& next : it->second) {
        if (color[next] == 1) {
          const auto start = std::find(stack.begin(), stack.end(), next);
          std::vector<std::string> cycle(start, stack.end());
          const auto min_it = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), min_it, cycle.end());
          cycles.insert(std::move(cycle));
        } else if (color[next] == 0) {
          Visit(next);
        }
      }
    }
    stack.pop_back();
    color[dir] = 2;
  }
};

}  // namespace

void CheckLayerRules(const std::vector<SourceFile>& files, const RepoIndex& index,
                     std::vector<Finding>* findings) {
  if (!index.have_layers) {
    return;
  }
  const std::map<std::string, int>& layer_of = index.layers.dir_layer;

  // Directories outside the DAG: the architecture must name every src/
  // subdirectory before its dependencies can be checked. Anchored at the
  // first file of the directory (files arrive sorted).
  std::set<std::string> unassigned_reported;
  for (const SourceFile& file : files) {
    const std::string dir = SrcDirOf(file.rel_path);
    if (dir.empty() || layer_of.contains(dir) || !unassigned_reported.insert(dir).second) {
      continue;
    }
    AddFinding(findings, nullptr, file.rel_path, 1, "layer-up",
               StrFormat("directory 'src/%s' has no layer in layers.txt; add it to the "
                         "architecture DAG before depending on it",
                         dir.c_str()));
  }

  // Upward includes, flagged at each offending #include line.
  for (const SourceFile& file : files) {
    const std::string from_dir = SrcDirOf(file.rel_path);
    if (from_dir.empty() || !layer_of.contains(from_dir)) {
      continue;
    }
    const int from_layer = layer_of.at(from_dir);
    for (const IncludeRef& include : file.includes) {
      const std::string to_dir = SrcDirOf(include.target);
      if (to_dir.empty() || to_dir == from_dir || !layer_of.contains(to_dir)) {
        continue;
      }
      const int to_layer = layer_of.at(to_dir);
      if (to_layer > from_layer) {
        AddFinding(findings, &file.scan, file.rel_path, include.line, "layer-up",
                   StrFormat("#include \"%s\" reaches up from layer %d (src/%s) to layer "
                             "%d (src/%s); dependencies must point downward in the "
                             "architecture DAG (layers.txt)",
                             include.target.c_str(), from_layer, from_dir.c_str(), to_layer,
                             to_dir.c_str()));
      }
    }
  }

  // Cycles in the dir-level graph, one finding per distinct cycle.
  std::map<std::string, std::vector<std::string>> adjacency;
  std::map<std::pair<std::string, std::string>, const DirEdge*> edge_rep;
  for (const DirEdge& edge : index.dir_edges) {
    adjacency[edge.from_dir].push_back(edge.to_dir);
    edge_rep[{edge.from_dir, edge.to_dir}] = &edge;
  }
  CycleFinder finder;
  finder.adjacency = &adjacency;
  for (const auto& [dir, targets] : adjacency) {
    (void)targets;
    if (finder.color[dir] == 0) {
      finder.Visit(dir);
    }
  }
  for (const std::vector<std::string>& cycle : finder.cycles) {
    std::string path;
    for (const std::string& dir : cycle) {
      path += "src/" + dir + " -> ";
    }
    path += "src/" + cycle.front();
    const DirEdge* rep = edge_rep.at({cycle.front(), cycle[1 % cycle.size()]});
    AddFinding(findings, nullptr, rep->file, rep->line, "layer-cycle",
               StrFormat("#include cycle across src/ directories: %s", path.c_str()));
  }
}

void CheckLockOrder(const std::vector<SourceFile>& files, const RepoIndex& index,
                    std::vector<Finding>* findings) {
  std::map<std::string, const ScanResult*> scan_of;
  for (const SourceFile& file : files) {
    scan_of[file.rel_path] = &file.scan;
  }
  const auto scan_for = [&scan_of](const std::string& file) -> const ScanResult* {
    const auto it = scan_of.find(file);
    return it == scan_of.end() ? nullptr : it->second;
  };

  // Declaration hygiene: every mutex ranked, member names and ranks unique
  // (lock-site resolution is by member name; a duplicate makes the static
  // rank lookup ambiguous, so it is itself a finding).
  std::map<std::string, const MutexDecl*> by_member;
  std::map<int, const MutexDecl*> by_rank;
  std::set<std::string> ambiguous_members;
  for (const MutexDecl& decl : index.mutexes) {
    if (decl.rank < 0) {
      AddFinding(findings, scan_for(decl.file), decl.file, decl.line, "lock-order",
                 StrFormat("pdpa::Mutex '%s' declared without PDPA_LOCK_RANK(n); every "
                           "mutex states its position in the lock hierarchy (DESIGN.md §8)",
                           decl.member.c_str()));
    }
    const auto [member_it, member_new] = by_member.insert({decl.member, &decl});
    if (!member_new) {
      ambiguous_members.insert(decl.member);
      AddFinding(findings, scan_for(decl.file), decl.file, decl.line, "lock-order",
                 StrFormat("mutex member name '%s' is ambiguous (also declared at %s:%d); "
                           "static rank resolution needs repo-unique member names",
                           decl.member.c_str(), member_it->second->file.c_str(),
                           member_it->second->line));
    }
    if (decl.rank >= 0) {
      const auto [rank_it, rank_new] = by_rank.insert({decl.rank, &decl});
      if (!rank_new) {
        AddFinding(findings, scan_for(decl.file), decl.file, decl.line, "lock-order",
                   StrFormat("PDPA_LOCK_RANK(%d) already used by '%s' (%s:%d); ranks are "
                             "unique per mutex",
                             decl.rank, rank_it->second->member.c_str(),
                             rank_it->second->file.c_str(), rank_it->second->line));
      }
    }
  }

  // Resolves a site's member to its declared rank; ambiguous or unranked
  // members were already flagged above and resolve to "unknown" here.
  const auto rank_of = [&](const std::string& member) -> const MutexDecl* {
    if (ambiguous_members.contains(member)) {
      return nullptr;
    }
    const auto it = by_member.find(member);
    return it == by_member.end() || it->second->rank < 0 ? nullptr : it->second;
  };

  for (const LockSite& site : index.lock_sites) {
    const MutexDecl* acquiring = rank_of(site.member);
    if (acquiring == nullptr) {
      if (!by_member.contains(site.member) && !ambiguous_members.contains(site.member)) {
        AddFinding(findings, scan_for(site.file), site.file, site.line, "lock-order",
                   StrFormat("cannot resolve mutex member '%s' to a PDPA_LOCK_RANK "
                             "declaration (is the declaring file outside the lint set?)",
                             site.member.c_str()));
      }
      continue;
    }
    for (const std::string& held_member : site.held) {
      const MutexDecl* held = rank_of(held_member);
      if (held != nullptr && held->rank >= acquiring->rank) {
        AddFinding(findings, scan_for(site.file), site.file, site.line, "lock-order",
                   StrFormat("acquiring '%s' (rank %d) while holding '%s' (rank %d); ranks "
                             "must strictly increase along every acquisition chain "
                             "(DESIGN.md §8)",
                             site.member.c_str(), acquiring->rank, held_member.c_str(),
                             held->rank));
      }
    }
  }
}

void CheckPtrTaint(const SourceFile& file, const RepoIndex& index,
                   std::vector<Finding>* findings) {
  if (file.scope != Scope::kSrc) {
    return;  // Tools may print whatever aids debugging.
  }
  static const std::set<std::string>* kKeyedContainers = new std::set<std::string>{
      "map", "set", "multimap", "multiset", "unordered_map", "unordered_set"};
  const std::vector<Token>& tokens = file.scan.tokens;

  // Checks one sink-call argument list starting at the `(` in tokens[open].
  // `skip_first` exempts the destination out-param of Append* free
  // functions (`AppendInt(&out, v)` formats v, not &out).
  const auto check_sink_args = [&](std::size_t open, const std::string& sink, int line,
                                   bool skip_first) {
    int depth = 1;
    int arg_index = 0;
    bool at_arg_start = true;
    for (std::size_t j = open + 1; j < tokens.size() && depth > 0; ++j) {
      const Token& t = tokens[j];
      if (t.text == "(" || t.text == "[" || t.text == "{") {
        ++depth;
      } else if (t.text == ")" || t.text == "]" || t.text == "}") {
        --depth;
      } else if (t.text == "," && depth == 1) {
        ++arg_index;
        at_arg_start = true;
        continue;
      }
      const bool exempt = skip_first && arg_index == 0;
      if (!exempt) {
        if (at_arg_start && t.text == "&" && j + 1 < tokens.size() &&
            (tokens[j + 1].kind == Token::Kind::kIdent || tokens[j + 1].text == "(")) {
          AddFinding(findings, &file.scan, file.rel_path, line, "ptr-taint",
                     StrFormat("address-of expression reaches deterministic sink '%s' "
                               "(pointer values are run-dependent; emit a stable id)",
                               sink.c_str()));
        } else if (t.text == "this") {
          AddFinding(findings, &file.scan, file.rel_path, line, "ptr-taint",
                     StrFormat("'this' reaches deterministic sink '%s' (pointer values "
                               "are run-dependent; emit a stable id)",
                               sink.c_str()));
        } else if (t.text == "get_id") {
          AddFinding(findings, &file.scan, file.rel_path, line, "ptr-taint",
                     StrFormat("thread id reaches deterministic sink '%s' (thread ids are "
                               "run-dependent; use the worker index)",
                               sink.c_str()));
        }
      }
      at_arg_start = false;
    }
  };

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != Token::Kind::kIdent) {
      continue;
    }
    const std::string& prev = i > 0 ? tokens[i - 1].text : "";
    // Method sink: `x.Field(...)` / `log->Emit(...)`.
    if ((prev == "." || prev == "->") && index.sink_methods.contains(token.text) &&
        i + 1 < tokens.size() && tokens[i + 1].text == "(") {
      check_sink_args(i + 1, token.text, token.line, /*skip_first=*/false);
      continue;
    }
    // Free-function sink: `AppendInt(&out, v)` (possibly `pdpa::`-qualified).
    if (prev != "." && prev != "->" && index.sink_free_fns.contains(token.text) &&
        i + 1 < tokens.size() && tokens[i + 1].text == "(") {
      check_sink_args(i + 1, token.text, token.line, /*skip_first=*/true);
      continue;
    }
    // std::hash over a pointer type: run-dependent whatever consumes it.
    if (token.text == "hash" && i + 1 < tokens.size() && tokens[i + 1].text == "<") {
      int angle = 1;
      bool saw_pointer = false;
      for (std::size_t j = i + 2; j < tokens.size() && angle > 0; ++j) {
        if (tokens[j].text == "<") {
          ++angle;
        } else if (tokens[j].text == ">") {
          --angle;
        } else if (tokens[j].text == ">>") {
          angle -= 2;
        } else if (tokens[j].text == "*") {
          saw_pointer = true;
        } else if (tokens[j].text == ";") {
          break;
        }
      }
      if (saw_pointer) {
        AddFinding(findings, &file.scan, file.rel_path, token.line, "ptr-taint",
                   "std::hash over a pointer type is run-dependent (hash a stable id "
                   "instead)");
      }
      continue;
    }
    // Pointer-keyed container: map/set order (or hash) pointers by address.
    if (kKeyedContainers->contains(token.text) && i + 1 < tokens.size() &&
        tokens[i + 1].text == "<") {
      int angle = 1;
      bool key_has_pointer = false;
      for (std::size_t j = i + 2; j < tokens.size() && angle > 0; ++j) {
        if (tokens[j].text == "<") {
          ++angle;
        } else if (tokens[j].text == ">") {
          --angle;
        } else if (tokens[j].text == ">>") {
          angle -= 2;
        } else if (tokens[j].text == "," && angle == 1) {
          break;  // end of the key type
        } else if (tokens[j].text == "*" && angle == 1) {
          key_has_pointer = true;
        } else if (tokens[j].text == ";") {
          break;
        }
      }
      if (key_has_pointer) {
        AddFinding(findings, &file.scan, file.rel_path, token.line, "ptr-taint",
                   StrFormat("pointer-keyed '%s': pointer keys order/hash by address "
                             "(run-dependent; key by a stable id)",
                             token.text.c_str()));
      }
    }
  }
}

}  // namespace lint
}  // namespace pdpa
