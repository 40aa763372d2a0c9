#include "src/obs/event_log.h"

#include <cctype>

#include "src/common/fmt.h"
#include "src/common/strings.h"

namespace pdpa {

void JsonEscapeTo(std::string* out, std::string_view text) {
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char kHex[] = "0123456789abcdef";
          out->append("\\u00");
          out->push_back(kHex[(c >> 4) & 0xf]);
          out->push_back(kHex[c & 0xf]);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  JsonEscapeTo(&out, text);
  return out;
}

InternedString StringInterner::Intern(std::string_view raw) {
  auto it = table_.find(raw);
  if (it == table_.end()) {
    it = table_.emplace(std::string(raw), JsonEscape(raw)).first;
  }
  return InternedString{it->first, it->second};
}

void JsonObjectWriter::Key(std::string_view key) {
  if (!first_) {
    out_->push_back(',');
  }
  first_ = false;
  JsonEscapeTo(out_, key);
  out_->push_back(':');
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, std::string_view value) {
  Key(key);
  JsonEscapeTo(out_, value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, const char* value) {
  return Field(key, std::string_view(value));
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, InternedString value) {
  Key(key);
  out_->append(value.escaped);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, long long value) {
  Key(key);
  AppendInt(out_, value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, unsigned long long value) {
  Key(key);
  AppendUint(out_, value);
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, int value) {
  return Field(key, static_cast<long long>(value));
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, bool value) {
  Key(key);
  out_->append(value ? "true" : "false");
  return *this;
}

JsonObjectWriter& JsonObjectWriter::Field(std::string_view key, double value) {
  Key(key);
  AppendGeneral(out_, value, 10);
  return *this;
}

namespace {

// Consumes a JSON string literal starting at `pos` (which must point at the
// opening quote); appends the unescaped content to `out`.
bool ParseJsonString(std::string_view line, std::size_t* pos, std::string* out) {
  if (*pos >= line.size() || line[*pos] != '"') {
    return false;
  }
  ++*pos;
  while (*pos < line.size()) {
    const char c = line[*pos];
    if (c == '"') {
      ++*pos;
      return true;
    }
    if (c == '\\') {
      if (*pos + 1 >= line.size()) {
        return false;
      }
      const char escaped = line[*pos + 1];
      switch (escaped) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (*pos + 5 >= line.size()) {
            return false;
          }
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = line[*pos + 2 + i];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= h - '0';
            } else if (h >= 'a' && h <= 'f') {
              code |= h - 'a' + 10;
            } else if (h >= 'A' && h <= 'F') {
              code |= h - 'A' + 10;
            } else {
              return false;
            }
          }
          // The writer only escapes control characters, so a single byte
          // suffices here.
          out->push_back(static_cast<char>(code));
          *pos += 4;
          break;
        }
        default:
          return false;
      }
      *pos += 2;
      continue;
    }
    out->push_back(c);
    ++*pos;
  }
  return false;  // Unterminated string.
}

void SkipSpace(std::string_view line, std::size_t* pos) {
  while (*pos < line.size() && std::isspace(static_cast<unsigned char>(line[*pos])) != 0) {
    ++*pos;
  }
}

}  // namespace

bool ParseFlatJson(std::string_view line, std::map<std::string, std::string>* fields) {
  fields->clear();
  std::size_t pos = 0;
  SkipSpace(line, &pos);
  if (pos >= line.size() || line[pos] != '{') {
    return false;
  }
  ++pos;
  SkipSpace(line, &pos);
  if (pos < line.size() && line[pos] == '}') {
    ++pos;
    SkipSpace(line, &pos);
    return pos == line.size();
  }
  while (true) {
    SkipSpace(line, &pos);
    std::string key;
    if (!ParseJsonString(line, &pos, &key)) {
      return false;
    }
    SkipSpace(line, &pos);
    if (pos >= line.size() || line[pos] != ':') {
      return false;
    }
    ++pos;
    SkipSpace(line, &pos);
    std::string value;
    if (pos < line.size() && line[pos] == '"') {
      if (!ParseJsonString(line, &pos, &value)) {
        return false;
      }
    } else {
      // Bare token: number, true/false/null. Runs to the next ',' or '}'.
      const std::size_t start = pos;
      while (pos < line.size() && line[pos] != ',' && line[pos] != '}') {
        ++pos;
      }
      value = std::string(Trim(line.substr(start, pos - start)));
      if (value.empty()) {
        return false;
      }
    }
    (*fields)[key] = value;
    SkipSpace(line, &pos);
    if (pos >= line.size()) {
      return false;
    }
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    if (line[pos] == '}') {
      ++pos;
      SkipSpace(line, &pos);
      return pos == line.size();
    }
    return false;
  }
}

namespace {

// Extracts the integer after `"t_us":` from one JSONL record without a full
// parse; records with no timestamp (run_start) merge as t=0 so they lead
// their stream.
long long RecordTimeUs(std::string_view line) {
  static constexpr std::string_view kKey = "\"t_us\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string_view::npos) {
    return 0;
  }
  long long t = 0;
  for (std::size_t pos = at + kKey.size(); pos < line.size(); ++pos) {
    const char c = line[pos];
    if (c < '0' || c > '9') {
      break;
    }
    t = t * 10 + (c - '0');
  }
  return t;
}

}  // namespace

std::string MergeEventStreams(const std::vector<std::string>& streams) {
  struct Cursor {
    std::string_view rest;     // unconsumed tail of the stream
    std::string_view line;     // current record, without the trailing '\n'
    long long t_us = 0;
    bool done = true;

    void Advance() {
      if (rest.empty()) {
        done = true;
        return;
      }
      std::size_t eol = rest.find('\n');
      if (eol == std::string_view::npos) {
        eol = rest.size();
        line = rest;
        rest = {};
      } else {
        line = rest.substr(0, eol);
        rest = rest.substr(eol + 1);
      }
      t_us = RecordTimeUs(line);
      done = false;
    }
  };

  std::vector<Cursor> cursors(streams.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    cursors[i].rest = streams[i];
    cursors[i].Advance();
    total += streams[i].size();
  }
  std::string merged;
  merged.reserve(total);
  // K is tiny (controller + nodes of one cluster cell being captured), so a
  // linear scan per record beats heap bookkeeping and keeps the tie-break —
  // lowest stream index first — explicit.
  while (true) {
    std::size_t best = streams.size();
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i].done && (best == streams.size() || cursors[i].t_us < cursors[best].t_us)) {
        best = i;
      }
    }
    if (best == streams.size()) {
      return merged;
    }
    merged.append(cursors[best].line);
    merged.push_back('\n');
    cursors[best].Advance();
  }
}

EventLog::EventLog(std::ostream* out) : out_(out), writer_(out) {
  if (out_ == nullptr) {
    return;  // Disabled log: no buffers, no interning, every emitter no-ops.
  }
  scratch_.reserve(256);
  InternTypes();
}

void EventLog::Reset(std::ostream* out) {
  Flush();
  out_ = out;
  writer_.Reset(out);
  lines_ = 0;
  if (out_ != nullptr) {
    if (scratch_.capacity() < 256) {
      scratch_.reserve(256);
    }
    // Idempotent: a log constructed (or previously reset) with a live sink
    // already interned the vocabulary, and Intern dedups by content.
    InternTypes();
  }
}

void EventLog::InternTypes() {
  type_run_start_ = interner_.Intern("run_start");
  type_run_end_ = interner_.Intern("run_end");
  type_job_submit_ = interner_.Intern("job_submit");
  type_job_start_ = interner_.Intern("job_start");
  type_job_finish_ = interner_.Intern("job_finish");
  type_admit_hold_ = interner_.Intern("admit_hold");
  type_perf_sample_ = interner_.Intern("perf_sample");
  type_pdpa_transition_ = interner_.Intern("pdpa_transition");
  type_alloc_decision_ = interner_.Intern("alloc_decision");
  type_cpu_handoffs_ = interner_.Intern("cpu_handoffs");
}

void EventLog::Emit(const std::string& json_line) {
  if (out_ == nullptr) {
    return;
  }
  confinement_.AssertConfined("EventLog");
  writer_.Append(json_line);
  writer_.Append('\n');
  ++lines_;
}

void EventLog::RunStart(std::string_view policy, std::string_view workload, double load,
                        unsigned long long seed, int cpus) {
  const InternedString policy_name = out_ != nullptr ? interner_.Intern(policy) : InternedString{};
  const InternedString workload_name =
      out_ != nullptr ? interner_.Intern(workload) : InternedString{};
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_run_start_)
        .Field("policy", policy_name)
        .Field("workload", workload_name)
        .Field("load", load)
        .Field("seed", seed)
        .Field("cpus", cpus);
  });
}

void EventLog::RunEnd(SimTime t, int jobs, bool completed) {
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_run_end_)
        .Field("t_us", static_cast<long long>(t))
        .Field("jobs", jobs)
        .Field("completed", completed);
  });
}

void EventLog::JobSubmit(SimTime t, JobId job, std::string_view app_class, int request,
                         bool rigid) {
  const InternedString class_name =
      out_ != nullptr ? interner_.Intern(app_class) : InternedString{};
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_job_submit_)
        .Field("t_us", static_cast<long long>(t))
        .Field("job", job)
        .Field("class", class_name)
        .Field("request", request)
        .Field("rigid", rigid);
  });
}

void EventLog::JobStart(SimTime t, JobId job, std::string_view app_class, int request, int alloc,
                        int running, int queued) {
  const InternedString class_name =
      out_ != nullptr ? interner_.Intern(app_class) : InternedString{};
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_job_start_)
        .Field("t_us", static_cast<long long>(t))
        .Field("job", job)
        .Field("class", class_name)
        .Field("request", request)
        .Field("alloc", alloc)
        .Field("running", running)
        .Field("queued", queued);
  });
}

void EventLog::JobFinish(SimTime t, JobId job, SimTime submit, SimTime start) {
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_job_finish_)
        .Field("t_us", static_cast<long long>(t))
        .Field("job", job)
        .Field("submit_us", static_cast<long long>(submit))
        .Field("start_us", static_cast<long long>(start));
  });
}

void EventLog::AdmitHold(SimTime t, int running, int queued, int free_cpus) {
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_admit_hold_)
        .Field("t_us", static_cast<long long>(t))
        .Field("running", running)
        .Field("queued", queued)
        .Field("free_cpus", free_cpus);
  });
}

void EventLog::PerfSample(SimTime t, JobId job, int procs, double speedup, double efficiency) {
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_perf_sample_)
        .Field("t_us", static_cast<long long>(t))
        .Field("job", job)
        .Field("procs", procs)
        .Field("speedup", speedup)
        .Field("eff", efficiency);
  });
}

void EventLog::PdpaTransition(SimTime t, JobId job, const char* from, const char* to,
                              int from_alloc, int to_alloc, double speedup, double efficiency,
                              double target_eff, const char* trigger) {
  const InternedString from_name = out_ != nullptr ? interner_.Intern(from) : InternedString{};
  const InternedString to_name = out_ != nullptr ? interner_.Intern(to) : InternedString{};
  const InternedString trigger_name =
      out_ != nullptr ? interner_.Intern(trigger) : InternedString{};
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_pdpa_transition_)
        .Field("t_us", static_cast<long long>(t))
        .Field("job", job)
        .Field("from", from_name)
        .Field("to", to_name)
        .Field("from_alloc", from_alloc)
        .Field("to_alloc", to_alloc)
        .Field("speedup", speedup)
        .Field("eff", efficiency)
        .Field("target", target_eff)
        .Field("trigger", trigger_name);
  });
}

void EventLog::AllocDecision(SimTime t, const char* trigger, const std::string& plan) {
  const InternedString trigger_name =
      out_ != nullptr ? interner_.Intern(trigger) : InternedString{};
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_alloc_decision_)
        .Field("t_us", static_cast<long long>(t))
        .Field("trigger", trigger_name)
        .Field("plan", plan);
  });
}

void EventLog::CpuHandoffs(SimTime t, int moved, int migrations) {
  EmitRecord([&](JsonObjectWriter& writer) {
    writer.Field("type", type_cpu_handoffs_)
        .Field("t_us", static_cast<long long>(t))
        .Field("moved", moved)
        .Field("migrations", migrations);
  });
}

}  // namespace pdpa
