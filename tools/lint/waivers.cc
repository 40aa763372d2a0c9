// Waiver lifecycle: counted, expiring per-file suppressions
// (lint_waivers.txt), plus the civil-calendar day arithmetic behind the
// non-fatal --waiver_expiry_within warning (pure integers — the linter
// itself must pass its own wall-clock rule, so the only wall-clock read is
// the fenced TodayYyyymmdd fallback).
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>  // lint: wall-clock-ok (waiver expiry needs today's date)
#include <fstream>
#include <sstream>

#include "src/common/strings.h"
#include "tools/lint/lint.h"

namespace pdpa {
namespace lint {
namespace {

// Days since the civil epoch 1970-01-01 (Howard Hinnant's days_from_civil;
// exact for all Gregorian dates).
long DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const int yoe = y - era * 400;
  const int doy = (153 * (m > 2 ? m - 3 : m + 9) + 2) / 5 + d - 1;
  const int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return static_cast<long>(era) * 146097 + doe - 719468;
}

long DaysFromYyyymmdd(int yyyymmdd) {
  return DaysFromCivil(yyyymmdd / 10000, (yyyymmdd / 100) % 100, yyyymmdd % 100);
}

}  // namespace

int ParseDate(const std::string& text) {
  if (text.size() != 10 || text[4] != '-' || text[7] != '-') {
    return 0;
  }
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (i == 4 || i == 7) {
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      return 0;
    }
  }
  return std::atoi(text.substr(0, 4).c_str()) * 10000 +
         std::atoi(text.substr(5, 2).c_str()) * 100 + std::atoi(text.substr(8, 2).c_str());
}

int TodayYyyymmdd() {
  const std::time_t now = std::time(nullptr);  // lint: wall-clock-ok (lint is a dev tool)
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  return (tm_buf.tm_year + 1900) * 10000 + (tm_buf.tm_mon + 1) * 100 + tm_buf.tm_mday;
}

long DaysBetween(int from_yyyymmdd, int to_yyyymmdd) {
  return DaysFromYyyymmdd(to_yyyymmdd) - DaysFromYyyymmdd(from_yyyymmdd);
}

bool LoadWaivers(const std::string& path, std::vector<Waiver>* waivers, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = StrFormat("cannot open waiver file %s", path.c_str());
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
    Waiver waiver;
    std::string count_text, expires_text;
    if (!(fields >> waiver.rule >> waiver.path >> count_text >> expires_text)) {
      *error = StrFormat("%s:%d: expected <rule> <path> <count> <expires> <reason>",
                         path.c_str(), line_no);
      return false;
    }
    if (!IsKnownRuleId(waiver.rule)) {
      *error = StrFormat("%s:%d: unknown rule-id '%s'", path.c_str(), line_no,
                         waiver.rule.c_str());
      return false;
    }
    if (!ParseInt(count_text, &waiver.max_findings) || waiver.max_findings < 1) {
      *error = StrFormat("%s:%d: bad count '%s'", path.c_str(), line_no, count_text.c_str());
      return false;
    }
    waiver.expires = ParseDate(expires_text);
    if (waiver.expires == 0) {
      *error = StrFormat("%s:%d: bad expiry '%s' (want YYYY-MM-DD)", path.c_str(), line_no,
                         expires_text.c_str());
      return false;
    }
    std::getline(fields, waiver.reason);
    const std::size_t start = waiver.reason.find_first_not_of(" \t");
    waiver.reason = start == std::string::npos ? "" : waiver.reason.substr(start);
    if (waiver.reason.empty()) {
      *error = StrFormat("%s:%d: waiver needs a reason", path.c_str(), line_no);
      return false;
    }
    waiver.source_line = line_no;
    waivers->push_back(std::move(waiver));
  }
  return true;
}

void ApplyWaivers(const std::vector<Waiver>& waivers, int today,
                  std::vector<Finding>* findings) {
  for (const Waiver& waiver : waivers) {
    std::vector<Finding*> matches;
    for (Finding& finding : *findings) {
      if (finding.rule == waiver.rule && finding.file == waiver.path) {
        matches.push_back(&finding);
      }
    }
    waiver.used = static_cast<int>(matches.size());
    if (matches.empty()) {
      std::fprintf(stderr,
                   "pdpa_lint: note: stale waiver (line %d: %s %s) matches nothing; "
                   "remove it\n",
                   waiver.source_line, waiver.rule.c_str(), waiver.path.c_str());
      continue;
    }
    if (today > waiver.expires) {
      std::fprintf(stderr, "pdpa_lint: note: waiver expired (line %d: %s %s); findings "
                           "surface until it is re-justified\n",
                   waiver.source_line, waiver.rule.c_str(), waiver.path.c_str());
      continue;
    }
    if (static_cast<int>(matches.size()) > waiver.max_findings) {
      std::fprintf(stderr,
                   "pdpa_lint: note: waiver over budget (line %d: %s %s allows %d, found "
                   "%zu); findings surface\n",
                   waiver.source_line, waiver.rule.c_str(), waiver.path.c_str(),
                   waiver.max_findings, matches.size());
      continue;
    }
    for (Finding* finding : matches) {
      finding->waived = true;
    }
  }
}

}  // namespace lint
}  // namespace pdpa
