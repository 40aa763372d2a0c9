// Minimal leveled logging and assertion macros.
//
// The library is usable both from deterministic simulations (where logging is
// usually off) and from interactive examples, so the level is a process-wide
// runtime switch rather than a compile-time constant.
#ifndef SRC_COMMON_LOGGING_H_
#define SRC_COMMON_LOGGING_H_

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>

namespace pdpa {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  // Suppresses all logging.
  kNone = 4,
};

// Sets the process-wide minimum level that will be emitted.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Parses "debug|info|warning|error|none" (the --log_level flag values).
// Returns false on an unknown name and leaves `out` untouched.
bool ParseLogLevel(const std::string& name, LogLevel* out);

// Simulation-time log prefix: while a simulation is running it publishes its
// clock here (integer microseconds) and every log line gets a "t=12.345s"
// prefix, so PDPA_LOG output correlates with the structured event log.
// Cleared (no prefix) outside simulation runs.
//
// The published clock is thread-local: the sweep engine runs N simulations
// concurrently, and each worker thread's log lines carry the clock of the
// simulation *that thread* is driving, never a neighbour's.
void SetLogSimTimeUs(std::int64_t t_us);
void ClearLogSimTime();

// Emits one formatted log line to stderr. Prefer the PDPA_LOG macro.
void LogMessage(LogLevel level, const char* file, int line, const std::string& message);

// Internal helper that builds the message with stream syntax and emits it on
// destruction.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line) : level_(level), file_(file), line_(line) {}
  ~LogLine() { LogMessage(level_, file_, line_, stream_.str()); }

  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace pdpa

#define PDPA_LOG(level)                                                          \
  if (static_cast<int>(::pdpa::LogLevel::k##level) < static_cast<int>(::pdpa::GetLogLevel())) { \
  } else                                                                         \
    ::pdpa::LogLine(::pdpa::LogLevel::k##level, __FILE__, __LINE__)

// Fatal assertion: always on, used for programming errors and invariant
// violations. Prints the failed condition and aborts.
#define PDPA_CHECK(condition)                                                       \
  if (condition) {                                                                  \
  } else                                                                            \
    ::pdpa::FatalLine(__FILE__, __LINE__, #condition)

#define PDPA_CHECK_GE(a, b) PDPA_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "
#define PDPA_CHECK_LE(a, b) PDPA_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define PDPA_CHECK_GT(a, b) PDPA_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "
#define PDPA_CHECK_LT(a, b) PDPA_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define PDPA_CHECK_EQ(a, b) PDPA_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define PDPA_CHECK_NE(a, b) PDPA_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "

namespace pdpa {

// Stream-capable fatal error: aborts the process on destruction.
class FatalLine {
 public:
  FatalLine(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLine();  // Aborts the process.

  FatalLine(const FatalLine&) = delete;
  FatalLine& operator=(const FatalLine&) = delete;

  template <typename T>
  FatalLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace pdpa

#endif  // SRC_COMMON_LOGGING_H_
