// BufWriter — a 64 KiB buffered byte sink over std::ostream.
//
// The observability sinks (EventLog, TimeSeriesSampler, ParaverWriter,
// sweep CSV) emit many small lines; writing each line straight to an
// ostream pays virtual-dispatch + locale machinery per line. BufWriter
// coalesces appends into one flat buffer and hands the stream one
// `write()` per ~64 KiB.
//
// Buffer ownership rules (DESIGN.md §9): BufWriter owns its coalescing
// buffer; callers own any per-record scratch buffer they format into
// before Append(). The destination ostream outlives the BufWriter, and
// bytes are only guaranteed to have reached it after Flush() — the
// destructor flushes as a backstop, but call sites that read a captured
// ostringstream while the writer is still alive must Flush() first.
#ifndef SRC_COMMON_BUFWRITER_H_
#define SRC_COMMON_BUFWRITER_H_

#include <ostream>
#include <string>
#include <string_view>

namespace pdpa {

class BufWriter {
 public:
  static constexpr size_t kBufferSize = 64 * 1024;

  explicit BufWriter(std::ostream* out);
  ~BufWriter();

  BufWriter(const BufWriter&) = delete;
  BufWriter& operator=(const BufWriter&) = delete;

  // Appends bytes; spills to the ostream whenever the buffer fills.
  void Append(std::string_view bytes);
  void Append(char c);

  // Writes any buffered bytes through to the ostream. Does not
  // std::flush the ostream itself — per-line syscalls are exactly what
  // this class exists to avoid; the stream flushes on close.
  void Flush();

  // Flushes to the old sink, then retargets the writer at `out` (null
  // disables) and zeroes bytes_written(). The coalescing buffer's capacity
  // is kept so a reused writer stays allocation-free across runs.
  void Reset(std::ostream* out);

  // Total bytes accepted (buffered + written). Used by tests.
  unsigned long long bytes_written() const { return bytes_written_; }

 private:
  std::ostream* out_;
  std::string buffer_;
  unsigned long long bytes_written_ = 0;
};

}  // namespace pdpa

#endif  // SRC_COMMON_BUFWRITER_H_
