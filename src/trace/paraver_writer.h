// Minimal Paraver (.prv) trace writer.
//
// The paper's workloads were monitored with `scpus` and visualized with the
// Paraver tool; this writer emits the same kind of CPU-state trace so the
// simulator's executions can be inspected with Paraver-compatible tooling.
// Format: a header line followed by state records
//   1:cpu:appl:task:thread:begin:end:state
// with times in nanoseconds and one "application" per job.
#ifndef SRC_TRACE_PARAVER_WRITER_H_
#define SRC_TRACE_PARAVER_WRITER_H_

#include <ostream>

#include "src/trace/trace_recorder.h"

namespace pdpa {

// Writes the sampled ownership grid as Paraver state records. `num_jobs` is
// the total number of jobs that appear in the trace (Paraver needs the
// application list up front).
void WriteParaverTrace(const TraceRecorder& recorder, int num_jobs, std::ostream& out);

// Writes the companion Paraver configuration (.pcf): state names and a
// color per application, so the visualizer labels the trace like Fig. 5.
void WriteParaverConfig(int num_jobs, std::ostream& out);

}  // namespace pdpa

#endif  // SRC_TRACE_PARAVER_WRITER_H_
