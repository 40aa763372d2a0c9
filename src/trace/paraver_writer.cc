#include "src/trace/paraver_writer.h"

#include <string>

#include "src/common/bufwriter.h"
#include "src/common/fmt.h"
#include "src/common/logging.h"

namespace pdpa {

void WriteParaverTrace(const TraceRecorder& recorder, int num_jobs, std::ostream& out) {
  PDPA_CHECK_GE(num_jobs, 0);
  const auto& samples = recorder.samples();
  const long long duration_ns =
      static_cast<long long>(samples.size()) * recorder.sample_period() * 1000;
  BufWriter writer(&out);
  std::string row;
  row.reserve(96);
  // Header: #Paraver (date):duration_ns:nodes(cpus):num_appl:appl_list
  row.append("#Paraver (01/01/00 at 00:00):");
  AppendInt(&row, duration_ns);
  row.append("_ns:1(");
  AppendInt(&row, recorder.num_cpus());
  row.append("):");
  AppendInt(&row, num_jobs);
  writer.Append(row);
  for (int job = 0; job < num_jobs; ++job) {
    writer.Append(":1(1:1)");
  }
  writer.Append('\n');

  // One state record per maximal run of identical ownership per CPU.
  for (int cpu = 0; cpu < recorder.num_cpus(); ++cpu) {
    std::size_t begin = 0;
    while (begin < samples.size()) {
      const JobId job = samples[begin][static_cast<std::size_t>(cpu)];
      std::size_t end = begin + 1;
      while (end < samples.size() && samples[end][static_cast<std::size_t>(cpu)] == job) {
        ++end;
      }
      if (job != kIdleJob) {
        const long long t0 = static_cast<long long>(begin) * recorder.sample_period() * 1000;
        const long long t1 = static_cast<long long>(end) * recorder.sample_period() * 1000;
        // state 1 = running.
        row.clear();
        row.append("1:");
        AppendInt(&row, cpu + 1);
        row.push_back(':');
        AppendInt(&row, job + 1);
        row.append(":1:1:");
        AppendInt(&row, t0);
        row.push_back(':');
        AppendInt(&row, t1);
        row.append(":1\n");
        writer.Append(row);
      }
      begin = end;
    }
  }
  writer.Flush();
}

void WriteParaverConfig(int num_jobs, std::ostream& out) {
  BufWriter writer(&out);
  writer.Append(
      "DEFAULT_OPTIONS\n\n"
      "LEVEL               CPU\n"
      "UNITS               NANOSEC\n\n"
      "STATES\n"
      "0    IDLE\n"
      "1    RUNNING\n\n"
      "STATES_COLOR\n"
      "0    {117,195,255}\n"
      "1    {0,0,255}\n\n"
      "GRADIENT_NAMES\n");
  std::string row;
  row.reserve(48);
  // One gradient entry per application so Paraver can color by job.
  for (int job = 0; job < num_jobs; ++job) {
    row.clear();
    AppendInt(&row, job + 1);
    row.append("    job_");
    AppendInt(&row, job);
    row.push_back('\n');
    writer.Append(row);
  }
  writer.Append("\nGRADIENT_COLOR\n");
  for (int job = 0; job < num_jobs; ++job) {
    // Deterministic distinct-ish palette.
    const int r = (37 * (job + 1)) % 256;
    const int g = (91 * (job + 1)) % 256;
    const int b = (151 * (job + 1)) % 256;
    row.clear();
    AppendInt(&row, job + 1);
    row.append("    {");
    AppendInt(&row, r);
    row.push_back(',');
    AppendInt(&row, g);
    row.push_back(',');
    AppendInt(&row, b);
    row.append("}\n");
    writer.Append(row);
  }
  writer.Flush();
}

}  // namespace pdpa
