// Shared trailer for the BENCH_*.json records every bench emits: peak RSS,
// the process-wide metrics snapshot (obs/metrics.h — build counters, latency
// histograms accumulated while the bench ran), and the
// final ok verdict, printed to stdout and mirrored to --json-out. Keeping
// the trailer in one place means every bench's JSON diffs the same way
// across PRs and automatically gains any metric the library grows.

#ifndef MVRC_BENCH_BENCH_JSON_H_
#define MVRC_BENCH_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include <sys/resource.h>

#include "obs/metrics.h"
#include "util/json.h"

namespace mvrc::bench {

inline int64_t PeakRssBytes() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // ru_maxrss is KiB on Linux
}

/// Stamps the shared trailer onto `doc`, prints the record, and writes it to
/// `json_out` ("-" disables the file). Returns the final verdict: `ok`,
/// downgraded to false when the file cannot be written. hardware_concurrency
/// is stamped so timings can be judged against the machine that produced
/// them.
inline bool FinishBenchJson(Json doc, bool ok, const std::string& json_out) {
  doc.Set("hardware_concurrency",
          Json::Int(static_cast<int64_t>(std::thread::hardware_concurrency())));
  doc.Set("peak_rss_bytes", Json::Int(PeakRssBytes()));
  doc.Set("metrics", MetricsRegistry::Global().ToJson());
  doc.Set("ok", Json::Bool(ok));
  const std::string rendered = doc.Dump();
  std::printf("%s\n", rendered.c_str());
  if (json_out != "-") {
    if (std::FILE* f = std::fopen(json_out.c_str(), "w")) {
      std::fputs(rendered.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
    } else {
      std::printf("FAIL: cannot write %s\n", json_out.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace mvrc::bench

#endif  // MVRC_BENCH_BENCH_JSON_H_
