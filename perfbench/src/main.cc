// inflog_perfbench: runs one benchmark workload and prints its result as
// one JSON line. Normally started by perfbench/run.py.
//
//   inflog_perfbench --workload batch|serve --seed N --seconds S
//                    --trace 0|1 [--tiny] [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans,
// reports the per-layer metrics and writes the spans to --trace-out.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "inflog_perfbench: %s\nusage: inflog_perfbench --workload "
               "batch|serve --seed N --seconds S --trace 0|1 "
               "[--tiny] [--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::EnableTracing(options.trace);
  perfbench::Ledger ledger;
  perfbench::Report report;
  try {
    if (options.workload == "batch") {
      report = perfbench::RunBatch(options, &ledger);
    } else if (options.workload == "serve") {
      report = perfbench::RunServe(options, &ledger);
    } else {
      return Usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "inflog_perfbench: aborted: %s\n", e.what());
    return 1;
  }
  if (options.trace && !trace_out.empty()) {
    std::fprintf(stderr, "inflog_perfbench: %llu spans (%llu dropped) -> %s\n",
                 static_cast<unsigned long long>(perfbench::SpansRecorded()),
                 static_cast<unsigned long long>(perfbench::SpansDropped()),
                 trace_out.c_str());
    if (!perfbench::WriteTrace(trace_out)) return 1;
  }
  if (!report.checked) {
    std::fprintf(stderr, "inflog_perfbench: the run did not complete\n");
    return 1;
  }
  perfbench::PrintReport(report, ledger);
  return 0;
}
