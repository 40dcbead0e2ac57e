// Measurement plumbing shared by the workloads: clocks, percentiles, the
// in-memory span tracer, CPU/RSS probes, the failed-op ledger and the
// result line.
//
// Nothing here includes an inflog header: the harness times calls into the
// library from outside and never reaches into it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
double MsBetween(Clock::time_point from, Clock::time_point to);

/// Linear-interpolated percentile (q in [0,1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// CPU time of the whole process / of the calling thread, in ms.
double ProcessCpuMs();
double ThreadCpuMs();

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// --- Tracing ---------------------------------------------------------------
//
// A span records one call at a layer boundary: its name, start and end, the
// span that was open on the same thread when it started (its parent) and
// the request it serves. Spans go to a per-thread buffer (no lock on the
// hot path), stay in memory, and are written by WriteTrace at exit. With
// tracing off a Span is just a steady-clock stopwatch.

void EnableTracing(bool on);
bool TracingEnabled();

/// Sets the request id that spans opened on this thread will carry.
void SetRequest(uint64_t request);

class Span {
 public:
  explicit Span(const char* name);
  ~Span() { Stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (once) and returns its duration in ms.
  double Stop();

 private:
  const char* name_;
  Clock::time_point start_;
  double ms_ = -1;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

/// Writes every recorded span as one JSON object per line to `path`.
/// Returns false (and says why on stderr) when the file cannot be written.
bool WriteTrace(const std::string& path);

/// Spans recorded / dropped because a thread's buffer was full.
uint64_t SpansRecorded();
uint64_t SpansDropped();

// --- Reservoir -------------------------------------------------------------

/// Keeps a uniform sample of at most `capacity` values (all of them while
/// fewer arrive), so long runs can report percentiles in bounded memory.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);
  void Add(double value);
  const std::vector<double>& values() const { return values_; }
  uint64_t seen() const { return seen_; }

 private:
  size_t capacity_;
  uint64_t state_;
  uint64_t seen_ = 0;
  std::vector<double> values_;
};

// --- Results ---------------------------------------------------------------

/// Counts operations and the ones that failed; every failure is printed to
/// stderr with its reason. Thread-safe.
class Ledger {
 public:
  void Attempt(uint64_t n = 1);
  void Fail(const std::string& why);
  uint64_t attempted() const;
  uint64_t failed() const;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t printed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The run's result. `extra` holds values run.py needs but the
/// final line does not carry (the untraced latency the traced run is
/// compared with).
struct Report {
  bool checked = false;  ///< The oracles ran to completion.
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
};

/// Prints the report as one JSON line on stdout.
void PrintReport(const Report& report, const Ledger& ledger);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
