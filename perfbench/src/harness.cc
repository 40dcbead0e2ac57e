#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <memory>

namespace perfbench {

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

namespace {

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

double ProcessCpuMs() { return CpuMs(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuMs() { return CpuMs(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Tracing ---------------------------------------------------------------

namespace {

struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  uint32_t thread;
};

// Per-thread cap: the serve readers open several spans per query, and an
// unbounded buffer would turn the traced run into a memory benchmark.
constexpr size_t kMaxSpansPerThread = 100'000;

struct ThreadBuffer {
  uint32_t thread = 0;
  uint64_t current = 0;  // innermost open span on this thread
  uint64_t request = 0;
  std::vector<SpanRecord> spans;
  uint64_t dropped = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_span{1};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by mu

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    owned->thread = static_cast<uint32_t>(g_buffers.size());
    g_buffers.push_back(std::move(owned));
    return g_buffers.back().get();
  }();
  return *buffer;
}

int64_t SinceEpochNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

}  // namespace

void EnableTracing(bool on) { g_tracing.store(on); }
bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

void SetRequest(uint64_t request) {
  if (TracingEnabled()) LocalBuffer().request = request;
}

Span::Span(const char* name) : name_(name) {
  if (TracingEnabled()) {
    ThreadBuffer& buffer = LocalBuffer();
    id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
    parent_ = buffer.current;
    buffer.current = id_;
  }
  start_ = Clock::now();
}

double Span::Stop() {
  if (ms_ >= 0) return ms_;
  const Clock::time_point end = Clock::now();
  ms_ = MsBetween(start_, end);
  if (id_ != 0) {
    ThreadBuffer& buffer = LocalBuffer();
    buffer.current = parent_;
    if (buffer.spans.size() < kMaxSpansPerThread) {
      buffer.spans.push_back({name_, SinceEpochNs(start_), SinceEpochNs(end),
                              id_, parent_, buffer.request, buffer.thread});
    } else {
      ++buffer.dropped;
    }
  }
  return ms_;
}

bool WriteTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return false;
  }
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& s : buffer->spans) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << ",\"thread\":" << s.thread << "}\n";
    }
  }
  return static_cast<bool>(out);
}

uint64_t SpansRecorded() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  uint64_t n = 0;
  for (const auto& buffer : g_buffers) n += buffer->spans.size();
  return n;
}

uint64_t SpansDropped() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  uint64_t n = 0;
  for (const auto& buffer : g_buffers) n += buffer->dropped;
  return n;
}

// --- Reservoir -------------------------------------------------------------

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : capacity_(capacity), state_(seed | 1) {
  values_.reserve(capacity);
}

void Reservoir::Add(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  state_ ^= state_ << 13;  // xorshift64
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  const uint64_t slot = state_ % seen_;
  if (slot < capacity_) values_[slot] = value;
}

// --- Results ---------------------------------------------------------------

void Ledger::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Ledger::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  // Every failure counts; the first hundred are printed in full.
  if (printed_ < 100) {
    ++printed_;
    std::fprintf(stderr, "perfbench: FAILED op: %s\n", why.c_str());
  }
}

uint64_t Ledger::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

uint64_t Ledger::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

namespace {

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void AppendMetrics(std::string* out, const std::vector<Metric>& metrics) {
  *out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) *out += ", ";
    *out += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  *out += "}";
}

}  // namespace

void PrintReport(const Report& report, const Ledger& ledger) {
  const uint64_t failed = ledger.failed();
  std::string line = "{\"correct\": ";
  line += report.checked && failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": ";
  AppendMetrics(&line, report.metrics);
  if (!report.extra.empty()) {
    line += ", \"extra\": ";
    AppendMetrics(&line, report.extra);
  }
  line += "}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
