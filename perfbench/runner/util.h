// Timing, percentile, /proc and JSON helpers shared by the workloads.
#ifndef PERFBENCH_RUNNER_UTIL_H_
#define PERFBENCH_RUNNER_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Latencies of a fixed list of operations repeated in rounds. Each
/// operation's typical latency is its median across rounds, and a typical
/// round takes the sum of those, so a stall of the host that hits a
/// minority of rounds moves neither the percentiles nor the rate, while a
/// program change that slows any operation moves both.
class RoundSamples {
 public:
  explicit RoundSamples(size_t ops) : by_op_(ops) {}
  void Add(size_t op, double micros) { by_op_[op].push_back(micros); }
  void EndRound() { ++rounds_; }
  size_t rounds() const { return rounds_; }
  /// The q-quantile, over operations, of each operation's typical latency.
  double OpQuantile(double q) const { return Quantile(Typical(), q); }
  /// Operations per second in a typical round.
  double Throughput() const;
  /// Each operation's typical latency, in operation order.
  std::vector<double> Typical() const;

 private:

  std::vector<std::vector<double>> by_op_;
  size_t rounds_ = 0;
};

/// Peak resident set (VmHWM) of process `pid` (0 = self), in MB.
double PeakRssMb(int pid = 0);

/// This process's current resident set (VmRSS), in MB.
double ResidentMb();

/// Bytes this process has passed to write-type syscalls (/proc/self/io
/// `wchar`), or 0 when the file is unreadable.
uint64_t WrittenChars();

/// Total size of the regular files under `dir`, and how many of them end
/// in `suffix`.
uint64_t DirBytes(const std::string& dir);
size_t CountFilesWithSuffix(const std::string& dir, const std::string& suffix);

/// Logical CPUs this process may run on (sched_getaffinity).
int AvailableCpus();

/// One metric as the result line reports it.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics in insertion order, printed as the result line's
/// "metrics" object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
  /// The metric named `name`, or null.
  const Metric* Find(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, Metric>> items_;
  std::map<std::string, size_t> index_;
};

/// Outcome of one benchmark run: the final stdout line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
};

/// Per-layer samples collected by a traced run: latency samples per span
/// name and plain values. Spans are timed around calls into the layers'
/// public functions from the benchmark's own code; nothing inside the
/// program is instrumented.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  void AddSample(const std::string& span, double micros) {
    if (enabled_) samples_[span].push_back(micros);
  }
  const std::vector<double>& Samples(const std::string& span) const;
  double SampleQuantile(const std::string& span, double q) const {
    return Quantile(Samples(span), q);
  }

 private:
  bool enabled_;
  std::map<std::string, std::vector<double>> samples_;
};

/// Times one call into a layer when the trace is enabled.
template <typename Fn>
auto Timed(Trace* trace, const char* span, Fn&& fn) {
  if (!trace->enabled()) return fn();
  Clock::time_point start = Clock::now();
  auto result = fn();
  trace->AddSample(span, MicrosSince(start));
  return result;
}

/// Reads the number value of the first `"key": <n>` in a JSON text (used
/// for the service stats JSON, whose nested "net" object repeats no key
/// the benchmark reads). -1 when absent.
double JsonNumber(const std::string& json, const std::string& key);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_UTIL_H_
