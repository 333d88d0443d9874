#ifndef TMAN_PERFBENCH_HARNESS_H_
#define TMAN_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the benchmark program and its self-tests:
// percentile math with sample-count guards, the span log of the traced
// run, and registry snapshots whose differences give per-layer counters.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace tman::perfbench {

// A reported percentile needs at least this many samples above it.
constexpr size_t kMinTailSamples = 10;

// Linear-interpolation percentile (p in [0, 100]) of unsorted samples;
// 0 for an empty set.
double Percentile(std::vector<double> values, double p);

// Samples that rank strictly above the p-th percentile of n samples:
// n - ceil(n * p / 100).
size_t SamplesAbove(size_t n, double p);

// The p-th percentile, or false when fewer than kMinTailSamples samples
// lie above it (the figure would rest on too few observations).
bool TailPercentile(const std::vector<double>& values, double p, double* out);

// Monotonic microseconds since an arbitrary process-wide origin.
double NowMicros();

// Peak resident set size of this process in MiB.
double PeakRssMiB();

// Spans recorded around the benchmark's calls into each layer. Spans of
// one operation share `op`; `parent` indexes the enclosing span in the
// log (-1 for an operation's root).
struct Span {
  uint64_t op = 0;
  std::string layer;
  double start_us = 0;
  double end_us = 0;
  int64_t parent = -1;
};

class SpanLog {
 public:
  // Opens a span now; returns its index for End() and for children.
  int64_t Begin(uint64_t op, const std::string& layer, int64_t parent);
  void End(int64_t index);
  // Records a finished span with explicit bounds.
  int64_t Add(uint64_t op, const std::string& layer, double start_us,
              double end_us, int64_t parent);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer in microseconds: each span's duration minus the
  // durations of its direct children (clamped at zero). Root spans report
  // under their own layer name, so a root's self time is the operation
  // time no child layer accounts for.
  std::map<std::string, double> SelfMicros() const;

  // Sum of root-span durations.
  double RootMicros() const;

  // One JSON object per line: op, layer, start_us, end_us, parent.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Point-in-time copy of the counters and histogram totals of a registry.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> hist_count;
  std::map<std::string, uint64_t> hist_sum;

  // Reads every name in `counters` / `histograms` (get-or-create, so a
  // family a layer never touched reads as 0).
  static RegistrySnapshot Take(obs::MetricsRegistry* registry,
                               const std::vector<std::string>& counters,
                               const std::vector<std::string>& histograms);
};

// after - before for one counter / histogram count / histogram sum.
uint64_t CounterDelta(const RegistrySnapshot& before,
                      const RegistrySnapshot& after, const std::string& name);
uint64_t HistCountDelta(const RegistrySnapshot& before,
                        const RegistrySnapshot& after,
                        const std::string& name);
uint64_t HistSumDelta(const RegistrySnapshot& before,
                      const RegistrySnapshot& after, const std::string& name);

// a / b, or 0 when b is 0 (a layer the workload never reached).
double Ratio(double a, double b);

// Named, unit-tagged metric values collected for the final report, in
// insertion order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // observations behind the value (0 = derived)
};

// Renders `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace tman::perfbench

#endif  // TMAN_PERFBENCH_HARNESS_H_
