#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace tman::perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

size_t SamplesAbove(size_t n, double p) {
  // The epsilon keeps exact products (1000 * 99 / 100) from rounding up.
  const double rank = std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9);
  const size_t at_or_below = static_cast<size_t>(std::max(0.0, rank));
  return at_or_below >= n ? 0 : n - at_or_below;
}

bool TailPercentile(const std::vector<double>& values, double p, double* out) {
  if (SamplesAbove(values.size(), p) < kMinTailSamples) return false;
  *out = Percentile(values, p);
  return true;
}

double NowMicros() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t SpanLog::Begin(uint64_t op, const std::string& layer, int64_t parent) {
  const double now = NowMicros();
  return Add(op, layer, now, now, parent);
}

void SpanLog::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_us = NowMicros();
}

int64_t SpanLog::Add(uint64_t op, const std::string& layer, double start_us,
                     double end_us, int64_t parent) {
  spans_.push_back(Span{op, layer, start_us, end_us, parent});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::SelfMicros() const {
  std::vector<double> child_micros(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_micros[static_cast<size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); i++) {
    const double d = spans_[i].end_us - spans_[i].start_us - child_micros[i];
    self[spans_[i].layer] += std::max(0.0, d);
  }
  return self;
}

double SpanLog::RootMicros() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_us - s.start_us;
  }
  return total;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"op\":%llu,\"layer\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld}\n",
                 static_cast<unsigned long long>(s.op), s.layer.c_str(),
                 s.start_us, s.end_us, static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

RegistrySnapshot RegistrySnapshot::Take(
    obs::MetricsRegistry* registry, const std::vector<std::string>& counters,
    const std::vector<std::string>& histograms) {
  RegistrySnapshot snap;
  for (const std::string& name : counters) {
    snap.counters[name] = registry->GetCounter(name)->value();
  }
  for (const std::string& name : histograms) {
    const obs::Histogram* h = registry->GetHistogram(name);
    snap.hist_count[name] = h->count();
    snap.hist_sum[name] = h->sum();
  }
  return snap;
}

namespace {

uint64_t Delta(const std::map<std::string, uint64_t>& before,
               const std::map<std::string, uint64_t>& after,
               const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const uint64_t base = b == before.end() ? 0 : b->second;
  return a->second >= base ? a->second - base : 0;
}

}  // namespace

uint64_t CounterDelta(const RegistrySnapshot& before,
                      const RegistrySnapshot& after, const std::string& name) {
  return Delta(before.counters, after.counters, name);
}

uint64_t HistCountDelta(const RegistrySnapshot& before,
                        const RegistrySnapshot& after,
                        const std::string& name) {
  return Delta(before.hist_count, after.hist_count, name);
}

uint64_t HistSumDelta(const RegistrySnapshot& before,
                      const RegistrySnapshot& after, const std::string& name) {
  return Delta(before.hist_sum, after.hist_sum, name);
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}";
  return out;
}

}  // namespace tman::perfbench
