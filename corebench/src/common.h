// Shared plumbing of the corebench driver: run options, timing, robust
// statistics, memory probes and the metric sink printed as the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace corebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// What one invocation of the driver was asked to do.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_run";  // inputs + trace output
  std::uint32_t threads = 2;           // pinned CoreEngine/pool threads
};

// Median of a copy (0 for an empty sample).
double Median(std::vector<double> values);

// The lowest / highest value (0 for an empty sample).  Every round of a
// run repeats the same work, so a round's time differs from another's by
// what the shared host did meanwhile; the fastest round is the one it
// disturbed least.
double Lowest(const std::vector<double>& values);
double Highest(const std::vector<double>& values);

// Prints "<label>: n, min, Q1, median, Q3, max" of `values` to stderr.
void LogSpread(const std::string& label, std::vector<double> values);

// Least-squares slope of ys over xs (0 with fewer than two points).
double Slope(const std::vector<double>& xs, const std::vector<double>& ys);

// Current resident set (from /proc/self/statm) and the process peak
// (getrusage), both in MB.
double CurrentRssMb();
double PeakRssMb();

// Named metrics with units, emitted in the final JSON line.
class MetricSink {
 public:
  struct Entry {
    double value;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = Entry{value, unit};
  }
  const Entry* Find(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? nullptr : &it->second;
  }
  std::string ToJson() const;

 private:
  std::map<std::string, Entry> values_;
};

// Operation accounting + answer checking shared by every workload.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  // Records a failed answer check (printed to stderr, flips `correct`).
  void Mismatch(const std::string& what);
};

}  // namespace corebench
