#include "common.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

namespace corebench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double Lowest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Highest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

void LogSpread(const std::string& label, std::vector<double> values) {
  if (values.empty()) return;
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    return values[static_cast<std::size_t>(q * (values.size() - 1) + 0.5)];
  };
  std::fprintf(stderr,
               "%s: n=%zu min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n",
               label.c_str(), values.size(), values.front(), at(0.25),
               Median(values), at(0.75), values.back());
}

double Slope(const std::vector<double>& xs, const std::vector<double>& ys) {
  const std::size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  return sxx == 0 ? 0.0 : sxy / sxx;
}

double CurrentRssMb() {
  long pages_total = 0, pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages_total, &pages_resident) != 2) {
    pages_resident = 0;
  }
  std::fclose(f);
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

std::string MetricSink::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << entry.value << ", \"unit\": \"" << entry.unit << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

void Outcome::Mismatch(const std::string& what) {
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

}  // namespace corebench
