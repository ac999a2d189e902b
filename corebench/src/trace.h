// Span recorder for the traced run.  Every call the benchmark makes into
// a corekit layer sits inside a Span; with tracing on, each span's name,
// start, end and parent are kept in memory and written out as JSON when
// the run ends.  With tracing off a Span is only a stopwatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace corebench {

class Tracer {
 public:
  static void Enable(bool on);
  static bool Enabled();
  // Durations in seconds of every recorded span called `name`.
  static std::vector<double> Durations(const std::string& name);
  // Writes {"metrics": <metrics_json>, "spans": [{"id", "name",
  // "start_us", "end_us", "parent"}...]}; parent -1 marks a root span.
  static void WriteJson(const std::string& path,
                        const std::string& metrics_json);
};

class Span {
 public:
  // `name` must outlive the run (a string literal).
  explicit Span(const char* name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { Stop(); }
  // Ends the span (once) and returns its duration in seconds.
  double Stop();

 private:
  const char* name_;
  Clock::time_point start_;
  std::int64_t id_ = -1;
  std::int64_t parent_ = -1;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace corebench
