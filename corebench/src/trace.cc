#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace corebench {
namespace {

struct Record {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t parent;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<Record> g_records;  // guarded by g_mutex
const Clock::time_point g_epoch = Clock::now();
thread_local std::int64_t t_open = -1;  // innermost open span, per thread

double Micros(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on); }
bool Tracer::Enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<double> Tracer::Durations(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<double> out;
  for (const Record& r : g_records) {
    if (name == r.name) {
      out.push_back(std::chrono::duration<double>(r.end - r.start).count());
    }
  }
  return out;
}

void Tracer::WriteJson(const std::string& path,
                       const std::string& metrics_json) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(file, "{\"metrics\": %s,\n\"spans\": [\n",
               metrics_json.c_str());
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const Record& r = g_records[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %lld}%s\n",
                 i, r.name, Micros(r.start), Micros(r.end),
                 static_cast<long long>(r.parent),
                 i + 1 < g_records.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  std::fclose(file);
}

Span::Span(const char* name) : name_(name), start_(Clock::now()) {
  if (!Tracer::Enabled()) return;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    id_ = static_cast<std::int64_t>(g_records.size());
    g_records.push_back(Record{name_, start_, start_, t_open});
  }
  parent_ = t_open;
  t_open = id_;
}

double Span::Stop() {
  if (stopped_) return seconds_;
  stopped_ = true;
  const Clock::time_point end = Clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (id_ >= 0) {
    std::lock_guard<std::mutex> lock(g_mutex);
    g_records[static_cast<std::size_t>(id_)].end = end;
    t_open = parent_;
  }
  return seconds_;
}

}  // namespace corebench
