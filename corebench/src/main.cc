// corebench_driver: runs one corebench workload and prints, as the last
// line of standard output, {"correct", "attempted", "failed", "metrics"}.
//
//   corebench_driver --workload <bestk-text|bestk-triangles|churn|serve>
//                    --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// every call into a corekit layer, writes them (and the per-layer metrics)
// to .bench_run/trace-<workload>.json, overwritten by each traced run, and
// reports the per-layer metrics.  Diagnostics go to standard error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <malloc.h>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "trace.h"
#include "workloads.h"

namespace {

const corebench::Clock::time_point g_process_start = corebench::Clock::now();

const std::vector<std::string> kEndToEnd = {
    "setup_s", "cold_query_s", "peak_rss_mb",    "batch_ms",
    "requery_ms", "qps",       "latency_p50_us"};

const std::vector<std::string> kPerLayer = {
    "graph.ingest_s", "graph.ingest_mb_per_s", "graph.build_s",
    "graph.csr_bytes", "core.decompose_s", "core.order_s", "core.forest_s",
    "core.order_bytes", "core.triangles_s", "core.coreset_s",
    "core.singlecore_s", "core.kmax", "core.triangles", "core.forest_nodes",
    "simd.intersect_s", "simd.intersect_scalar_s", "simd.bytes",
    "parallel.peel_s.t1", "parallel.peel_s.t2", "parallel.peel_s.t4",
    "parallel.order_s.t1", "parallel.order_s.t2", "parallel.order_s.t4",
    "parallel.triangles_s.t1", "parallel.triangles_s.t2",
    "parallel.triangles_s.t4", "dynamic.footprint",
    "dynamic.coreness_changed", "engine.patch_decompose_ms",
    "engine.rebuild_order_ms", "engine.rebuild_forest_ms",
    "engine.reprofile_ms", "engine.rss_per_batch_mb", "engine.registry_hits",
    "engine.registry_evictions", "server.direct_p50_us",
    "server.frames_decoded", "server.busy_rejections", "server.coalesced",
    "trace.overhead_s"};

int Usage() {
  std::fprintf(stderr,
               "usage: corebench_driver --workload "
               "<bestk-text|bestk-triangles|churn|serve> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

// Keeps freed heap memory in the process: every cold repetition frees a
// whole engine and the next one allocates it again, and without these
// settings glibc hands the memory back to the kernel and faults it in
// again, so the timings would carry page faults whose cost depends on the
// host rather than on corekit.  One arena keeps pool threads' allocations
// in the same reused heap.
void KeepHeap() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
  mallopt(M_ARENA_MAX, 1);
}

}  // namespace

int main(int argc, char** argv) {
  KeepHeap();
  corebench::RunOptions run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      run.workload = value;
    } else if (flag == "--seed") {
      run.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      run.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || run.seconds <= 0) return Usage();

  try {
    if (const std::string why = corebench::OracleSelfTest(); !why.empty()) {
      std::fprintf(stderr, "%s\n", why.c_str());
      return 1;
    }
    mkdir(run.out_dir.c_str(), 0755);
    corebench::Outcome outcome;
    corebench::MetricSink all;
    corebench::Tracer::Enable(run.trace);
    if (run.workload == "bestk-text" || run.workload == "bestk-triangles") {
      corebench::RunBestk(run, run.workload == "bestk-triangles",
                          g_process_start, outcome, all);
    } else if (run.workload == "churn") {
      corebench::RunChurn(run, g_process_start, outcome, all);
    } else if (run.workload == "serve") {
      corebench::RunServe(run, g_process_start, outcome, all);
    } else {
      return Usage();
    }
    all.Set("peak_rss_mb", corebench::PeakRssMb(), "MB");

    corebench::MetricSink shown;
    for (const std::string& name : run.trace ? kPerLayer : kEndToEnd) {
      const corebench::MetricSink::Entry* entry = all.Find(name);
      if (entry == nullptr) {
        std::fprintf(stderr, "metric %s was not measured\n", name.c_str());
        return 1;
      }
      shown.Set(name, entry->value, entry->unit);
    }
    if (run.trace) {
      corebench::Tracer::WriteJson(run.out_dir + "/trace-" + run.workload +
                                       ".json",
                                   shown.ToJson());
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        outcome.correct ? "true" : "false",
        static_cast<unsigned long long>(outcome.attempted),
        static_cast<unsigned long long>(outcome.failed),
        shown.ToJson().c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "corebench: %s\n", error.what());
    return 1;
  }
}
