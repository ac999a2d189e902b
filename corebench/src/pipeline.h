// The phases the workloads are built from.  Each phase calls public
// functions of one corekit layer at a time and wraps every call in a Span,
// so the untraced run gets its end-to-end times and the traced run gets
// the same calls split by layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "corekit/core/metrics.h"
#include "corekit/engine/core_engine.h"
#include "inputs.h"
#include "oracle.h"

namespace corebench {

using Metrics = std::vector<corekit::Metric>;

// The metrics asked of Algorithm 2/3 (best core set) and of Algorithm 5
// (best single core).
struct QuerySet {
  Metrics core_set;
  Metrics single_core;
};

// An input file and how the program loads it.
struct InputFile {
  std::string path;
  bool ckg = false;  // plain .ckg snapshot (mmap) instead of a SNAP text file
};

// The engine options every workload pins: a fixed thread count and the
// engine's default stage flags.
corekit::CoreEngineOptions PinnedOptions(const RunOptions& run);

// One cold repetition: file -> graph -> decomposition -> ordering -> forest
// -> every BestCoreSet and BestSingleCore of `queries`.  Returns the engine
// (warm) and the wall time in `seconds`; load failures count in `outcome`.
std::unique_ptr<corekit::CoreEngine> ColdQuery(const InputFile& input,
                                               const QuerySet& queries,
                                               const RunOptions& run,
                                               Outcome& outcome,
                                               double* seconds);

// Checks coreness and every cached answer of `engine` against `oracle`;
// `full` also checks the best single cores vertex by vertex.
void CheckEngine(corekit::CoreEngine& engine, const Oracle& oracle,
                 const QuerySet& queries, bool full, Outcome& outcome);

// One update batch: inserts of absent edges and deletes of present ones.
struct Batch {
  corekit::EdgeList inserts;
  corekit::EdgeList deletes;
};

// The update cycle of a run, drawn once from the seed: the forward batches
// in order, then their inverses in reverse order, so that every update
// round starts from the input's edge set and does the same work.  Deletes
// are input edges and inserts absent edges, each equally likely, drawn as
// spread samples over what an update costs (the smaller endpoint
// coreness, then the larger degree).
struct UpdateCycle {
  std::vector<Batch> forward;
  EdgeSet middle;  // the edge set after the forward batches
};
UpdateCycle DrawCycle(const EdgeSet& set,
                      const std::vector<std::uint32_t>& coreness,
                      std::uint64_t seed, std::uint32_t batches,
                      std::uint32_t per_side);

// Timings of the update rounds of one engine.  Every round does the same
// work, and the end-to-end metrics are taken from the per-round figures
// (see Lowest and Highest in common.h).
struct ChurnTimes {
  std::vector<double> batch_s;        // every ApplyBatch call
  std::vector<double> requery_s;      // all post-batch queries of a round
  std::vector<double> round_query_s;  // median post-batch query of a round
  std::vector<double> round_qps;      // post-batch answers per second of a
                                      // round's update time
  std::vector<double> footprint;      // BatchResult::footprint
  std::vector<double> changed;        // BatchResult::coreness_changed
  std::vector<double> rss_mb;         // resident set after each round
  std::uint64_t inserted = 0;
  std::uint64_t deleted = 0;
};

// `rounds` x (the forward batches of `cycle`, then the decomposition,
// ordering, forest and every answer of `queries`, checked against
// `middle`, the oracle of `cycle.middle`, then the inverse batches).
void ChurnRounds(corekit::CoreEngine& engine, const UpdateCycle& cycle,
                 const Oracle& middle, std::uint32_t rounds,
                 const QuerySet& queries, Outcome& outcome, ChurnTimes& times);

// Warm replay of every cached answer for `seconds`, in whole passes;
// appends per-call latencies in seconds (block means) and returns the
// number of calls.
std::uint64_t WarmReplay(corekit::CoreEngine& engine, const QuerySet& queries,
                         double seconds, Outcome& outcome,
                         std::vector<double>& latencies);

// Per-layer figures that do not come from the workload's own calls
// (traced run only): graph and index footprints, the triangle count,
// the simd kernels and the parallel layers at 1/2/4 threads, all on the
// engine's current graph, checked against `oracle`.
void ProbeLayers(corekit::CoreEngine& engine, const Oracle& oracle,
                 Outcome& outcome, MetricSink& sink);

// The serving mix straight through EngineService::Handle over a registry
// holding the engine's graph (no sockets).
void ProbeService(corekit::CoreEngine& engine, const RunOptions& run,
                  Outcome& outcome, MetricSink& sink);

// Per-layer metrics from the recorded spans and update rounds;
// `input_bytes` is the size of the file the cold repetitions read.
void SpanMetrics(const ChurnTimes& churn, std::uint64_t input_bytes,
                 MetricSink& sink);

}  // namespace corebench
