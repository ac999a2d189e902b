// The four workloads.  Each sets `setup_s` when its set-up ends and every
// other metric of its mode (end-to-end, or per-layer when traced).
#pragma once

#include "common.h"

namespace corebench {

// bestk-text (ER, SNAP text, primary metrics) or bestk-triangles (R-MAT,
// plain .ckg, clustering coefficient).
void RunBestk(const RunOptions& run, bool triangles, Clock::time_point t0,
              Outcome& outcome, MetricSink& sink);
void RunChurn(const RunOptions& run, Clock::time_point t0, Outcome& outcome,
              MetricSink& sink);
void RunServe(const RunOptions& run, Clock::time_point t0, Outcome& outcome,
              MetricSink& sink);

}  // namespace corebench
