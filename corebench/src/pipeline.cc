#include "pipeline.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "corekit/core/triangle_scoring.h"
#include "corekit/engine/engine_registry.h"
#include "corekit/graph/ckg_format.h"
#include "corekit/graph/parallel_edge_list.h"
#include "corekit/graph/parallel_graph_builder.h"
#include "corekit/parallel/frontier_peel.h"
#include "corekit/parallel/parallel_ordering.h"
#include "corekit/parallel/parallel_triangles.h"
#include "corekit/server/engine_service.h"
#include "corekit/simd/intersect.h"
#include "trace.h"

namespace corebench {

using corekit::CoreEngine;
using corekit::Metric;

corekit::CoreEngineOptions PinnedOptions(const RunOptions& run) {
  corekit::CoreEngineOptions options;
  options.num_threads = run.threads;
  return options;
}

std::unique_ptr<CoreEngine> ColdQuery(const InputFile& input,
                                      const QuerySet& queries,
                                      const RunOptions& run, Outcome& outcome,
                                      double* seconds) {
  ++outcome.attempted;
  Span total("query.cold");
  std::unique_ptr<CoreEngine> engine;
  if (input.ckg) {
    corekit::Result<corekit::Graph> graph = [&] {
      Span span("graph.ingest");
      return corekit::ReadCkgGraph(input.path);
    }();
    if (!graph.ok()) {
      ++outcome.failed;
      std::fprintf(stderr, "load %s: %s\n", input.path.c_str(),
                   graph.status().ToString().c_str());
      return nullptr;
    }
    Span span("graph.build");
    engine = std::make_unique<CoreEngine>(std::move(*graph),
                                          PinnedOptions(run));
  } else {
    corekit::ThreadPool pool(run.threads);
    corekit::Result<corekit::ParsedEdgeList> parsed = [&] {
      Span span("graph.ingest");
      return corekit::ParseSnapEdgeListParallel(input.path, pool);
    }();
    if (!parsed.ok()) {
      ++outcome.failed;
      std::fprintf(stderr, "load %s: %s\n", input.path.c_str(),
                   parsed.status().ToString().c_str());
      return nullptr;
    }
    Span span("graph.build");
    corekit::Graph graph = corekit::BuildGraphParallel(
        parsed->num_vertices, parsed->edges, pool);
    corekit::EdgeList().swap(parsed->edges);
    engine = std::make_unique<CoreEngine>(std::move(graph),
                                          PinnedOptions(run));
  }
  {
    Span span("core.decompose");
    engine->Cores();
  }
  {
    Span span("core.order");
    engine->Ordered();
  }
  {
    Span span("core.forest");
    engine->Forest();
  }
  {
    Span span("core.coreset");
    for (const Metric metric : queries.core_set) engine->BestCoreSet(metric);
  }
  {
    Span span("core.singlecore");
    for (const Metric metric : queries.single_core) {
      engine->BestSingleCore(metric);
    }
  }
  *seconds = total.Stop();
  return engine;
}

void CheckEngine(CoreEngine& engine, const Oracle& oracle,
                 const QuerySet& queries, bool full, Outcome& outcome) {
  const corekit::CoreDecomposition& cores = engine.Cores();
  if (std::string why = oracle.CheckCoreness(cores.coreness); !why.empty()) {
    outcome.Mismatch(why);
  }
  if (engine.graph().NumEdges() != oracle.m()) {
    outcome.Mismatch("graph has " + std::to_string(engine.graph().NumEdges()) +
                     " edges, expected " + std::to_string(oracle.m()));
  }
  for (const Metric metric : queries.core_set) {
    const corekit::CoreSetProfile& set = engine.BestCoreSet(metric);
    if (std::string why = oracle.CheckCoreSet(metric, set.best_k,
                                              set.best_score, &set.scores);
        !why.empty()) {
      outcome.Mismatch(why);
    }
  }
  for (const Metric metric : queries.single_core) {
    const corekit::SingleCoreProfile& single = engine.BestSingleCore(metric);
    std::vector<std::uint32_t> vertices;
    if (full) vertices = engine.Forest().CoreVertices(single.best_node);
    if (std::string why = oracle.CheckSingleCore(
            metric, single.best_k, single.best_score, full ? &vertices : nullptr);
        !why.empty()) {
      outcome.Mismatch(why);
    }
  }
}

namespace {

std::uint64_t Key(std::uint32_t u, std::uint32_t v) {
  if (u > v) std::swap(u, v);
  return (std::uint64_t{u} << 32) | v;
}

void Shuffle(std::vector<std::size_t>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(static_cast<std::uint32_t>(i))]);
  }
}

// `count` distinct indices into `keys`, each equally likely, in random
// order: a systematic sample from a random start over the indices sorted
// by key (ties in random order).  Every draw takes high- and low-key items
// in their share of the whole, so the work of a cycle varies little from
// seed to seed even where a few kinds of update cost most of it.
std::vector<std::size_t> SpreadSample(const std::vector<std::uint64_t>& keys,
                                      std::size_t count, Rng& rng) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Shuffle(order, rng);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  const double step = static_cast<double>(keys.size()) / count;
  const double start = rng.Unit() * step;
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < count; ++i) {
    sample.push_back(order[std::min(
        order.size() - 1, static_cast<std::size_t>(start + i * step))]);
  }
  Shuffle(sample, rng);
  return sample;
}

}  // namespace

UpdateCycle DrawCycle(const EdgeSet& set,
                      const std::vector<std::uint32_t>& coreness,
                      std::uint64_t seed, std::uint32_t batches,
                      std::uint32_t per_side) {
  Rng rng(seed);
  const std::size_t count = std::size_t{batches} * per_side;
  std::vector<std::uint32_t> degree(set.n, 0);
  std::unordered_set<std::uint64_t> present;
  present.reserve(set.edges.size() * 2);
  for (const corekit::Edge& e : set.edges) {
    ++degree[e.first];
    ++degree[e.second];
    present.insert(Key(e.first, e.second));
  }
  // What an update of (u, v) costs: the subcore of the smaller coreness,
  // then the common neighbours of the endpoints.
  const auto cost_key = [&](const corekit::Edge& e) {
    return (std::uint64_t{std::min(coreness[e.first], coreness[e.second])}
            << 32) |
           std::max(degree[e.first], degree[e.second]);
  };
  std::vector<std::uint64_t> keys;
  keys.reserve(set.edges.size());
  for (const corekit::Edge& e : set.edges) keys.push_back(cost_key(e));
  const std::vector<std::size_t> deleted = SpreadSample(keys, count, rng);
  // Inserts: a spread sample of uniformly drawn absent edges.
  corekit::EdgeList candidates;
  std::unordered_set<std::uint64_t> drawn;
  while (candidates.size() < 16 * count) {
    const std::uint32_t u = rng.Below(set.n);
    const std::uint32_t v = rng.Below(set.n);
    if (u != v && present.count(Key(u, v)) == 0 &&
        drawn.insert(Key(u, v)).second) {
      candidates.emplace_back(u, v);
    }
  }
  keys.clear();
  for (const corekit::Edge& e : candidates) keys.push_back(cost_key(e));
  const std::vector<std::size_t> inserted = SpreadSample(keys, count, rng);

  UpdateCycle cycle;
  cycle.forward.resize(batches);
  for (std::size_t i = 0; i < count; ++i) {
    Batch& batch = cycle.forward[i / per_side];
    batch.deletes.push_back(set.edges[deleted[i]]);
    batch.inserts.push_back(candidates[inserted[i]]);
  }
  std::vector<bool> gone(set.edges.size(), false);
  for (const std::size_t i : deleted) gone[i] = true;
  cycle.middle.n = set.n;
  for (std::size_t i = 0; i < set.edges.size(); ++i) {
    if (!gone[i]) cycle.middle.edges.push_back(set.edges[i]);
  }
  for (const Batch& batch : cycle.forward) {
    cycle.middle.edges.insert(cycle.middle.edges.end(), batch.inserts.begin(),
                              batch.inserts.end());
  }
  return cycle;
}

namespace {

// One timed ApplyBatch; a batch the engine does not apply in full fails.
void TimedBatch(CoreEngine& engine, const corekit::EdgeList& inserts,
                const corekit::EdgeList& deletes, Outcome& outcome,
                ChurnTimes& times) {
  ++outcome.attempted;
  Span batch_span("dynamic.apply_batch");
  const CoreEngine::BatchResult result = engine.ApplyBatch(inserts, deletes);
  times.batch_s.push_back(batch_span.Stop());
  if (result.inserted != inserts.size() || result.deleted != deletes.size() ||
      result.rejected != 0) {
    ++outcome.failed;
    std::fprintf(stderr, "ApplyBatch: %u/%zu inserted, %u/%zu deleted\n",
                 result.inserted, inserts.size(), result.deleted,
                 deletes.size());
  }
  times.inserted += result.inserted;
  times.deleted += result.deleted;
  times.footprint.push_back(static_cast<double>(result.footprint));
  times.changed.push_back(static_cast<double>(result.coreness_changed));
}

}  // namespace

void ChurnRounds(CoreEngine& engine, const UpdateCycle& cycle,
                 const Oracle& middle, std::uint32_t rounds,
                 const QuerySet& queries, Outcome& outcome,
                 ChurnTimes& times) {
  for (std::uint32_t round = 0; round < rounds; ++round) {
    const std::size_t first_batch = times.batch_s.size();
    std::vector<double> round_queries;
    for (const Batch& batch : cycle.forward) {
      TimedBatch(engine, batch.inserts, batch.deletes, outcome, times);
    }

    Span requery("engine.requery");
    {
      Span span("engine.patch_decompose");
      engine.Cores();
    }
    {
      Span span("engine.rebuild_order");
      engine.Ordered();
    }
    {
      Span span("engine.rebuild_forest");
      engine.Forest();
    }
    {
      Span span("engine.reprofile");
      for (const Metric metric : queries.core_set) {
        ++outcome.attempted;
        Span query("engine.query");
        engine.BestCoreSet(metric);
        round_queries.push_back(query.Stop());
      }
      for (const Metric metric : queries.single_core) {
        ++outcome.attempted;
        Span query("engine.query");
        engine.BestSingleCore(metric);
        round_queries.push_back(query.Stop());
      }
    }
    const double requery_s = requery.Stop();
    times.requery_s.push_back(requery_s);
    CheckEngine(engine, middle, queries, /*full=*/false, outcome);

    for (auto it = cycle.forward.rbegin(); it != cycle.forward.rend(); ++it) {
      TimedBatch(engine, it->deletes, it->inserts, outcome, times);
    }
    times.rss_mb.push_back(CurrentRssMb());

    double batch_total = 0;
    for (std::size_t i = first_batch; i < times.batch_s.size(); ++i) {
      batch_total += times.batch_s[i];
    }
    times.round_query_s.push_back(Median(round_queries));
    times.round_qps.push_back(static_cast<double>(round_queries.size()) /
                              (batch_total + requery_s));
  }
}

std::uint64_t WarmReplay(CoreEngine& engine, const QuerySet& queries,
                         double seconds, Outcome& outcome,
                         std::vector<double>& latencies) {
  // A cached answer takes well under a microsecond, about what reading the
  // clock costs, so each sample is the mean over a block of whole passes.
  constexpr int kPassesPerSample = 64;
  std::uint64_t calls = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t block = 0;
    for (int pass = 0; pass < kPassesPerSample; ++pass) {
      for (const Metric metric : queries.core_set) {
        ++block;
        const double best = engine.BestCoreSet(metric).best_score;
        if (best != best) ++outcome.failed;  // NaN: no answer
      }
      for (const Metric metric : queries.single_core) {
        ++block;
        const double best = engine.BestSingleCore(metric).best_score;
        if (best != best) ++outcome.failed;
      }
    }
    latencies.push_back(SecondsSince(t0) / static_cast<double>(block));
    outcome.attempted += block;
    calls += block;
  }
  return calls;
}

namespace {

double MedianSpan(const char* name) { return Median(Tracer::Durations(name)); }

template <typename Fn>
double TimeOnce(const char* name, Fn&& fn) {
  Span span(name);
  fn();
  return span.Stop();
}

}  // namespace

void ProbeLayers(CoreEngine& engine, const Oracle& oracle, Outcome& outcome,
                 MetricSink& sink) {
  const corekit::Graph& graph = engine.graph();
  const corekit::OrderedGraph& ordered = engine.Ordered();
  const double n = graph.NumVertices();
  const double arcs = static_cast<double>(graph.NeighborArray().size());
  const double kmax = ordered.kmax();

  sink.Set("graph.csr_bytes", (n + 1) * 8 + arcs * 4, "bytes");

  // core: computed footprint of the Algorithm 1 index (offsets, neighbors
  // and their ranks, six per-vertex arrays, shell starts).
  sink.Set("core.order_bytes", (n + 1) * 8 + arcs * 8 + n * 24 + (kmax + 2) * 4,
           "bytes");
  sink.Set("core.kmax", kmax, "count");
  sink.Set("core.forest_nodes", engine.Forest().NumNodes(), "count");
  std::uint64_t triangles = 0;
  const double triangles_s = TimeOnce("core.triangles", [&] {
    triangles = corekit::CountTriangles(ordered);
    corekit::CountTriplets(graph);
  });
  sink.Set("core.triangles_s", triangles_s, "s");
  sink.Set("core.triangles", static_cast<double>(triangles), "count");
  if (oracle.with_triangles() && triangles != oracle.triangles()) {
    outcome.Mismatch("CountTriangles: " + std::to_string(triangles) +
                     ", expected " + std::to_string(oracle.triangles()));
  }

  // simd: the kernels over the rank-space pairs the triangle kernel visits.
  for (int scalar = 0; scalar < 2; ++scalar) {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    const double seconds =
        TimeOnce(scalar ? "simd.intersect_scalar" : "simd.intersect", [&] {
          for (corekit::VertexId v = 0; v < ordered.NumVertices(); ++v) {
            const auto a = ordered.NeighborRanksHigherRank(v);
            for (const corekit::VertexId u : ordered.NeighborsHigherRank(v)) {
              const auto b = ordered.NeighborRanksHigherRank(u);
              count += scalar ? corekit::simd::IntersectCountScalar(a, b)
                              : corekit::simd::IntersectCount(a, b);
              bytes += (a.size() + b.size()) * sizeof(corekit::VertexId);
            }
          }
        });
    if (count != triangles) {
      outcome.Mismatch("simd intersections count " + std::to_string(count) +
                       " triangles, expected " + std::to_string(triangles));
    }
    sink.Set(scalar ? "simd.intersect_scalar_s" : "simd.intersect_s", seconds,
             "s");
    sink.Set("simd.bytes", static_cast<double>(bytes), "bytes");
  }

  // parallel: scaling rows against the serial spans above.
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    const std::string suffix = ".t" + std::to_string(threads);
    corekit::ThreadPool pool(threads);
    corekit::CoreDecomposition cores;
    sink.Set("parallel.peel_s" + suffix, TimeOnce("parallel.peel", [&] {
               cores = corekit::ComputeCoreDecompositionFrontier(graph, pool);
             }),
             "s");
    if (std::string why = oracle.CheckCoreness(cores.coreness); !why.empty()) {
      outcome.Mismatch("frontier peel: " + why);
    }
    sink.Set("parallel.order_s" + suffix, TimeOnce("parallel.order", [&] {
               corekit::BuildOrderedGraphParallel(graph, cores, threads);
             }),
             "s");
    std::uint64_t parallel_triangles = 0;
    sink.Set("parallel.triangles_s" + suffix,
             TimeOnce("parallel.triangles", [&] {
               parallel_triangles =
                   corekit::CountTrianglesParallel(ordered, pool);
             }),
             "s");
    if (parallel_triangles != triangles) {
      outcome.Mismatch("CountTrianglesParallel disagrees with CountTriangles");
    }
  }

}

void ProbeService(CoreEngine& engine, const RunOptions& run, Outcome& outcome,
                  MetricSink& sink) {
  const corekit::Graph& graph = engine.graph();
  const std::uint32_t n = graph.NumVertices();
  corekit::EngineRegistryOptions registry_options;
  registry_options.engine_options = PinnedOptions(run);
  corekit::EngineRegistry registry(registry_options);
  if (!registry.AddGraph("g", corekit::Graph(graph)).ok()) {
    outcome.Mismatch("EngineRegistry::AddGraph failed");
    return;
  }
  corekit::server::EngineService service(registry);
  Rng rng(run.seed ^ 0x5e41ce);
  std::vector<double> latencies;
  for (int i = 0; i < 4000; ++i) {
    corekit::server::Request request;
    request.request_id = static_cast<std::uint64_t>(i);
    request.graph = "g";
    request.metric = corekit::kAllMetrics[rng.Below(5)];
    switch (i % 4) {
      case 0: request.opcode = corekit::server::Opcode::kGraphInfo; break;
      case 1:
        request.opcode = corekit::server::Opcode::kCoreness;
        request.vertex = rng.Below(n);
        break;
      case 2: request.opcode = corekit::server::Opcode::kBestCoreSet; break;
      default: request.opcode = corekit::server::Opcode::kBestSingleCore;
    }
    ++outcome.attempted;
    const Clock::time_point t0 = Clock::now();
    const corekit::server::Response response = service.Handle(request);
    if (i >= 400) latencies.push_back(SecondsSince(t0));  // after warm-up
    if (response.status != corekit::server::WireError::kOk) ++outcome.failed;
  }
  sink.Set("server.direct_p50_us", Median(latencies) * 1e6, "us");
  sink.Set("server.coalesced", static_cast<double>(service.stats().coalesced),
           "count");
  sink.Set("server.frames_decoded", 0, "count");
  sink.Set("server.busy_rejections", 0, "count");
  sink.Set("engine.registry_hits", static_cast<double>(registry.stats().hits),
           "count");
  sink.Set("engine.registry_evictions",
           static_cast<double>(registry.stats().evictions), "count");
}

void SpanMetrics(const ChurnTimes& churn, std::uint64_t input_bytes,
                 MetricSink& sink) {
  const double ingest_s = MedianSpan("graph.ingest");
  sink.Set("graph.ingest_s", ingest_s, "s");
  sink.Set("graph.ingest_mb_per_s",
           ingest_s > 0 ? static_cast<double>(input_bytes) / 1e6 / ingest_s
                        : 0.0,
           "MB/s");
  sink.Set("graph.build_s", MedianSpan("graph.build"), "s");
  sink.Set("core.decompose_s", MedianSpan("core.decompose"), "s");
  sink.Set("core.order_s", MedianSpan("core.order"), "s");
  sink.Set("core.forest_s", MedianSpan("core.forest"), "s");
  sink.Set("core.coreset_s", MedianSpan("core.coreset"), "s");
  sink.Set("core.singlecore_s", MedianSpan("core.singlecore"), "s");
  sink.Set("engine.patch_decompose_ms",
           MedianSpan("engine.patch_decompose") * 1e3, "ms");
  sink.Set("engine.rebuild_order_ms", MedianSpan("engine.rebuild_order") * 1e3,
           "ms");
  sink.Set("engine.rebuild_forest_ms",
           MedianSpan("engine.rebuild_forest") * 1e3, "ms");
  sink.Set("engine.reprofile_ms", MedianSpan("engine.reprofile") * 1e3, "ms");
  sink.Set("dynamic.footprint", Median(churn.footprint), "count");
  sink.Set("dynamic.coreness_changed", Median(churn.changed), "count");
  // RSS is sampled after each round; slope over the batches applied so far.
  const double per_round =
      churn.rss_mb.empty()
          ? 1.0
          : static_cast<double>(churn.batch_s.size()) / churn.rss_mb.size();
  std::vector<double> batches(churn.rss_mb.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    batches[i] = static_cast<double>(i + 1) * per_round;
  }
  sink.Set("engine.rss_per_batch_mb", Slope(batches, churn.rss_mb), "MB");
}

}  // namespace corebench
