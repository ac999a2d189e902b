#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <cstdio>
#include <thread>

#include "corekit/engine/engine_registry.h"
#include "corekit/graph/parallel_edge_list.h"
#include "corekit/server/engine_service.h"
#include "corekit/server/tcp_server.h"
#include "corekit/server/wire_client.h"
#include "inputs.h"
#include "oracle.h"
#include "pipeline.h"
#include "trace.h"

namespace corebench {
namespace {

using corekit::CoreEngine;
using corekit::Metric;

// Input sizes (see README.md for working sets and timings).
constexpr std::uint32_t kTextVertices = 10000;
constexpr std::uint64_t kTextEdges = 100000;
constexpr int kTriangleScale = 15;
constexpr std::uint32_t kTriangleEdgeFactor = 12;
constexpr std::uint32_t kChurnVertices = 20000;
constexpr std::uint64_t kChurnEdges = 200000;
constexpr std::uint32_t kTenantAVertices = 16000;
constexpr std::uint64_t kTenantAEdges = 100000;
constexpr double kPowerLaw = 2.3;
constexpr std::uint32_t kTenantBVertices = 20000;
constexpr std::uint64_t kTenantBEdges = 100000;

// The work of one run, in whole rounds.  The number of rounds is fixed for
// a given --seconds (not a time box), so every run does the same
// operations and the long-lived engine, which keeps every superseded
// version, ends at the same size.  Each round does a slice of every phase
// and every round repeats the same work, so each metric can be taken from
// the rounds the shared host disturbed least (see Lowest in common.h).
struct Plan {
  double rounds_per_second;
  std::uint32_t cold_reps;       // per round, a fresh engine each
  std::uint32_t update_rounds;   // per round: the update cycle, once each
  std::uint32_t batches;         // forward ApplyBatch calls of the cycle
  std::uint32_t per_side;        // inserts = deletes per ApplyBatch
  double phase_seconds;          // warm replay (bestk) or closed loop (serve)
};
// An update of the flat ER graph cascades through most of it, so its
// cycle is short; the skewed graphs need many updates per cycle for the
// few hub edges among them to come out the same from seed to seed.
constexpr Plan kTextPlan = {3.6, 1, 1, 8, 8, 0.02};
constexpr Plan kTrianglePlan = {2.8, 1, 1, 16, 16, 0.02};
constexpr Plan kChurnPlan = {2.2, 12, 4, 32, 16, 0.0};
constexpr Plan kServePlan = {1.5, 2, 1, 32, 16, 0.6};

std::uint32_t Rounds(const Plan& plan, const RunOptions& run) {
  return std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(
             std::lround(run.seconds * plan.rounds_per_second)));
}

const Metrics kPrimaryMetrics = {Metric::kAverageDegree,
                                 Metric::kInternalDensity, Metric::kCutRatio,
                                 Metric::kConductance, Metric::kModularity};
const Metrics kServeMetrics = {Metric::kAverageDegree,  Metric::kInternalDensity,
                               Metric::kCutRatio,       Metric::kConductance,
                               Metric::kModularity,
                               Metric::kClusteringCoefficient};
const QuerySet kTextQueries = {kPrimaryMetrics, kPrimaryMetrics};
const QuerySet kTriangleQueries = {{Metric::kClusteringCoefficient},
                                   {Metric::kClusteringCoefficient}};
// Five post-batch queries: two O(n) core-set scans, two single-core
// aggregations, one Algorithm 3 pass; the median lands among the
// single-core queries rather than in a gap between kinds.
const QuerySet kChurnQueries = {
    {Metric::kAverageDegree, Metric::kModularity,
     Metric::kClusteringCoefficient},
    {Metric::kAverageDegree, Metric::kModularity}};
const QuerySet kServeQueries = {kServeMetrics, kServeMetrics};

std::string InputPath(const RunOptions& run, const std::string& name) {
  return run.out_dir + "/" + run.workload + "-" + std::to_string(run.seed) +
         "-" + name;
}

// Cold repetitions of one input across the rounds of a run; with tracing
// on they alternate untraced and traced, for the overhead.  An untimed
// warm-up repetition comes first; its engine is kept as the run's
// long-lived engine.
class ColdSamples {
 public:
  ColdSamples(const InputFile& input, const QuerySet& queries,
              const Oracle& oracle, const RunOptions& run)
      : input_(input), queries_(queries), oracle_(oracle), run_(run) {}

  // false if the input could not be loaded.
  bool WarmUp(Outcome& outcome) {
    Tracer::Enable(false);
    double seconds = 0;
    kept_ = ColdQuery(input_, queries_, run_, outcome, &seconds);
    Tracer::Enable(run_.trace);
    if (kept_ == nullptr) return false;
    CheckEngine(*kept_, oracle_, queries_, /*full=*/true, outcome);
    return true;
  }

  // `count` timed repetitions; false if the input could not be loaded.
  bool Run(std::uint32_t count, Outcome& outcome) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const bool trace_this = run_.trace && reps_ % 2 == 1;
      ++reps_;
      Tracer::Enable(trace_this);
      double seconds = 0;
      last_.reset();  // freed before the next engine is built
      last_ = ColdQuery(input_, queries_, run_, outcome, &seconds);
      Tracer::Enable(run_.trace);
      if (last_ == nullptr) return false;
      (trace_this ? traced_ : plain_).push_back(seconds);
      CheckEngine(*last_, oracle_, queries_, /*full=*/false, outcome);
    }
    return true;
  }

  // The long-lived engine, and the engine of the latest repetition (every
  // answer of the workload cached).
  CoreEngine& kept() { return *kept_; }
  CoreEngine& last() { return *last_; }

  void Report(MetricSink& sink) const {
    sink.Set("cold_query_s", Lowest(plain_), "s");
    LogSpread(run_.workload + " cold_query_s", plain_);
    if (run_.trace) {
      sink.Set("trace.overhead_s", Lowest(traced_) - Lowest(plain_), "s");
    }
  }

 private:
  const InputFile& input_;
  const QuerySet& queries_;
  const Oracle& oracle_;
  const RunOptions& run_;
  std::vector<double> plain_;
  std::vector<double> traced_;
  int reps_ = 0;
  std::unique_ptr<CoreEngine> kept_;
  std::unique_ptr<CoreEngine> last_;
};

// Update rounds on the long-lived engine, spread over the run.  Each round
// applies the run's update cycle: its answers in the middle are checked
// against the oracle of the updated edge set, and at the end the engine,
// back at the input's edge set, is checked in full against `oracle`.
class Updates {
 public:
  Updates(const EdgeSet& initial, const Oracle& oracle,
          const QuerySet& queries, const Plan& plan, const RunOptions& run)
      : initial_(initial),
        oracle_(oracle),
        queries_(queries),
        run_(run),
        cycle_(DrawCycle(initial, oracle.coreness(), run.seed * 7919 + 17,
                         plan.batches, plan.per_side)),
        middle_(cycle_.middle, oracle.with_triangles()) {}

  // One untimed round (the first batch adopts the dynamic index).
  void WarmUp(CoreEngine& engine, Outcome& outcome) {
    ChurnTimes warm;
    ChurnRounds(engine, cycle_, middle_, 1, queries_, outcome, warm);
    times_.inserted += warm.inserted;
    times_.deleted += warm.deleted;
  }

  void Run(CoreEngine& engine, std::uint32_t rounds, Outcome& outcome) {
    ChurnRounds(engine, cycle_, middle_, rounds, queries_, outcome, times_);
  }

  const ChurnTimes& times() const { return times_; }

  void Finish(CoreEngine& engine, Outcome& outcome, MetricSink& sink) {
    const std::uint64_t expected_m =
        initial_.edges.size() + times_.inserted - times_.deleted;
    if (engine.graph().NumEdges() != expected_m ||
        expected_m != initial_.edges.size()) {
      outcome.Mismatch("edge conservation: engine has " +
                       std::to_string(engine.graph().NumEdges()) +
                       " edges, m0 + inserted - deleted = " +
                       std::to_string(expected_m));
    }
    CheckEngine(engine, oracle_, queries_, /*full=*/true, outcome);
    // Call i of every round does the same work: the mean over the calls of
    // the cycle of each call's fastest time.
    const std::size_t calls = 2 * cycle_.forward.size();
    std::vector<double> fastest(calls, 0.0);
    for (std::size_t i = 0; i < times_.batch_s.size(); ++i) {
      double& best = fastest[i % calls];
      best = i < calls ? times_.batch_s[i] : std::min(best, times_.batch_s[i]);
    }
    double total = 0;
    for (const double seconds : fastest) total += seconds;
    sink.Set("batch_ms", total / static_cast<double>(calls) * 1e3, "ms");
    LogSpread(run_.workload + " fastest_call_s", fastest);
    sink.Set("requery_ms", Lowest(times_.requery_s) * 1e3, "ms");
    LogSpread(run_.workload + " requery_s", times_.requery_s);
    if (run_.trace) ProbeLayers(engine, oracle_, outcome, sink);
  }

 private:
  const EdgeSet& initial_;
  const Oracle& oracle_;
  const QuerySet& queries_;
  const RunOptions& run_;
  const UpdateCycle cycle_;
  const Oracle middle_;
  ChurnTimes times_;
};

// Per-round median latencies and throughputs, in seconds and 1/s.
void FinishLatency(const std::vector<double>& round_latency,
                   const std::vector<double>& round_qps, MetricSink& sink) {
  sink.Set("latency_p50_us", Lowest(round_latency) * 1e6, "us");
  sink.Set("qps", Highest(round_qps), "1/s");
}

}  // namespace

void RunBestk(const RunOptions& run, bool triangles, Clock::time_point t0,
              Outcome& outcome, MetricSink& sink) {
  const EdgeSet set =
      triangles ? MakeRmat(kTriangleScale, kTriangleEdgeFactor, run.seed)
                : MakeErdosRenyi(kTextVertices, kTextEdges, run.seed);
  const InputFile input{InputPath(run, triangles ? "rmat.ckg" : "er.txt"),
                        triangles};
  if (triangles) {
    WriteCkg(set, input.path);
  } else {
    WriteTextEdgeList(set, input.path);
  }
  sink.Set("setup_s", SecondsSince(t0), "s");

  const Plan& plan = triangles ? kTrianglePlan : kTextPlan;
  const QuerySet& queries = triangles ? kTriangleQueries : kTextQueries;
  const Oracle oracle(set, triangles);
  ColdSamples cold(input, queries, oracle, run);
  Updates updates(set, oracle, queries, plan, run);
  if (!cold.WarmUp(outcome)) return;
  updates.WarmUp(cold.kept(), outcome);
  std::vector<double> round_latency;
  std::vector<double> round_qps;
  for (std::uint32_t round = 0, rounds = Rounds(plan, run); round < rounds;
       ++round) {
    if (!cold.Run(plan.cold_reps, outcome)) return;
    std::vector<double> latencies;
    const Clock::time_point replay_start = Clock::now();
    const std::uint64_t answered = WarmReplay(
        cold.last(), queries, plan.phase_seconds, outcome, latencies);
    round_qps.push_back(static_cast<double>(answered) /
                        SecondsSince(replay_start));
    round_latency.push_back(Median(latencies));
    updates.Run(cold.kept(), plan.update_rounds, outcome);
  }
  cold.Report(sink);
  FinishLatency(round_latency, round_qps, sink);
  updates.Finish(cold.kept(), outcome, sink);
  if (run.trace) {
    SpanMetrics(updates.times(), FileBytes(input.path), sink);
    ProbeService(cold.kept(), run, outcome, sink);
  }
  std::remove(input.path.c_str());
}

void RunChurn(const RunOptions& run, Clock::time_point t0, Outcome& outcome,
              MetricSink& sink) {
  const EdgeSet set =
      MakeChungLu(kChurnVertices, kChurnEdges, kPowerLaw, run.seed);
  const InputFile input{InputPath(run, "chunglu.txt"), false};
  WriteTextEdgeList(set, input.path);
  sink.Set("setup_s", SecondsSince(t0), "s");

  const Oracle oracle(set, true);
  ColdSamples cold(input, kChurnQueries, oracle, run);
  Updates updates(set, oracle, kChurnQueries, kChurnPlan, run);
  if (!cold.WarmUp(outcome)) return;
  updates.WarmUp(cold.kept(), outcome);
  for (std::uint32_t round = 0, rounds = Rounds(kChurnPlan, run);
       round < rounds; ++round) {
    if (!cold.Run(kChurnPlan.cold_reps, outcome)) return;
    updates.Run(cold.kept(), kChurnPlan.update_rounds, outcome);
  }
  cold.Report(sink);
  const ChurnTimes& times = updates.times();
  FinishLatency(times.round_query_s, times.round_qps, sink);
  updates.Finish(cold.kept(), outcome, sink);
  if (run.trace) {
    SpanMetrics(times, FileBytes(input.path), sink);
    ProbeService(cold.kept(), run, outcome, sink);
  }
  std::remove(input.path.c_str());
}

namespace {

// Precomputed answers of one serving tenant, so checking a response costs
// O(1) on the client thread.
struct Expected {
  const Oracle* oracle = nullptr;
  std::vector<double> core_set_best;            // by metric index
  std::vector<double> single_best;
  std::vector<std::vector<bool>> single_at_k;   // k attains single_best

  explicit Expected(const Oracle& o) : oracle(&o) {
    for (const Metric metric : kServeMetrics) {
      core_set_best.push_back(o.BestCoreSetScore(metric));
      const double best = o.BestSingleCoreScore(metric);
      single_best.push_back(best);
      std::vector<bool> at(o.kmax() + 1, false);
      for (const ConnectedCore& core : o.connected_cores()) {
        if (std::string why = o.CheckSingleCore(metric, core.k, best, nullptr);
            why.empty()) {
          at[core.k] = true;
        }
      }
      single_at_k.push_back(std::move(at));
    }
  }
};

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::size_t MetricIndex(Metric metric) {
  return static_cast<std::size_t>(
      std::find(kServeMetrics.begin(), kServeMetrics.end(), metric) -
      kServeMetrics.begin());
}

// "" if `response` is the right answer to `request`.
std::string CheckResponse(const corekit::server::Request& request,
                          const corekit::server::Response& response,
                          const Expected& expected) {
  using corekit::server::Opcode;
  const Oracle& o = *expected.oracle;
  if (response.status != corekit::server::WireError::kOk) {
    return std::string("error response ") +
           corekit::server::WireErrorName(response.status);
  }
  switch (request.opcode) {
    case Opcode::kGraphInfo:
      if (response.num_vertices != o.n() || response.num_edges != o.m()) {
        return "GraphInfo n/m";
      }
      return "";
    case Opcode::kCoreness:
      if (response.coreness != o.coreness()[request.vertex] ||
          response.kmax != o.kmax()) {
        return "Coreness of " + std::to_string(request.vertex);
      }
      return "";
    case Opcode::kBestCoreSet: {
      const std::size_t i = MetricIndex(request.metric);
      const double best = expected.core_set_best[i];
      if (response.best_k > o.kmax() || response.num_scores != o.kmax() + 1u ||
          !Near(response.best_score, best) ||
          !Near(Score(request.metric, o.core_sets()[response.best_k], o.n(),
                      o.m()),
                best)) {
        return std::string("BestCoreSet ") +
               corekit::MetricShortName(request.metric);
      }
      return "";
    }
    case Opcode::kBestSingleCore: {
      const std::size_t i = MetricIndex(request.metric);
      if (response.best_k > o.kmax() ||
          !Near(response.best_score, expected.single_best[i]) ||
          !expected.single_at_k[i][response.best_k]) {
        return std::string("BestSingleCore ") +
               corekit::MetricShortName(request.metric);
      }
      return "";
    }
    default:
      return "unexpected opcode";
  }
}

corekit::server::Request DrawRequest(Rng& rng, const std::string& tenant,
                                     std::uint32_t n) {
  using corekit::server::Opcode;
  corekit::server::Request request;
  request.graph = tenant;
  switch (rng.Below(4)) {
    case 0: request.opcode = Opcode::kGraphInfo; break;
    case 1:
      request.opcode = Opcode::kCoreness;
      request.vertex = rng.Below(n);
      break;
    case 2: request.opcode = Opcode::kBestCoreSet; break;
    default: request.opcode = Opcode::kBestSingleCore;
  }
  request.metric =
      kServeMetrics[rng.Below(static_cast<std::uint32_t>(kServeMetrics.size()))];
  return request;
}

corekit::Graph LoadTenant(const std::string& path, const RunOptions& run) {
  corekit::ThreadPool pool(run.threads);
  corekit::Result<corekit::Graph> graph =
      corekit::ReadSnapEdgeListParallel(path, pool);
  if (!graph.ok()) throw std::runtime_error(graph.status().ToString());
  return std::move(*graph);
}

constexpr int kClients = 2;
const std::string kTenants[2] = {"a", "b"};

// The closed loop: two connections, one request in flight each, for
// `seconds`.  Appends client-side latencies and counts every request.
class ClosedLoop {
 public:
  ClosedLoop(std::uint16_t port, const RunOptions& run,
             const std::uint32_t (&sizes)[2], const Expected (&expected)[2])
      : port_(port), sizes_(sizes), expected_(expected) {
    for (int c = 0; c < kClients; ++c) {
      rngs_.emplace_back(run.seed * 1000003 + static_cast<std::uint64_t>(c));
    }
  }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  void Segment(double seconds) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::size_t first[kClients];
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      first[c] = latencies_[c].size();
      clients.emplace_back([this, c, deadline] { Client(c, deadline); });
    }
    for (std::thread& thread : clients) thread.join();
    const double elapsed = SecondsSince(start);
    std::vector<double> segment;
    for (int c = 0; c < kClients; ++c) {
      segment.insert(segment.end(),
                     latencies_[c].begin() +
                         static_cast<std::ptrdiff_t>(first[c]),
                     latencies_[c].end());
    }
    round_qps_.push_back(static_cast<double>(segment.size()) / elapsed);
    round_latency_.push_back(Median(segment));
  }

  void Finish(Outcome& outcome, MetricSink& sink) {
    for (corekit::server::WireClient& client : clients_) client.Close();
    std::vector<double> all;
    for (int c = 0; c < kClients; ++c) {
      all.insert(all.end(), latencies_[c].begin(), latencies_[c].end());
      outcome.attempted += latencies_[c].size() + failed_[c];
      outcome.failed += failed_[c];
      if (!mismatch_[c].empty()) outcome.Mismatch(mismatch_[c]);
    }
    FinishLatency(round_latency_, round_qps_, sink);
    std::sort(all.begin(), all.end());
    if (!all.empty()) {
      std::fprintf(stderr, "serve: latency_p99_us %.3f over %zu requests\n",
                   all[all.size() * 99 / 100] * 1e6, all.size());
    }
  }

 private:
  // Each client keeps its connection across segments, so the server's
  // connection threads idle between them.
  void Client(int c, Clock::time_point deadline) {
    corekit::server::WireClient& client = clients_[c];
    if (!connected_[c]) {
      if (!client.Connect("127.0.0.1", port_).ok()) {
        ++failed_[c];
        return;
      }
      connected_[c] = true;
    }
    Rng& rng = rngs_[static_cast<std::size_t>(c)];
    while (Clock::now() < deadline) {
      const int t = static_cast<int>(rng.Below(2));
      corekit::server::Request request =
          DrawRequest(rng, kTenants[t], sizes_[t]);
      request.request_id = ++ids_[c];
      Span span("server.request");
      corekit::Result<corekit::server::Response> response =
          client.Call(request);
      const double seconds = span.Stop();
      if (!response.ok()) {
        ++failed_[c];
        continue;
      }
      latencies_[c].push_back(seconds);
      if (std::string why = CheckResponse(request, *response, expected_[t]);
          !why.empty() && mismatch_[c].empty()) {
        mismatch_[c] = why;
      }
    }
  }

  const std::uint16_t port_;
  const std::uint32_t (&sizes_)[2];
  const Expected (&expected_)[2];
  std::vector<Rng> rngs_;
  corekit::server::WireClient clients_[kClients];
  bool connected_[kClients] = {false, false};
  std::uint64_t ids_[kClients] = {0, 0};
  std::vector<double> latencies_[kClients];
  std::uint64_t failed_[kClients] = {0, 0};
  std::string mismatch_[kClients];
  std::vector<double> round_latency_;  // median of each segment
  std::vector<double> round_qps_;      // answered per second of each segment
};

}  // namespace

void RunServe(const RunOptions& run, Clock::time_point t0, Outcome& outcome,
              MetricSink& sink) {
  using corekit::server::Opcode;
  const EdgeSet tenant_a =
      MakeChungLu(kTenantAVertices, kTenantAEdges, kPowerLaw, run.seed);
  const EdgeSet tenant_b =
      MakeErdosRenyi(kTenantBVertices, kTenantBEdges, run.seed + 1);
  const InputFile input_a{InputPath(run, "a.txt"), false};
  const std::string path_b = InputPath(run, "b.txt");
  WriteTextEdgeList(tenant_a, input_a.path);
  WriteTextEdgeList(tenant_b, path_b);

  corekit::EngineRegistryOptions registry_options;
  registry_options.engine_options = PinnedOptions(run);
  corekit::EngineRegistry registry(registry_options);
  const std::uint32_t sizes[2] = {tenant_a.n, tenant_b.n};
  for (int t = 0; t < 2; ++t) {
    const corekit::Status added = registry.AddGraph(
        kTenants[t], LoadTenant(t == 0 ? input_a.path : path_b, run));
    if (!added.ok()) throw std::runtime_error(added.ToString());
  }
  corekit::server::EngineService service(registry);
  corekit::server::TcpServerOptions server_options;
  server_options.num_workers = run.threads;
  corekit::server::TcpServer server(service, server_options);
  if (const corekit::Status started = server.Start(); !started.ok()) {
    throw std::runtime_error(started.ToString());
  }
  // Warm-up: every tenant's decomposition and every metric's profiles.
  {
    corekit::server::WireClient client;
    if (!client.Connect("127.0.0.1", server.port()).ok()) {
      throw std::runtime_error("cannot connect to the server");
    }
    for (const std::string& name : kTenants) {
      for (const Opcode op : {Opcode::kGraphInfo, Opcode::kCoreness}) {
        corekit::server::Request request;
        request.opcode = op;
        request.graph = name;
        if (!client.Call(request).ok()) throw std::runtime_error("warm-up");
      }
      for (const Metric metric : kServeMetrics) {
        for (const Opcode op : {Opcode::kBestCoreSet, Opcode::kBestSingleCore}) {
          corekit::server::Request request;
          request.opcode = op;
          request.graph = name;
          request.metric = metric;
          if (!client.Call(request).ok()) throw std::runtime_error("warm-up");
        }
      }
    }
  }
  sink.Set("setup_s", SecondsSince(t0), "s");

  const Oracle oracle_a(tenant_a, true);
  const Oracle oracle_b(tenant_b, true);
  const Expected expected[2] = {Expected(oracle_a), Expected(oracle_b)};

  // Each round: a stretch of the closed loop, then (server idle) cold
  // repetitions and update rounds on tenant a's file, in-process.
  ClosedLoop loop(server.port(), run, sizes, expected);
  ColdSamples cold(input_a, kServeQueries, oracle_a, run);
  Updates updates(tenant_a, oracle_a, kServeQueries, kServePlan, run);
  if (!cold.WarmUp(outcome)) return;
  updates.WarmUp(cold.kept(), outcome);
  for (std::uint32_t round = 0, rounds = Rounds(kServePlan, run);
       round < rounds; ++round) {
    loop.Segment(kServePlan.phase_seconds);
    if (!cold.Run(kServePlan.cold_reps, outcome)) return;
    updates.Run(cold.kept(), kServePlan.update_rounds, outcome);
  }
  loop.Finish(outcome, sink);
  cold.Report(sink);

  if (run.trace) {
    // The same mix through EngineService::Handle, no sockets.
    Rng rng(run.seed * 1000003 + 99);
    std::vector<double> direct;
    for (int i = 0; i < 20000; ++i) {
      const int t = static_cast<int>(rng.Below(2));
      corekit::server::Request request = DrawRequest(rng, kTenants[t], sizes[t]);
      ++outcome.attempted;
      Span span("server.direct");
      const corekit::server::Response response = service.Handle(request);
      direct.push_back(span.Stop());
      if (std::string why = CheckResponse(request, response, expected[t]);
          !why.empty()) {
        outcome.Mismatch("direct " + why);
      }
    }
    const corekit::server::TcpServer::Stats tcp = server.stats();
    const corekit::EngineRegistry::Stats reg = registry.stats();
    sink.Set("server.direct_p50_us", Median(direct) * 1e6, "us");
    sink.Set("server.frames_decoded", static_cast<double>(tcp.frames_decoded),
             "count");
    sink.Set("server.busy_rejections",
             static_cast<double>(tcp.busy_rejections), "count");
    sink.Set("server.coalesced",
             static_cast<double>(service.stats().coalesced), "count");
    sink.Set("engine.registry_hits", static_cast<double>(reg.hits), "count");
    sink.Set("engine.registry_evictions", static_cast<double>(reg.evictions),
             "count");
  }
  server.Shutdown();

  updates.Finish(cold.kept(), outcome, sink);
  if (run.trace) SpanMetrics(updates.times(), FileBytes(input_a.path), sink);
  std::remove(input_a.path.c_str());
  std::remove(path_b.c_str());
}

}  // namespace corebench
