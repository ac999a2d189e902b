// Answers computed apart from the program.  Everything here is the
// benchmark's own code over its own copy of the edge set: a plain bucket
// peel for coreness, per-k primary values from coreness histograms, a
// merge-based triangle enumeration labelled by minimum coreness, a
// union-find sweep in descending coreness for the connected k-cores, and
// the paper's metric formulas.  Only corekit::Metric is borrowed, as the
// name of a metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "corekit/core/metrics.h"
#include "inputs.h"

namespace corebench {

// Primary values of one vertex set S (Section II-C of the paper).
struct Primaries {
  std::uint64_t n = 0;     // |S|
  std::uint64_t m = 0;     // internal edges
  std::uint64_t b = 0;     // boundary edges
  std::uint64_t tri = 0;   // triangles inside S
  std::uint64_t trip = 0;  // triplets: sum over v in S of C(d_S(v), 2)
};

// The paper's formulas, with the degenerate-case conventions documented
// for the program's metrics (empty S, n(S) < 2, S = V, zero volume).
double Score(corekit::Metric metric, const Primaries& s, std::uint64_t n,
             std::uint64_t m);

// One connected k-core with a non-empty k-shell part.
struct ConnectedCore {
  std::uint32_t k = 0;
  std::uint32_t vertex = 0;  // a member of its k-shell
  Primaries values;
};

class Oracle {
 public:
  // `with_triangles` enables the O(m^1.5) triangle enumeration (needed for
  // the clustering coefficient only).
  Oracle(const EdgeSet& set, bool with_triangles);

  std::uint64_t n() const { return n_; }
  std::uint64_t m() const { return m_; }
  std::uint32_t kmax() const { return kmax_; }
  bool with_triangles() const { return with_triangles_; }
  std::uint64_t triangles() const { return triangles_; }
  const std::vector<std::uint32_t>& coreness() const { return coreness_; }
  // core_sets()[k] = primary values of the k-core set C_k, k in [0, kmax].
  const std::vector<Primaries>& core_sets() const { return core_sets_; }
  const std::vector<ConnectedCore>& connected_cores() const {
    return connected_;
  }

  // max_k Q(C_k) and max over connected k-cores of Q.
  double BestCoreSetScore(corekit::Metric metric) const;
  double BestSingleCoreScore(corekit::Metric metric) const;

  // "" when the answer is right, else what is wrong.
  std::string CheckCoreness(const std::vector<std::uint32_t>& coreness) const;
  // `scores` (optional) is the program's whole profile, k in [0, kmax].
  std::string CheckCoreSet(corekit::Metric metric, std::uint32_t best_k,
                           double best_score,
                           const std::vector<double>* scores) const;
  // `vertices` (optional) is the program's best core; it must be a
  // connected, maximal best_k-core whose recomputed score is best_score.
  std::string CheckSingleCore(corekit::Metric metric, std::uint32_t best_k,
                              double best_score,
                              const std::vector<std::uint32_t>* vertices) const;

 private:
  void Peel();
  void CountCoreSets();
  void SweepConnectedCores();
  Primaries ValuesOf(const std::vector<std::uint32_t>& vertices) const;

  std::uint64_t n_ = 0;
  std::uint64_t m_ = 0;
  bool with_triangles_ = false;
  std::vector<std::uint64_t> offsets_;  // CSR, sorted adjacency
  std::vector<std::uint32_t> adj_;
  // Edges oriented from lower to higher (degree, id), sorted by id;
  // built only with triangles.
  std::vector<std::uint64_t> fwd_off_;
  std::vector<std::uint32_t> fwd_;
  std::vector<std::uint32_t> coreness_;
  std::uint32_t kmax_ = 0;
  std::uint64_t triangles_ = 0;
  // Triangles credited to the vertex the sweep adds last (lowest
  // coreness, then highest id).
  std::vector<std::uint32_t> triangles_closed_at_;
  std::vector<Primaries> core_sets_;
  std::vector<ConnectedCore> connected_;
};

// Runs the oracle on hand-solved graphs and shows that an answer off by
// one k is refused.  Returns "" on success.
std::string OracleSelfTest();

}  // namespace corebench
