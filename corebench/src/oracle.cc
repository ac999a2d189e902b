#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace corebench {
namespace {

using corekit::Metric;

std::uint64_t Choose2(std::uint64_t x) { return x * (x - 1) / 2; }

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string Describe(Metric metric) {
  return corekit::MetricShortName(metric);
}

}  // namespace

double Score(Metric metric, const Primaries& s, std::uint64_t n,
             std::uint64_t m) {
  const double ns = static_cast<double>(s.n);
  const double ms = static_cast<double>(s.m);
  const double bs = static_cast<double>(s.b);
  switch (metric) {
    case Metric::kAverageDegree:
      return s.n == 0 ? 0.0 : 2.0 * ms / ns;
    case Metric::kInternalDensity:
      return s.n < 2 ? 0.0 : 2.0 * ms / (ns * (ns - 1.0));
    case Metric::kCutRatio: {
      const double slots = ns * static_cast<double>(n - s.n);
      return slots == 0.0 ? 1.0 : 1.0 - bs / slots;
    }
    case Metric::kConductance: {
      const double volume = 2.0 * ms + bs;
      return volume == 0.0 ? 1.0 : 1.0 - bs / volume;
    }
    case Metric::kModularity: {
      // Two-block partition {S, V \ S}.
      const double total = static_cast<double>(m);
      if (total == 0.0) return 0.0;
      const double rest = total - ms - bs;
      const double vol_s = (2.0 * ms + bs) / (2.0 * total);
      const double vol_rest = (2.0 * rest + bs) / (2.0 * total);
      return (ms / total - vol_s * vol_s) + (rest / total - vol_rest * vol_rest);
    }
    case Metric::kClusteringCoefficient:
      return s.trip == 0 ? 0.0
                         : 3.0 * static_cast<double>(s.tri) /
                               static_cast<double>(s.trip);
    default:
      return 0.0;
  }
}

Oracle::Oracle(const EdgeSet& set, bool with_triangles)
    : n_(set.n), m_(set.edges.size()), with_triangles_(with_triangles) {
  offsets_.assign(n_ + 1, 0);
  for (const Edge& e : set.edges) {
    ++offsets_[e.first + 1];
    ++offsets_[e.second + 1];
  }
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  adj_.resize(2 * m_);
  std::vector<std::uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& e : set.edges) {
    adj_[fill[e.first]++] = e.second;
    adj_[fill[e.second]++] = e.first;
  }
  for (std::uint64_t v = 0; v < n_; ++v) {
    std::sort(adj_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
              adj_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]));
  }
  Peel();
  CountCoreSets();
  SweepConnectedCores();
}

// Bucket peel: repeatedly remove a vertex of minimum remaining degree.
void Oracle::Peel() {
  std::vector<std::uint32_t> degree(n_);
  std::uint32_t max_degree = 0;
  for (std::uint64_t v = 0; v < n_; ++v) {
    degree[v] = static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<std::vector<std::uint32_t>> buckets(max_degree + 1);
  for (std::uint64_t v = 0; v < n_; ++v) {
    buckets[degree[v]].push_back(static_cast<std::uint32_t>(v));
  }
  std::vector<bool> removed(n_, false);
  coreness_.assign(n_, 0);
  std::uint32_t level = 0;
  std::uint64_t done = 0;
  std::uint32_t d = 0;
  while (done < n_) {
    while (buckets[d].empty()) ++d;
    const std::uint32_t v = buckets[d].back();
    buckets[d].pop_back();
    if (removed[v] || degree[v] != d) continue;  // stale entry
    removed[v] = true;
    ++done;
    level = std::max(level, d);
    coreness_[v] = level;
    for (std::uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const std::uint32_t u = adj_[i];
      if (removed[u] || degree[u] == 0) continue;
      --degree[u];
      buckets[degree[u]].push_back(u);
      if (degree[u] < d) d = degree[u];
    }
  }
  kmax_ = level;
}

void Oracle::CountCoreSets() {
  core_sets_.assign(kmax_ + 1, Primaries{});
  // n, volume and internal edges of C_k from histograms by coreness and
  // by the smaller coreness of each edge; suffix sums give every k.
  std::vector<std::uint64_t> vertices(kmax_ + 2, 0);
  std::vector<std::uint64_t> volume(kmax_ + 2, 0);
  std::vector<std::uint64_t> edges(kmax_ + 2, 0);
  std::vector<std::uint64_t> tri(kmax_ + 2, 0);
  std::vector<std::uint64_t> trip(kmax_ + 2, 0);
  std::vector<std::uint64_t> at_least(kmax_ + 2, 0);  // per-vertex scratch
  for (std::uint64_t v = 0; v < n_; ++v) {
    const std::uint32_t cv = coreness_[v];
    ++vertices[cv];
    volume[cv] += offsets_[v + 1] - offsets_[v];
    // d_k(v) = neighbors of coreness >= k, for every k <= c(v).
    std::fill(at_least.begin(), at_least.begin() + cv + 2, 0);
    for (std::uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const std::uint32_t u = adj_[i];
      const std::uint32_t cu = coreness_[u];
      ++at_least[std::min(cu, cv)];
      if (u > v) ++edges[std::min(cu, cv)];
    }
    std::uint64_t d = 0;
    for (std::uint32_t k = cv + 1; k-- > 0;) {
      d += at_least[k];
      trip[k] += d >= 2 ? Choose2(d) : 0;
    }
  }
  triangles_closed_at_.assign(n_, 0);
  if (with_triangles_) {
    // Orient each edge from lower to higher (degree, id); every triangle is
    // found once as the intersection of two forward lists.
    auto rank_less = [&](std::uint32_t a, std::uint32_t b) {
      const std::uint64_t da = offsets_[a + 1] - offsets_[a];
      const std::uint64_t db = offsets_[b + 1] - offsets_[b];
      return da != db ? da < db : a < b;
    };
    fwd_off_.assign(n_ + 1, 0);
    fwd_.reserve(m_);
    for (std::uint64_t v = 0; v < n_; ++v) {
      for (std::uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
        if (rank_less(static_cast<std::uint32_t>(v), adj_[i])) {
          fwd_.push_back(adj_[i]);
        }
      }
      fwd_off_[v + 1] = fwd_.size();
    }
    // Sweep order: descending coreness, ascending id; a triangle closes at
    // its member added last.
    auto added_later = [&](std::uint32_t a, std::uint32_t b) {
      return coreness_[a] != coreness_[b] ? coreness_[a] < coreness_[b]
                                          : a > b;
    };
    for (std::uint64_t u = 0; u < n_; ++u) {
      for (std::uint64_t i = fwd_off_[u]; i < fwd_off_[u + 1]; ++i) {
        const std::uint32_t v = fwd_[i];
        std::uint64_t a = fwd_off_[u];
        std::uint64_t b = fwd_off_[v];
        while (a < fwd_off_[u + 1] && b < fwd_off_[v + 1]) {
          if (fwd_[a] < fwd_[b]) {
            ++a;
          } else if (fwd_[b] < fwd_[a]) {
            ++b;
          } else {
            const std::uint32_t w = fwd_[a];
            const std::uint32_t uu = static_cast<std::uint32_t>(u);
            ++tri[std::min({coreness_[uu], coreness_[v], coreness_[w]})];
            std::uint32_t last = uu;
            if (added_later(v, last)) last = v;
            if (added_later(w, last)) last = w;
            ++triangles_closed_at_[last];
            ++triangles_;
            ++a;
            ++b;
          }
        }
      }
    }
  }
  Primaries suffix;
  std::uint64_t vol = 0;
  for (std::uint32_t k = kmax_ + 1; k-- > 0;) {
    suffix.n += vertices[k];
    suffix.m += edges[k];
    vol += volume[k];
    suffix.tri += tri[k];
    suffix.b = vol - 2 * suffix.m;
    suffix.trip = trip[k];
    core_sets_[k] = suffix;
  }
}

// Adds vertices in descending coreness (ascending id within a level) and
// unions each with its already-added neighbours; after level k every
// component holding a level-k vertex is one connected k-core.
void Oracle::SweepConnectedCores() {
  std::vector<std::uint32_t> order(n_);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return coreness_[a] > coreness_[b];
                   });
  std::vector<std::uint32_t> parent(n_);
  std::iota(parent.begin(), parent.end(), 0u);
  std::vector<Primaries> comp(n_);
  std::vector<std::uint64_t> vol(n_, 0);
  std::vector<std::uint32_t> inner_degree(n_, 0);
  std::vector<bool> added(n_, false);
  std::vector<std::uint32_t> stamp(n_, UINT32_MAX);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::size_t pos = 0;
  while (pos < order.size()) {
    const std::uint32_t k = coreness_[order[pos]];
    std::size_t end = pos;
    while (end < order.size() && coreness_[order[end]] == k) ++end;
    for (std::size_t i = pos; i < end; ++i) {
      const std::uint32_t v = order[i];
      added[v] = true;
      comp[v].n = 1;
      vol[v] = offsets_[v + 1] - offsets_[v];
      for (std::uint64_t j = offsets_[v]; j < offsets_[v + 1]; ++j) {
        const std::uint32_t u = adj_[j];
        if (!added[u] || u == v) continue;
        const std::uint64_t new_triplets = inner_degree[u] + inner_degree[v];
        ++inner_degree[u];
        ++inner_degree[v];
        std::uint32_t ru = find(u);
        std::uint32_t rv = find(v);
        if (ru != rv) {
          if (comp[ru].n < comp[rv].n) std::swap(ru, rv);
          parent[rv] = ru;
          comp[ru].n += comp[rv].n;
          comp[ru].m += comp[rv].m;
          comp[ru].tri += comp[rv].tri;
          comp[ru].trip += comp[rv].trip;
          vol[ru] += vol[rv];
        }
        comp[ru].m += 1;
        comp[ru].trip += new_triplets;
      }
      comp[find(v)].tri += triangles_closed_at_[v];
    }
    for (std::size_t i = pos; i < end; ++i) {
      const std::uint32_t root = find(order[i]);
      if (stamp[root] == k) continue;
      stamp[root] = k;
      Primaries values = comp[root];
      values.b = vol[root] - 2 * values.m;
      connected_.push_back(ConnectedCore{k, order[i], values});
    }
    pos = end;
  }
}

Primaries Oracle::ValuesOf(const std::vector<std::uint32_t>& vertices) const {
  std::vector<bool> in(n_, false);
  for (const std::uint32_t v : vertices) in[v] = true;
  Primaries values;
  values.n = vertices.size();
  std::uint64_t volume = 0;
  for (const std::uint32_t v : vertices) {
    volume += offsets_[v + 1] - offsets_[v];
    std::uint64_t d = 0;
    for (std::uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      if (in[adj_[i]]) ++d;
    }
    values.m += d;
    values.trip += d >= 2 ? Choose2(d) : 0;
    if (!with_triangles_) continue;
    // Triangles of S through the forward lists: once each.
    for (std::uint64_t i = fwd_off_[v]; i < fwd_off_[v + 1]; ++i) {
      const std::uint32_t u = fwd_[i];
      if (!in[u]) continue;
      std::uint64_t a = fwd_off_[v];
      std::uint64_t b = fwd_off_[u];
      while (a < fwd_off_[v + 1] && b < fwd_off_[u + 1]) {
        if (fwd_[a] < fwd_[b]) {
          ++a;
        } else if (fwd_[b] < fwd_[a]) {
          ++b;
        } else {
          if (in[fwd_[a]]) ++values.tri;
          ++a;
          ++b;
        }
      }
    }
  }
  values.m /= 2;
  values.b = volume - 2 * values.m;
  return values;
}

double Oracle::BestCoreSetScore(Metric metric) const {
  double best = -INFINITY;
  for (const Primaries& values : core_sets_) {
    best = std::max(best, Score(metric, values, n_, m_));
  }
  return best;
}

double Oracle::BestSingleCoreScore(Metric metric) const {
  double best = -INFINITY;
  for (const ConnectedCore& core : connected_) {
    best = std::max(best, Score(metric, core.values, n_, m_));
  }
  return best;
}

std::string Oracle::CheckCoreness(
    const std::vector<std::uint32_t>& coreness) const {
  if (coreness.size() != n_) {
    return "coreness has " + std::to_string(coreness.size()) +
           " vertices, expected " + std::to_string(n_);
  }
  for (std::uint64_t v = 0; v < n_; ++v) {
    if (coreness[v] != coreness_[v]) {
      return "coreness of vertex " + std::to_string(v) + " is " +
             std::to_string(coreness[v]) + ", expected " +
             std::to_string(coreness_[v]);
    }
  }
  return "";
}

std::string Oracle::CheckCoreSet(Metric metric, std::uint32_t best_k,
                                 double best_score,
                                 const std::vector<double>* scores) const {
  std::ostringstream why;
  const double best = BestCoreSetScore(metric);
  if (best_k > kmax_) {
    why << Describe(metric) << " core set: best_k " << best_k << " > kmax "
        << kmax_;
    return why.str();
  }
  const double attained = Score(metric, core_sets_[best_k], n_, m_);
  if (!Close(attained, best) || !Close(best_score, best)) {
    why << Describe(metric) << " core set: best_k " << best_k << " scores "
        << attained << " (reported " << best_score << "), maximum is "
        << best;
    return why.str();
  }
  if (scores != nullptr) {
    if (scores->size() != core_sets_.size()) {
      why << Describe(metric) << " core set: " << scores->size()
          << " scores, expected " << core_sets_.size();
      return why.str();
    }
    for (std::size_t k = 0; k < scores->size(); ++k) {
      const double expected = Score(metric, core_sets_[k], n_, m_);
      if (!Close((*scores)[k], expected)) {
        why << Describe(metric) << " core set: score of C_" << k << " is "
            << (*scores)[k] << ", expected " << expected;
        return why.str();
      }
    }
  }
  return "";
}

std::string Oracle::CheckSingleCore(
    Metric metric, std::uint32_t best_k, double best_score,
    const std::vector<std::uint32_t>* vertices) const {
  std::ostringstream why;
  const double best = BestSingleCoreScore(metric);
  if (!Close(best_score, best)) {
    why << Describe(metric) << " single core: reported " << best_score
        << ", maximum over connected k-cores is " << best;
    return why.str();
  }
  bool attained = false;
  for (const ConnectedCore& core : connected_) {
    if (core.k == best_k && Close(Score(metric, core.values, n_, m_), best)) {
      attained = true;
    }
  }
  if (!attained) {
    why << Describe(metric) << " single core: no connected " << best_k
        << "-core scores " << best;
    return why.str();
  }
  if (vertices == nullptr) return "";
  if (vertices->empty()) return Describe(metric) + " single core: empty";
  // Connected and maximal: a search from one member over coreness >= k
  // must reach exactly the reported vertices.
  std::vector<bool> seen(n_, false);
  std::vector<std::uint32_t> stack{vertices->front()};
  seen[vertices->front()] = true;
  std::uint64_t reached = 0;
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    ++reached;
    if (coreness_[v] < best_k) {
      return Describe(metric) + " single core: holds a vertex of coreness " +
             std::to_string(coreness_[v]) + " < " + std::to_string(best_k);
    }
    for (std::uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const std::uint32_t u = adj_[i];
      if (!seen[u] && coreness_[u] >= best_k) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  for (const std::uint32_t v : *vertices) {
    if (v >= n_ || !seen[v]) {
      return Describe(metric) +
             " single core: not one connected k-core (vertex " +
             std::to_string(v) + ")";
    }
  }
  if (reached != vertices->size()) {
    why << Describe(metric) << " single core: " << vertices->size()
        << " vertices, the maximal connected " << best_k << "-core has "
        << reached;
    return why.str();
  }
  const double recomputed = Score(metric, ValuesOf(*vertices), n_, m_);
  if (!Close(recomputed, best_score)) {
    why << Describe(metric) << " single core: recomputed score " << recomputed
        << ", reported " << best_score;
    return why.str();
  }
  return "";
}

std::string OracleSelfTest() {
  auto make = [](std::uint32_t n, Edges edges) {
    EdgeSet set;
    set.n = n;
    set.edges = std::move(edges);
    return set;
  };
  Edges clique;
  for (std::uint32_t u = 0; u < 5; ++u) {
    for (std::uint32_t v = u + 1; v < 5; ++v) clique.emplace_back(u, v);
  }
  Edges bridge;  // two K4 {0..3}, {4..7} joined by 3-4
  for (std::uint32_t base : {0u, 4u}) {
    for (std::uint32_t u = 0; u < 4; ++u) {
      for (std::uint32_t v = u + 1; v < 4; ++v) {
        bridge.emplace_back(base + u, base + v);
      }
    }
  }
  bridge.emplace_back(3, 4);
  const Oracle k5(make(5, clique), true);
  const Oracle path(make(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}), true);
  const Oracle twin(make(8, bridge), true);
  // Hand-solved: K5 is a 4-core with 10 edges, 10 triangles, 30 triplets.
  const Primaries& k5c = k5.core_sets()[4];
  if (k5.kmax() != 4 || k5c.n != 5 || k5c.m != 10 || k5c.tri != 10 ||
      k5c.trip != 30 || k5.connected_cores().size() != 1) {
    return "self-test: K5";
  }
  // P5: 1-core, 4 edges, 3 triplets, no triangles, average degree 1.6.
  if (path.kmax() != 1 || path.core_sets()[1].m != 4 ||
      path.core_sets()[1].trip != 3 || path.triangles() != 0 ||
      !Close(path.BestCoreSetScore(Metric::kAverageDegree), 1.6)) {
    return "self-test: P5";
  }
  // Two K4 and a bridge: one connected 3-core of 8 vertices, 13 edges,
  // 8 triangles, 6*3 + 2*6 = 30 triplets, clustering 24/30.
  const Primaries& tw = twin.core_sets()[3];
  if (twin.kmax() != 3 || tw.n != 8 || tw.m != 13 || tw.tri != 8 ||
      tw.trip != 30 || twin.connected_cores().size() != 1 ||
      !Close(twin.BestSingleCoreScore(Metric::kClusteringCoefficient), 0.8)) {
    return "self-test: two K4 and a bridge";
  }
  // K4 {0..3} + triangle {4,5,6} + edge 3-4: C_3 (ad 3) beats C_2 (20/7).
  Edges staircase = {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
                     {4, 5}, {4, 6}, {5, 6}, {3, 4}};
  const Oracle stairs(make(7, staircase), true);
  const Metric ad = Metric::kAverageDegree;
  if (stairs.kmax() != 3 || !stairs.CheckCoreSet(ad, 3, 3.0, nullptr).empty() ||
      stairs.CheckCoreSet(ad, 2, 3.0, nullptr).empty() ||
      stairs.CheckCoreSet(ad, 2, 20.0 / 7.0, nullptr).empty()) {
    return "self-test: an answer off by one k was not refused (core set)";
  }
  const std::vector<std::uint32_t> k4 = {0, 1, 2, 3};
  const std::vector<std::uint32_t> all = {0, 1, 2, 3, 4, 5, 6};
  if (!stairs.CheckSingleCore(ad, 3, 3.0, &k4).empty() ||
      stairs.CheckSingleCore(ad, 2, 3.0, &all).empty() ||
      stairs.CheckSingleCore(ad, 2, 20.0 / 7.0, &all).empty()) {
    return "self-test: an answer off by one k was not refused (single core)";
  }
  std::vector<std::uint32_t> wrong = stairs.coreness();
  wrong[4] += 1;
  if (stairs.CheckCoreness(wrong).empty()) {
    return "self-test: wrong coreness was not refused";
  }
  return "";
}

}  // namespace corebench
