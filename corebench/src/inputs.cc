#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <sys/stat.h>

#include "corekit/graph/ckg_format.h"
#include "corekit/graph/graph_builder.h"

namespace corebench {
namespace {

// Drops self-loops and duplicates, then relabels vertices in order of
// first appearance so the ids match what the program's reader assigns.
EdgeSet Canonicalize(Edges raw) {
  for (Edge& e : raw) {
    if (e.first > e.second) std::swap(e.first, e.second);
  }
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
  raw.erase(std::remove_if(raw.begin(), raw.end(),
                           [](const Edge& e) { return e.first == e.second; }),
            raw.end());
  std::uint32_t max_id = 0;
  for (const Edge& e : raw) max_id = std::max(max_id, e.second);
  std::vector<std::uint32_t> label(raw.empty() ? 0 : max_id + 1, UINT32_MAX);
  EdgeSet set;
  auto relabel = [&](std::uint32_t v) {
    if (label[v] == UINT32_MAX) label[v] = set.n++;
    return label[v];
  };
  set.edges.reserve(raw.size());
  for (const Edge& e : raw) {
    const std::uint32_t u = relabel(e.first);
    const std::uint32_t v = relabel(e.second);
    set.edges.emplace_back(u, v);
  }
  return set;
}

}  // namespace

EdgeSet MakeErdosRenyi(std::uint32_t n, std::uint64_t m, std::uint64_t seed) {
  Rng rng(seed);
  Edges raw;
  raw.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    raw.emplace_back(rng.Below(n), rng.Below(n));
  }
  return Canonicalize(std::move(raw));
}

EdgeSet MakeRmat(int scale, std::uint32_t edge_factor, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t m = (std::uint64_t{1} << scale) * edge_factor;
  Edges raw;
  raw.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint32_t u = 0;
    std::uint32_t v = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const double r = rng.Unit();
      const std::uint32_t down = r >= 0.57 + 0.19 ? 1 : 0;  // c or d
      const std::uint32_t right = (r >= 0.57 && r < 0.76) || r >= 0.95 ? 1 : 0;
      u = (u << 1) | down;
      v = (v << 1) | right;
    }
    raw.emplace_back(u, v);
  }
  return Canonicalize(std::move(raw));
}

EdgeSet MakeChungLu(std::uint32_t n, std::uint64_t m, double gamma,
                    std::uint64_t seed) {
  // Weight of the i-th vertex ~ (i + 1)^(-1 / (gamma - 1)); endpoints are
  // drawn by inverting the cumulative weights.
  std::vector<double> cumulative(n);
  double total = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i) + 1.0, -1.0 / (gamma - 1.0));
    cumulative[i] = total;
  }
  Rng rng(seed);
  auto draw = [&] {
    const double x = rng.Unit() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), x);
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cumulative.begin(), n - 1));
  };
  Edges raw;
  raw.reserve(m);
  for (std::uint64_t i = 0; i < m; ++i) raw.emplace_back(draw(), draw());
  return Canonicalize(std::move(raw));
}

void WriteTextEdgeList(const EdgeSet& set, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  std::vector<char> buffer;
  buffer.reserve(1 << 20);
  char digits[16];
  auto put = [&](std::uint32_t x) {
    int len = 0;
    do {
      digits[len++] = static_cast<char>('0' + x % 10);
      x /= 10;
    } while (x != 0);
    while (len > 0) buffer.push_back(digits[--len]);
  };
  for (const Edge& e : set.edges) {
    put(e.first);
    buffer.push_back(' ');
    put(e.second);
    buffer.push_back('\n');
    if (buffer.size() > (1 << 20) - 32) {
      std::fwrite(buffer.data(), 1, buffer.size(), file);
      buffer.clear();
    }
  }
  std::fwrite(buffer.data(), 1, buffer.size(), file);
  if (std::fclose(file) != 0) throw std::runtime_error("cannot close " + path);
}

void WriteCkg(const EdgeSet& set, const std::string& path) {
  corekit::EdgeList edges(set.edges.begin(), set.edges.end());
  const corekit::Graph graph = corekit::GraphBuilder::FromEdges(set.n, edges);
  const corekit::Status status = corekit::WriteCkgGraph(graph, path);
  if (!status.ok()) throw std::runtime_error(status.ToString());
}

std::uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace corebench
