// Seeded input generation for corebench.  The generators are the
// benchmark's own (the program receives only the files they write), so
// a change to corekit's generators cannot move the inputs.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace corebench {

using Edge = std::pair<std::uint32_t, std::uint32_t>;
using Edges = std::vector<Edge>;

// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound).
  std::uint32_t Below(std::uint32_t bound) {
    return static_cast<std::uint32_t>((Next() >> 32) * bound >> 32);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// A simple undirected graph as the benchmark sees it: vertex ids are the
// ids the program assigns (first appearance in the written edge order),
// every edge once with no self-loops or duplicates.
struct EdgeSet {
  std::uint32_t n = 0;
  Edges edges;
};

// G(n, m) Erdos-Renyi: flat and sparse, small kmax.
EdgeSet MakeErdosRenyi(std::uint32_t n, std::uint64_t m, std::uint64_t seed);
// R-MAT (a, b, c) = (0.57, 0.19, 0.19): skewed degrees, deep core hierarchy.
EdgeSet MakeRmat(int scale, std::uint32_t edge_factor, std::uint64_t seed);

// Chung-Lu with a fixed power-law expected-degree sequence (exponent
// `gamma`): a deep core hierarchy whose shape varies little by seed.
EdgeSet MakeChungLu(std::uint32_t n, std::uint64_t m, double gamma,
                    std::uint64_t seed);

// Writes "u v" lines in `set.edges` order.
void WriteTextEdgeList(const EdgeSet& set, const std::string& path);
// Writes a plain .ckg snapshot through the graph layer's writer.
void WriteCkg(const EdgeSet& set, const std::string& path);

std::uint64_t FileBytes(const std::string& path);

}  // namespace corebench
