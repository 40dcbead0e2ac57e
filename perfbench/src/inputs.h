// Seeded input generation: graphs and their rendering as program facts.
//
// Every workload input is a pure function of (--seed, size). The library
// only ever receives the rendered text; the oracles read the same graphs
// as plain adjacency lists. Vertex i is the constant `v<i>`.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, portable and fully specified, so a seed means the same
/// inputs on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// A directed graph on vertices 0..n-1 (no duplicate edges).
struct Graph {
  size_t n = 0;
  std::vector<std::pair<uint32_t, uint32_t>> edges;

  std::vector<std::vector<uint32_t>> Successors() const;
};

std::string VertexName(uint32_t v);

/// `E(v0,v1).` per edge plus `V(vi).` per vertex.
std::string GraphFacts(const Graph& g);

/// A strongly connected digraph: a Hamiltonian cycle through a random
/// vertex order plus `extra` random chords (the distance query's input).
Graph StronglyConnected(size_t n, size_t extra, Rng* rng);

/// A "forward window" digraph: vertex i points at vertices up to `window`
/// positions ahead; most out-degrees are 1..3, about one vertex in
/// `hub_every` is a hub with `hub_degree` out-edges, and `back_edges`
/// random edges point backwards (closing cycles). Reachability is nearly
/// "everything ahead", so the closure size hardly varies with the seed.
Graph ForwardWindow(size_t n, size_t window, size_t hub_every,
                    size_t hub_degree, size_t back_edges, double sink_share,
                    Rng* rng);

/// An undirected graph (both directions stored) with exactly
/// 6 * 2^free_vertices proper 3-colourings: start from one edge, then add
/// each further vertex joined either to one earlier vertex (a free
/// vertex: two colour choices) or to both ends of an earlier edge (a
/// forced vertex: one choice). Which vertices are free, and where each
/// attaches, comes from the seed.
Graph ForcedColouring(size_t n, size_t free_vertices, Rng* rng);

/// `components` disjoint ForwardWindow(component_size, window, no hubs,
/// back_edges, sink_share) graphs, vertex ids offset per component. Many
/// small independent parts keep the total work nearly the same from seed
/// to seed.
Graph Components(size_t components, size_t component_size, size_t window,
                 size_t back_edges, double sink_share, Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
