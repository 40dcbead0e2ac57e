#include "inputs.h"

#include <algorithm>
#include <cstddef>
#include <set>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::vector<uint32_t>> Graph::Successors() const {
  std::vector<std::vector<uint32_t>> succ(n);
  for (const auto& [from, to] : edges) succ[from].push_back(to);
  return succ;
}

std::string VertexName(uint32_t v) {
  std::string name = "v";
  name += std::to_string(v);
  return name;
}

std::string GraphFacts(const Graph& g) {
  std::string text;
  text.reserve(g.edges.size() * 16 + g.n * 8);
  for (uint32_t v = 0; v < g.n; ++v) text += "V(" + VertexName(v) + ").\n";
  for (const auto& [from, to] : g.edges) {
    text += "E(" + VertexName(from) + "," + VertexName(to) + ").\n";
  }
  return text;
}

namespace {

// Collects edges without duplicates, in insertion order.
class EdgeSet {
 public:
  bool Add(uint32_t from, uint32_t to) {
    if (!seen_.insert({from, to}).second) return false;
    edges_.push_back({from, to});
    return true;
  }
  std::vector<std::pair<uint32_t, uint32_t>> Take() { return std::move(edges_); }

 private:
  std::set<std::pair<uint32_t, uint32_t>> seen_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
};

}  // namespace

Graph StronglyConnected(size_t n, size_t extra, Rng* rng) {
  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng->Below(i)]);
  EdgeSet edges;
  for (size_t i = 0; i < n; ++i) edges.Add(order[i], order[(i + 1) % n]);
  for (size_t added = 0; added < extra;) {
    const uint32_t from = static_cast<uint32_t>(rng->Below(n));
    const uint32_t to = static_cast<uint32_t>(rng->Below(n));
    if (from != to && edges.Add(from, to)) ++added;
  }
  return Graph{n, edges.Take()};
}

Graph ForwardWindow(size_t n, size_t window, size_t hub_every,
                    size_t hub_degree, size_t back_edges, double sink_share,
                    Rng* rng) {
  EdgeSet edges;
  for (size_t i = 0; i + 1 < n; ++i) {
    if (rng->Unit() < sink_share) continue;
    const size_t ahead = std::min(window, n - 1 - i);
    const bool hub = hub_every > 0 && rng->Below(hub_every) == 0;
    const size_t degree =
        std::min(ahead, hub ? hub_degree : 1 + rng->Below(3));
    for (size_t d = 0; d < degree; ++d) {
      edges.Add(static_cast<uint32_t>(i),
                static_cast<uint32_t>(i + 1 + rng->Below(ahead)));
    }
  }
  for (size_t added = 0; added < back_edges && n > 1;) {
    const uint32_t to = static_cast<uint32_t>(rng->Below(n - 1));
    const uint32_t from =
        static_cast<uint32_t>(to + 1 + rng->Below(std::min(window, n - 1 - to)));
    if (edges.Add(from, to)) ++added;
  }
  return Graph{n, edges.Take()};
}

Graph ForcedColouring(size_t n, size_t free_vertices, Rng* rng) {
  // Pick which of the vertices 2..n-1 are free.
  std::vector<bool> is_free(n, false);
  std::vector<uint32_t> candidates;
  for (uint32_t v = 2; v < n; ++v) candidates.push_back(v);
  for (size_t k = 0; k < free_vertices && !candidates.empty(); ++k) {
    const size_t at = rng->Below(candidates.size());
    is_free[candidates[at]] = true;
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(at));
  }
  std::vector<std::pair<uint32_t, uint32_t>> undirected = {{0, 1}};
  for (uint32_t v = 2; v < n; ++v) {
    if (is_free[v]) {
      undirected.push_back({static_cast<uint32_t>(rng->Below(v)), v});
    } else {
      const auto [a, b] = undirected[rng->Below(undirected.size())];
      undirected.push_back({a, v});
      undirected.push_back({b, v});
    }
  }
  EdgeSet edges;
  for (const auto& [a, b] : undirected) {
    edges.Add(a, b);
    edges.Add(b, a);
  }
  return Graph{n, edges.Take()};
}

Graph Components(size_t components, size_t component_size, size_t window,
                 size_t back_edges, double sink_share, Rng* rng) {
  Graph all;
  all.n = components * component_size;
  for (size_t c = 0; c < components; ++c) {
    const Graph part =
        ForwardWindow(component_size, window, 0, 0, back_edges, sink_share, rng);
    const uint32_t base = static_cast<uint32_t>(c * component_size);
    for (const auto& [from, to] : part.edges) {
      all.edges.push_back({base + from, base + to});
    }
  }
  return all;
}

}  // namespace perfbench
