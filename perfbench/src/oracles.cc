#include "oracles.h"

#include <algorithm>
#include <deque>

namespace perfbench {

namespace {

// BFS distances (edges) from `source`; -1 = unreachable. dist[source] = 0.
std::vector<int> Bfs(const Adjacency& succ, uint32_t source) {
  std::vector<int> dist(succ.size(), -1);
  std::deque<uint32_t> queue = {source};
  dist[source] = 0;
  while (!queue.empty()) {
    const uint32_t u = queue.front();
    queue.pop_front();
    for (uint32_t w : succ[u]) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        queue.push_back(w);
      }
    }
  }
  return dist;
}

}  // namespace

std::vector<uint32_t> ReachableFrom(const Adjacency& succ, uint32_t source) {
  std::vector<uint8_t> seen(succ.size(), 0);
  std::vector<uint32_t> stack(succ[source].begin(), succ[source].end());
  std::vector<uint32_t> out;
  while (!stack.empty()) {
    const uint32_t u = stack.back();
    stack.pop_back();
    if (seen[u]) continue;
    seen[u] = 1;
    out.push_back(u);
    for (uint32_t w : succ[u]) {
      if (!seen[w]) stack.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::vector<uint8_t>> ReachMatrix(const Adjacency& succ) {
  std::vector<std::vector<uint8_t>> reach(succ.size(),
                                          std::vector<uint8_t>(succ.size(), 0));
  for (uint32_t x = 0; x < succ.size(); ++x) {
    for (uint32_t y : ReachableFrom(succ, x)) reach[x][y] = 1;
  }
  return reach;
}

uint64_t DistanceCount(const Adjacency& succ) {
  const size_t n = succ.size();
  std::vector<std::vector<int>> dist(n);
  for (uint32_t u = 0; u < n; ++u) dist[u] = Bfs(succ, u);
  // d(u,v) for paths of one or more edges: the BFS distance off the
  // diagonal, the shortest cycle through u on it.
  std::vector<int> d(n * n, -1);
  for (size_t u = 0; u < n; ++u) {
    for (size_t v = 0; v < n; ++v) {
      if (u != v) {
        d[u * n + v] = dist[u][v];
        continue;
      }
      for (uint32_t w : succ[u]) {
        if (dist[w][u] >= 0 &&
            (d[u * n + u] < 0 || 1 + dist[w][u] < d[u * n + u])) {
          d[u * n + u] = 1 + dist[w][u];
        }
      }
    }
  }
  // The quartic count of bench/e7_distance_query.cc's OracleCount.
  uint64_t count = 0;
  for (size_t p = 0; p < n * n; ++p) {
    if (d[p] < 0) continue;
    for (size_t q = 0; q < n * n; ++q) {
      if (d[q] < 0 || d[p] <= d[q]) ++count;
    }
  }
  return count;
}

std::vector<int8_t> WinMove(const Adjacency& succ) {
  const size_t n = succ.size();
  Adjacency pred(n);
  std::vector<size_t> open_moves(n);
  for (uint32_t u = 0; u < n; ++u) {
    open_moves[u] = succ[u].size();
    for (uint32_t w : succ[u]) pred[w].push_back(u);
  }
  std::vector<int8_t> status(n, -1);
  std::deque<uint32_t> settled;
  for (uint32_t u = 0; u < n; ++u) {
    if (succ[u].empty()) {
      status[u] = 0;
      settled.push_back(u);
    }
  }
  while (!settled.empty()) {
    const uint32_t u = settled.front();
    settled.pop_front();
    for (uint32_t p : pred[u]) {
      if (status[p] != -1) continue;
      if (status[u] == 0) {
        status[p] = 1;  // p can move to a lost position
        settled.push_back(p);
      } else if (--open_moves[p] == 0) {
        status[p] = 0;  // every move of p reaches a won position
        settled.push_back(p);
      }
    }
  }
  return status;
}

namespace {

uint64_t CountFrom(size_t v, const Adjacency& adj, std::vector<int>* colour) {
  if (v == adj.size()) return 1;
  uint64_t total = 0;
  for (int c = 0; c < 3; ++c) {
    bool clash = false;
    for (uint32_t w : adj[v]) {
      if (w < v && (*colour)[w] == c) {
        clash = true;
        break;
      }
    }
    if (clash) continue;
    (*colour)[v] = c;
    total += CountFrom(v + 1, adj, colour);
  }
  (*colour)[v] = -1;
  return total;
}

}  // namespace

uint64_t CountColourings(size_t n,
                         const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  Adjacency adj(n);
  for (const auto& [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<int> colour(n, -1);
  return CountFrom(0, adj, &colour);
}

}  // namespace perfbench
