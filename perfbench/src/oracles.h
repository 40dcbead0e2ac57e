// Engine-independent oracles. Each one recomputes a workload's answer from
// the plain adjacency lists with textbook graph algorithms; none of them
// includes or calls anything from the inflog library.

#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

using Adjacency = std::vector<std::vector<uint32_t>>;

/// Vertices reachable from `source` by a path of one or more edges, sorted.
std::vector<uint32_t> ReachableFrom(const Adjacency& succ, uint32_t source);

/// reach[x][y] == 1 iff y is reachable from x by one or more edges
/// (transitive closure, by one BFS per vertex).
std::vector<std::vector<uint8_t>> ReachMatrix(const Adjacency& succ);

/// Proposition 2's distance query: the number of (x,y,x*,y*) with
/// d(x,y) finite and d(x,y) <= d(x*,y*), where d(u,u) is the shortest
/// cycle through u and an infinite d(x*,y*) counts as larger.
uint64_t DistanceCount(const Adjacency& succ);

/// Win-move by retrograde analysis: a vertex without moves is lost (0), a
/// vertex with a move to a lost vertex is won (1), a vertex all of whose
/// moves go to won vertices is lost, and every vertex left is drawn (-1).
std::vector<int8_t> WinMove(const Adjacency& succ);

/// Number of proper 3-colourings of the undirected graph `edges` on n
/// vertices, by backtracking.
uint64_t CountColourings(size_t n,
                         const std::vector<std::pair<uint32_t, uint32_t>>& edges);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
