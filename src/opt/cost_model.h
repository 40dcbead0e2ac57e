// Compile-time join cost model for the plan optimizer.
//
// Estimates, for one positive body atom and a set of already-bound
// variables, how many rows a match would produce (EstimateMatches) and
// how much work one probe costs (EstimateProbeCost). The statistics are
// all shard-invariant pure functions of relation content:
//
//   * relation cardinality — size(), summed over shards;
//   * exact posting totals for constant-keyed columns —
//     Relation::EqualRowsPerShard, shard-summed;
//   * a sampled mean posting length for variable-keyed columns — the
//     sample is the bottom-k rows ordered by (HashTuple(row), row
//     lexicographically), so which rows are sampled depends on content
//     only, never on shard layout or insertion order;
//   * dynamic IDB predicates (empty at compile time) fall back to a
//     universe-sized prior discounted per bound column.
//
// This keeps compiled plans identical across the {threads × shards}
// sweep: same contents, same estimates, same plans.

#ifndef INFLOG_OPT_COST_MODEL_H_
#define INFLOG_OPT_COST_MODEL_H_

#include <map>
#include <utility>
#include <vector>

#include "src/eval/context.h"

namespace inflog {

class CostModel {
 public:
  /// `ctx` and `state` must outlive the model; `state` supplies the
  /// compile-time contents of fixed IDB predicates.
  CostModel(const EvalContext& ctx, const IdbState& state)
      : ctx_(&ctx), state_(&state) {}

  /// Estimated number of rows of `atom`'s relation matching one probe in
  /// which exactly the argument positions holding constants or variables
  /// set in `bound` (indexed by variable id) are known.
  double EstimateMatches(const Literal& atom,
                         const std::vector<bool>& bound) const;

  /// Estimated work of one such probe: the shortest posting list walked
  /// when a column is known (the executor iterates it and re-checks the
  /// rest), the full cardinality when the match degenerates to a scan.
  /// Always ≥ 1 for non-empty relations.
  double EstimateProbeCost(const Literal& atom,
                           const std::vector<bool>& bound) const;

  /// Rows sampled per (relation, column) for the variable-keyed
  /// selectivity estimate.
  static constexpr size_t kSelectivitySamples = 64;

 private:
  /// Mean posting-list length of column `col` over the content-ordered
  /// bottom-kSelectivitySamples rows (≥ 1 for non-empty relations);
  /// cached per (relation, column).
  double ColumnSelectivity(const Relation& rel, size_t col) const;

  /// Per-position key knowledge of one probe: for every argument
  /// position whose term is known, the estimated matches of keying on
  /// that column alone.
  std::vector<double> KnownColumnSelectivities(
      const Literal& atom, const std::vector<bool>& bound) const;

  const EvalContext* ctx_;
  const IdbState* state_;
  mutable std::map<std::pair<const Relation*, size_t>, double>
      selectivity_cache_;
};

}  // namespace inflog

#endif  // INFLOG_OPT_COST_MODEL_H_
