// Cost-based join reordering: replace the greedy bound-column atom order
// with the cheapest one found by dynamic programming over atom subsets.
//
// For each plan with 2..OptimizerPasses::kMaxDpAtoms orderable atoms the
// pass runs the classic DP: cost(S) = min over last ∈ S of
// cost(S∖last) + card(S∖last) · probe_cost(last | bound(S∖last)), with
// cardinalities and probe costs from the CostModel and card(S) computed
// by a canonical decomposition (always expanding the lowest-index atom)
// so the estimate is a function of the set, not of the search path. The
// delta-literal pin is kept — the delta is always scanned first and its
// variables seed the bound set — as are equality bindings checkable
// before any join. Bodies beyond kMaxDpAtoms keep the greedy order.
//
// The plan is replanned (PlanRuleWithOrder) only when the DP order is
// strictly cheaper than the greedy one, so --optimize=none and cost ties
// reproduce today's plans exactly. Ties inside the DP break toward the
// lowest atom index; all inputs are shard-invariant, so one program +
// database always reorders the same way.

#ifndef INFLOG_OPT_JOIN_REORDER_H_
#define INFLOG_OPT_JOIN_REORDER_H_

#include "src/opt/stage_plans.h"

namespace inflog {

/// Replans every plan in `plans` whose DP order is strictly cheaper,
/// counting them in counters->plans_reordered. `state` supplies the cost
/// model's statistics; `dynamic_idb` (by idb_index) is the lowering's
/// dynamic-predicate mask, reused for the replans.
void ReorderJoins(const EvalContext& ctx, const IdbState& state,
                  const std::vector<bool>& dynamic_idb, StagePlans* plans,
                  OptCounters* counters);

}  // namespace inflog

#endif  // INFLOG_OPT_JOIN_REORDER_H_
