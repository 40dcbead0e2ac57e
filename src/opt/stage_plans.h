// The plan set of one fixpoint stage operator and CompileStagePlans, the
// one entry point the fixpoint driver calls to lower a rule subset into
// optimized plans.
//
// Pipeline position: parsing → EvalContext binding → CompileStagePlans
// (greedy lowering, then the enabled plan passes in the fixed order
// dead-rule elimination → join reordering) → RelationalConsequence
// dispatch. Both passes preserve the evaluated relations, stage count,
// per-stage sizes, and tuple stages exactly; only plan cost moves.
// (The magic/inline *program* rewrites — program_rewrite.h — act a
// level above, rewriting the rule set before lowering; they carry the
// weaker outputs-as-sets contract of passes.h, not the exact one here.)
//
// Determinism: a pass may read only shard-invariant statistics (relation
// sizes, shard-summed posting totals, content-ordered samples — see
// cost_model.h) and must not consult the thread count, shard count, or
// use_join_indexes, so one (program, database, pass selection) always
// compiles to one plan set.

#ifndef INFLOG_OPT_STAGE_PLANS_H_
#define INFLOG_OPT_STAGE_PLANS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/eval/context.h"
#include "src/eval/plan.h"

namespace inflog {

/// One semi-naive delta plan of a rule.
struct CompiledDeltaPlan {
  RulePlan plan;
  /// idb_index of the predicate whose delta rows the plan scans, or -1
  /// when the plan has no delta-scan op (never-fires plans).
  int delta_idb = -1;
};

/// All plans of one rule: the full plan (stage 0 / naive passes) and one
/// delta plan per dynamic positive body literal.
struct CompiledRulePlans {
  size_t rule_index = 0;
  /// idb_index of the rule's head predicate.
  int head_idb = -1;
  RulePlan full;
  std::vector<CompiledDeltaPlan> deltas;
};

/// The full plan set of one stage operator — what the passes transform
/// and the fixpoint driver executes.
struct StagePlans {
  std::vector<CompiledRulePlans> rules;
};

/// What each pass did, surfaced as the EvalStats opt_* counters.
struct OptCounters {
  uint64_t rules_eliminated = 0;
  uint64_t plans_reordered = 0;
};

/// Lowers `rule_subset` (indices into program.rules(); empty = all rules)
/// with the greedy planner, then runs the plan passes selected by
/// ctx.optimizer_passes(). Every rule's head predicate must be dynamic in
/// `ctx`. `state` is the IdbState the plans will run against: fixed IDB
/// strata and EDB relations carry the cost model's statistics. `counters`
/// may be null.
StagePlans CompileStagePlans(const EvalContext& ctx, const IdbState& state,
                             const std::vector<size_t>& rule_subset,
                             bool use_deltas, OptCounters* counters);

}  // namespace inflog

#endif  // INFLOG_OPT_STAGE_PLANS_H_
