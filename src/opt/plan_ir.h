// The IR the plan-optimizer pipeline transforms: every compiled plan of
// one fixpoint stage operator, as lowered from the rules by the greedy
// planner (src/eval/plan.h) and consumed by RelationalConsequence.
//
// A StagePlans value is a pure function of (program, rule subset,
// use_deltas, pass selection, compile-time relation contents); none of
// its fields depends on the thread count or shard count —
// which is what lets the optimized plans keep the engine's bit-identical
// determinism guarantee across the parallel sweep.

#ifndef INFLOG_OPT_PLAN_IR_H_
#define INFLOG_OPT_PLAN_IR_H_

#include <cstddef>
#include <vector>

#include "src/eval/plan.h"

namespace inflog {

/// One semi-naive delta plan of a rule.
struct CompiledDeltaPlan {
  RulePlan plan;
  /// idb_index of the predicate whose delta rows the plan scans, or -1
  /// when the plan has no delta-scan op (subplan-sharing consumers whose
  /// delta scan moved into the shared prefix, and never-fires plans).
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

/// A shared join prefix materialized once per stage (subplan sharing).
/// The plan has has_projection set: executing it stages the projected
/// prefix bindings into an intermediate relation of arity `arity`, which
/// consumer plans read through kMatch ops whose shared_source holds this
/// subplan's index.
struct SharedSubplan {
  RulePlan plan;
  /// As in CompiledDeltaPlan; ≥ 0 only when delta_pass.
  int delta_idb = -1;
  /// True when the prefix contains a delta scan: the intermediate is
  /// recomputed before every delta stage and read by delta plans. False
  /// for full-pass prefixes, recomputed before every full pass.
  bool delta_pass = false;
  /// Arity of the intermediate (number of projected variables).
  size_t arity = 0;
};

/// The full plan set of one stage operator — what the passes transform
/// and the fixpoint driver executes.
struct StagePlans {
  std::vector<CompiledRulePlans> rules;
  /// Shared intermediates, indexed by PlanOp::shared_source.
  std::vector<SharedSubplan> shared;
};

/// What each pass did, surfaced as the EvalStats opt_* counters.
struct OptCounters {
  uint64_t rules_eliminated = 0;
  uint64_t plans_reordered = 0;
  uint64_t subplans_shared = 0;
  uint64_t shared_prefixes = 0;
};

}  // namespace inflog

#endif  // INFLOG_OPT_PLAN_IR_H_
