// Dead-rule elimination: drop rules whose head predicate cannot reach any
// declared output predicate in the program's dependency graph.
//
// Inert unless the run names output predicates
// (EvalContextOptions::output_predicates → EvalContext::output_preds):
// with no declared outputs every IDB predicate is observable and every
// rule is live. Reachability runs over the whole program — not just the
// compiled subset — so a stratified stratum keeps exactly the rules some
// later (or its own) stratum's queried predicate still needs. Negated
// body atoms count as dependencies: deriving fewer P-facts would change
// ¬P, so P's rules stay live whenever P is needed.

#ifndef INFLOG_OPT_DEAD_RULES_H_
#define INFLOG_OPT_DEAD_RULES_H_

#include "src/opt/stage_plans.h"

namespace inflog {

/// Removes the dead rules' plans from `plans`, counting them in
/// counters->rules_eliminated.
void EliminateDeadRules(const EvalContext& ctx, StagePlans* plans,
                        OptCounters* counters);

}  // namespace inflog

#endif  // INFLOG_OPT_DEAD_RULES_H_
