#include "src/opt/stage_plans.h"

#include <numeric>

#include "src/base/logging.h"
#include "src/opt/dead_rules.h"
#include "src/opt/join_reorder.h"

namespace inflog {
namespace {

/// The idb_index of the predicate a delta plan's delta-scan op reads.
int DeltaScanIdb(const Program& program, const RulePlan& plan) {
  for (const PlanOp& op : plan.ops) {
    if (op.kind == PlanOp::Kind::kMatch && op.is_delta_scan) {
      return program.predicate(op.predicate).idb_index;
    }
  }
  // A never_fires plan may have no ops; slicing then degenerates to one
  // empty task.
  return -1;
}

}  // namespace

StagePlans CompileStagePlans(const EvalContext& ctx, const IdbState& state,
                             const std::vector<size_t>& rule_subset,
                             bool use_deltas, OptCounters* counters) {
  const Program& program = ctx.program();
  const size_t num_idb = program.idb_predicates().size();

  std::vector<size_t> rules = rule_subset;
  if (rules.empty()) {
    rules.resize(program.rules().size());
    std::iota(rules.begin(), rules.end(), 0);
  }

  std::vector<bool> dynamic_idb(num_idb, false);
  for (size_t i = 0; i < num_idb; ++i) {
    dynamic_idb[i] = ctx.IsDynamic(program.idb_predicates()[i]);
  }

  // Greedy lowering: a full plan per rule (stage 0 / naive passes), and
  // one delta plan per (rule, dynamic positive literal) for later stages.
  StagePlans plans;
  plans.rules.reserve(rules.size());
  for (size_t r : rules) {
    const Rule& rule = program.rules()[r];
    const int idb = program.predicate(rule.head.predicate).idb_index;
    INFLOG_CHECK(idb >= 0 && dynamic_idb[idb])
        << "fixpoint rule subset must have dynamic head predicates";
    CompiledRulePlans c;
    c.rule_index = r;
    c.head_idb = idb;
    c.full = PlanRule(program, r, dynamic_idb, -1);
    if (use_deltas) {
      for (int lit : DeltaCandidates(program, rule, dynamic_idb)) {
        RulePlan plan = PlanRule(program, r, dynamic_idb, lit);
        const int delta_idb = DeltaScanIdb(program, plan);
        c.deltas.push_back(CompiledDeltaPlan{std::move(plan), delta_idb});
      }
    }
    plans.rules.push_back(std::move(c));
  }

  // The plan passes, in their fixed order.
  OptCounters local;
  if (counters == nullptr) counters = &local;
  const OptimizerPasses& passes = ctx.optimizer_passes();
  if (passes.eliminate_dead_rules) {
    EliminateDeadRules(ctx, &plans, counters);
  }
  if (passes.reorder_joins) {
    ReorderJoins(ctx, state, dynamic_idb, &plans, counters);
  }
  return plans;
}

}  // namespace inflog
