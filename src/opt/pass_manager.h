// The plan-optimizer pass pipeline: a PlanPass interface, the PassManager
// that runs passes in order, and CompileStagePlans — the one entry point
// the fixpoint driver calls to lower a rule subset into optimized plans.
//
// Pipeline position: parsing → EvalContext binding → CompileStagePlans
// (greedy lowering, then the enabled passes in the fixed order dead-rule
// elimination → join reordering → subplan sharing) → RelationalConsequence
// dispatch. Every pass preserves the evaluated relations, stage count,
// per-stage sizes, and tuple stages exactly; only plan cost moves.
// (The magic/inline *program* rewrites — program_rewrite.h — act a
// level above this pipeline, rewriting the rule set before lowering;
// they carry the weaker outputs-as-sets contract of passes.h, not the
// exact one here.)
//
// Determinism: a pass may read only shard-invariant statistics (relation
// sizes, shard-summed posting totals, content-ordered samples — see
// cost_model.h) and must not consult the thread count, shard count, or
// use_join_indexes, so one (program, database, pass selection) always
// compiles to one plan set.

#ifndef INFLOG_OPT_PASS_MANAGER_H_
#define INFLOG_OPT_PASS_MANAGER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/eval/context.h"
#include "src/opt/plan_ir.h"

namespace inflog {

/// Read-only compile-time inputs shared by every pass.
struct PassContext {
  const EvalContext* ctx = nullptr;
  /// The IdbState the plans will run against, at compile time: fixed IDB
  /// strata and EDB relations carry their real contents (the cost
  /// model's statistics); dynamic relations are usually still empty.
  const IdbState* state = nullptr;
  /// Per idb_index, whether the predicate evolves in this run.
  std::vector<bool> dynamic_idb;
  bool use_deltas = true;
};

/// One plan transformation. Run() rewrites `plans` in place and records
/// what it did in `counters`.
class PlanPass {
 public:
  virtual ~PlanPass() = default;
  virtual std::string_view name() const = 0;
  virtual void Run(const PassContext& pctx, StagePlans* plans,
                   OptCounters* counters) = 0;
};

/// Runs registered passes in registration order.
class PassManager {
 public:
  void Add(std::unique_ptr<PlanPass> pass) {
    passes_.push_back(std::move(pass));
  }

  void Run(const PassContext& pctx, StagePlans* plans,
           OptCounters* counters) const {
    for (const std::unique_ptr<PlanPass>& pass : passes_) {
      pass->Run(pctx, plans, counters);
    }
  }

  size_t size() const { return passes_.size(); }

 private:
  std::vector<std::unique_ptr<PlanPass>> passes_;
};

/// The standard pipeline for `passes`: dead-rule elimination, join
/// reordering, subplan sharing — each present iff enabled.
PassManager MakeStandardPipeline(const OptimizerPasses& passes);

/// Lowers `rule_subset` (indices into program.rules(); empty = all rules)
/// with the greedy planner, then runs the pipeline selected by
/// ctx.optimizer_passes(). Every rule's head predicate must be dynamic in
/// `ctx`. `counters` may be null.
StagePlans CompileStagePlans(const EvalContext& ctx, const IdbState& state,
                             const std::vector<size_t>& rule_subset,
                             bool use_deltas, OptCounters* counters);

}  // namespace inflog

#endif  // INFLOG_OPT_PASS_MANAGER_H_
