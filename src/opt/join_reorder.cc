#include "src/opt/join_reorder.h"

#include <algorithm>
#include <limits>

#include "src/base/logging.h"
#include "src/opt/cost_model.h"
#include "src/opt/passes.h"

namespace inflog {
namespace {

/// Cap keeping DP cardinalities finite under deep joins.
constexpr double kMaxCard = 1e24;

/// Marks the variables of every literal term in `bound`.
void BindLiteralVars(const Literal& lit, std::vector<bool>* bound) {
  for (const Term& t : lit.args) {
    if (t.IsVariable()) (*bound)[t.id] = true;
  }
}

/// Mirrors the planner's pre-join equality flushing: repeatedly binds the
/// unbound side of every body equality whose other side is a constant or
/// an already-bound variable, so the DP sees the same initially known
/// variables the replanned plan will.
void FlushEqualities(const Rule& rule, std::vector<bool>* bound) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kEq) continue;
      const Term& a = lit.args[0];
      const Term& b = lit.args[1];
      const bool a_known = a.IsConstant() || (*bound)[a.id];
      const bool b_known = b.IsConstant() || (*bound)[b.id];
      if (a_known && !b_known) {
        (*bound)[b.id] = true;
        changed = true;
      } else if (b_known && !a_known) {
        (*bound)[a.id] = true;
        changed = true;
      }
    }
  }
}

/// One plan's DP. Returns true (and fills `order`, body indices) when a
/// strictly cheaper order than `plan.atom_order` exists.
bool FindCheaperOrder(const Program& program, const CostModel& model,
                      const RulePlan& plan, std::vector<size_t>* order) {
  const size_t n = plan.atom_order.size();
  if (plan.never_fires || n < 2 || n > OptimizerPasses::kMaxDpAtoms) {
    return false;
  }
  const Rule& rule = program.rules()[plan.rule_index];

  // Canonical atom numbering: ascending body index, independent of the
  // greedy placement order.
  std::vector<size_t> atoms = plan.atom_order;
  std::sort(atoms.begin(), atoms.end());

  std::vector<bool> bound0(rule.num_vars, false);
  if (plan.delta_literal >= 0) {
    BindLiteralVars(rule.body[plan.delta_literal], &bound0);
  }
  FlushEqualities(rule, &bound0);

  const size_t full = (size_t{1} << n) - 1;
  auto bound_of = [&](size_t mask) {
    std::vector<bool> bound = bound0;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) BindLiteralVars(rule.body[atoms[i]], &bound);
    }
    return bound;
  };

  // card[mask]: estimated rows of the partial join over `mask`, computed
  // by always expanding the lowest atom of the mask — a pure function of
  // the set, shared by every order the DP compares.
  std::vector<double> card(full + 1, 1.0);
  for (size_t mask = 1; mask <= full; ++mask) {
    size_t low = 0;
    while (!(mask & (size_t{1} << low))) ++low;
    const size_t prev = mask & ~(size_t{1} << low);
    const std::vector<bool> bound = bound_of(prev);
    card[mask] = std::min(
        kMaxCard,
        card[prev] * model.EstimateMatches(rule.body[atoms[low]], bound));
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(full + 1, kInf);
  std::vector<int> parent(full + 1, -1);
  cost[0] = 0.0;
  for (size_t mask = 1; mask <= full; ++mask) {
    for (size_t last = 0; last < n; ++last) {
      if (!(mask & (size_t{1} << last))) continue;
      const size_t prev = mask & ~(size_t{1} << last);
      const std::vector<bool> bound = bound_of(prev);
      const double c =
          cost[prev] +
          card[prev] * model.EstimateProbeCost(rule.body[atoms[last]], bound);
      if (c < cost[mask]) {  // strict: first-minimal last wins ties
        cost[mask] = c;
        parent[mask] = static_cast<int>(last);
      }
    }
  }

  // Cost of the greedy order under the same model; only a strictly
  // cheaper DP order justifies replanning.
  double greedy_cost = 0.0;
  {
    std::vector<bool> bound = bound0;
    double rows = 1.0;
    for (size_t body_index : plan.atom_order) {
      const Literal& atom = rule.body[body_index];
      greedy_cost += rows * model.EstimateProbeCost(atom, bound);
      rows = std::min(kMaxCard, rows * model.EstimateMatches(atom, bound));
      BindLiteralVars(atom, &bound);
    }
  }
  if (!(cost[full] < greedy_cost)) return false;

  order->clear();
  order->resize(n);
  size_t mask = full;
  for (size_t i = n; i-- > 0;) {
    const int last = parent[mask];
    INFLOG_CHECK(last >= 0);
    (*order)[i] = atoms[last];
    mask &= ~(size_t{1} << last);
  }
  return *order != plan.atom_order;
}

void MaybeReorder(const Program& program, const CostModel& model,
                  const std::vector<bool>& dynamic_idb, RulePlan* plan,
                  int delta_literal, OptCounters* counters) {
  std::vector<size_t> order;
  if (!FindCheaperOrder(program, model, *plan, &order)) return;
  *plan = PlanRuleWithOrder(program, plan->rule_index, dynamic_idb,
                            delta_literal, order);
  ++counters->plans_reordered;
}

}  // namespace

void ReorderJoins(const EvalContext& ctx, const IdbState& state,
                  const std::vector<bool>& dynamic_idb, StagePlans* plans,
                  OptCounters* counters) {
  const Program& program = ctx.program();
  const CostModel model(ctx, state);
  for (CompiledRulePlans& c : plans->rules) {
    MaybeReorder(program, model, dynamic_idb, &c.full, -1, counters);
    for (CompiledDeltaPlan& d : c.deltas) {
      MaybeReorder(program, model, dynamic_idb, &d.plan,
                   d.plan.delta_literal, counters);
    }
  }
}

}  // namespace inflog
