#include "src/opt/dead_rules.h"

#include <algorithm>

namespace inflog {

void EliminateDeadRules(const EvalContext& ctx, StagePlans* plans,
                        OptCounters* counters) {
  const std::vector<uint32_t>& outputs = ctx.output_preds();
  if (outputs.empty()) return;
  const Program& program = ctx.program();

  // Predicate-level reachability closure from the outputs: a predicate is
  // needed iff an output (transitively) depends on it through any rule —
  // positively or under negation.
  std::vector<bool> needed(program.num_predicates(), false);
  std::vector<uint32_t> frontier;
  for (uint32_t pred : outputs) {
    if (!needed[pred]) {
      needed[pred] = true;
      frontier.push_back(pred);
    }
  }
  while (!frontier.empty()) {
    std::vector<uint32_t> next;
    for (const Rule& rule : program.rules()) {
      if (!needed[rule.head.predicate]) continue;
      for (const Literal& lit : rule.body) {
        if (lit.kind != Literal::Kind::kAtom &&
            lit.kind != Literal::Kind::kNegAtom) {
          continue;
        }
        if (!needed[lit.predicate]) {
          needed[lit.predicate] = true;
          next.push_back(lit.predicate);
        }
      }
    }
    frontier = std::move(next);
  }

  const size_t before = plans->rules.size();
  plans->rules.erase(
      std::remove_if(plans->rules.begin(), plans->rules.end(),
                     [&](const CompiledRulePlans& c) {
                       const Rule& rule = program.rules()[c.rule_index];
                       return !needed[rule.head.predicate];
                     }),
      plans->rules.end());
  counters->rules_eliminated += before - plans->rules.size();
}

}  // namespace inflog
