// Rule planning: compiles one DATALOG¬ rule into an operator sequence the
// executor interprets.
//
// The planner orders positive atoms greedily (most bound argument columns
// first), turns equalities into variable bindings as soon as one side is
// known, applies inequality and negated-atom filters the moment all their
// variables are bound, and enumerates any residual variables (unsafe-rule
// head variables, variables appearing only under negation) over the
// evaluation universe — the paper's active-domain semantics.
//
// For semi-naive evaluation the planner can be asked to pin one positive
// body literal on a dynamic IDB predicate as the "delta" literal: it is
// scanned first, restricted at runtime to the rows added in the previous
// stage.

#ifndef INFLOG_EVAL_PLAN_H_
#define INFLOG_EVAL_PLAN_H_

#include <string>
#include <vector>

#include "src/ast/program.h"

namespace inflog {

class EvalContext;

/// One step of a compiled rule plan.
struct PlanOp {
  enum class Kind {
    kMatch,          ///< Join with a positive atom (scan or index lookup).
    kBindEq,         ///< Bind a variable from an equality literal.
    kFilterEq,       ///< Check an equality with both sides bound.
    kFilterNeq,      ///< Check an inequality with both sides bound.
    kFilterNegAtom,  ///< Check a fully bound tuple is absent (¬Q(t̄)).
    kEnumerate,      ///< Bind a variable to each universe element in turn.
  };

  Kind kind;

  // kMatch / kFilterNegAtom:
  uint32_t predicate = kNoPredicate;
  std::vector<Term> args;
  /// Argument positions whose value is known when the op runs (constants
  /// or already-bound variables); used as the index key. Empty => scan.
  std::vector<size_t> key_cols;
  /// kMatch only: scan the previous stage's delta rows of this dynamic
  /// predicate instead of the whole relation.
  bool is_delta_scan = false;

  // kBindEq: bind `target_var` to the value of `source`.
  // kFilterEq / kFilterNeq: compare `lhs` and `rhs`.
  uint32_t target_var = 0;
  Term source = Term::Const(0);
  Term lhs = Term::Const(0);
  Term rhs = Term::Const(0);

  // kEnumerate:
  uint32_t enum_var = 0;
};

/// A compiled rule.
struct RulePlan {
  /// Index of the rule within the program.
  size_t rule_index = 0;
  /// Ops in execution order; after the last op all head variables are bound
  /// and the executor emits the head tuple.
  std::vector<PlanOp> ops;
  /// True when plan-time constant folding proved the body unsatisfiable
  /// (e.g. a literal `c = d` on distinct constants).
  bool never_fires = false;
  /// The body literal pinned as delta, or -1 for a full evaluation plan.
  int delta_literal = -1;
  /// Body indices of the non-delta positive atoms in placement order —
  /// the order the planner joined them (greedy or explicit). The join
  /// reordering pass compares and replaces this.
  std::vector<size_t> atom_order;

  /// Debug rendering of the op sequence.
  std::string ToString(const Program& program) const;
};

/// Compiles rule `rule_index` of `program`. `dynamic_idb` (by idb_index)
/// says which IDB predicates evolve (affects delta eligibility only).
/// `delta_literal` is -1 for a full plan, or the index of a positive body
/// literal on a dynamic IDB predicate to pin as the delta.
RulePlan PlanRule(const Program& program, size_t rule_index,
                  const std::vector<bool>& dynamic_idb, int delta_literal);

/// Like PlanRule, but joins the non-delta positive atoms in exactly
/// `atom_order` (body indices; must be a permutation of the rule's
/// non-delta positive atoms) instead of the greedy order. Filter
/// placement, residual enumeration, and the delta pin are unchanged —
/// the cost-based join reordering pass replans through this.
RulePlan PlanRuleWithOrder(const Program& program, size_t rule_index,
                           const std::vector<bool>& dynamic_idb,
                           int delta_literal,
                           const std::vector<size_t>& atom_order);

/// Indices of body literals eligible as delta literals (positive atoms on
/// dynamic IDB predicates).
std::vector<int> DeltaCandidates(const Program& program, const Rule& rule,
                                 const std::vector<bool>& dynamic_idb);

}  // namespace inflog

#endif  // INFLOG_EVAL_PLAN_H_
