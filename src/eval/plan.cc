#include "src/eval/plan.h"

#include <algorithm>

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace inflog {

std::vector<int> DeltaCandidates(const Program& program, const Rule& rule,
                                 const std::vector<bool>& dynamic_idb) {
  std::vector<int> out;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const Literal& lit = rule.body[i];
    if (!lit.IsPositiveAtom()) continue;
    const PredicateInfo& info = program.predicate(lit.predicate);
    if (info.is_idb && dynamic_idb[info.idb_index]) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

namespace {

/// Incremental plan construction state.
class Planner {
 public:
  Planner(const Program& program, size_t rule_index, int delta_literal,
          const std::vector<size_t>* atom_order = nullptr)
      : program_(program),
        rule_(program.rules()[rule_index]),
        plan_(),
        atom_order_(atom_order) {
    plan_.rule_index = rule_index;
    plan_.delta_literal = delta_literal;
    bound_.assign(rule_.num_vars, false);
  }

  RulePlan Build() {
    // Partition the body.
    std::vector<size_t> atoms;    // positive atoms not yet placed
    std::vector<size_t> filters;  // eq / neq / negated atoms not yet placed
    for (size_t i = 0; i < rule_.body.size(); ++i) {
      if (static_cast<int>(i) == plan_.delta_literal) continue;
      if (rule_.body[i].IsPositiveAtom()) {
        atoms.push_back(i);
      } else {
        filters.push_back(i);
      }
    }
    if (atom_order_ != nullptr) {
      // An explicit order must cover exactly the greedy candidates.
      INFLOG_CHECK(atom_order_->size() == atoms.size())
          << "explicit atom order must be a permutation of the rule's "
             "non-delta positive atoms";
      for (size_t i : *atom_order_) {
        INFLOG_CHECK(std::find(atoms.begin(), atoms.end(), i) != atoms.end())
            << "explicit atom order names literal " << i
            << " which is not an orderable atom";
      }
    }

    // The delta literal, when present, runs first: it is the smallest
    // input and every derivation must touch it.
    if (plan_.delta_literal >= 0) {
      EmitMatch(rule_.body[plan_.delta_literal], /*delta=*/true);
    }

    FlushFilters(&filters);
    size_t placed = 0;
    while (!plan_.never_fires && !atoms.empty()) {
      size_t best;
      if (atom_order_ != nullptr) {
        best = (*atom_order_)[placed++];
        atoms.erase(std::find(atoms.begin(), atoms.end(), best));
      } else {
        best = PopBestAtom(&atoms);
      }
      plan_.atom_order.push_back(best);
      EmitMatch(rule_.body[best], /*delta=*/false);
      FlushFilters(&filters);
    }

    // Residual phase: bind whatever the joins left unbound — head
    // variables and variables appearing only in filters — by enumerating
    // the universe, flushing filters as they become checkable.
    while (!plan_.never_fires) {
      FlushFilters(&filters);
      const int var = PickResidualVar(filters);
      if (var < 0) break;
      PlanOp op;
      op.kind = PlanOp::Kind::kEnumerate;
      op.enum_var = static_cast<uint32_t>(var);
      plan_.ops.push_back(op);
      bound_[var] = true;
    }
    if (!plan_.never_fires) {
      INFLOG_CHECK(filters.empty())
          << "planner left filters unplaced in rule "
          << plan_.rule_index;
      for (const Term& t : rule_.head.args) {
        INFLOG_CHECK(!t.IsVariable() || bound_[t.id])
            << "planner left a head variable unbound";
      }
    }
    return std::move(plan_);
  }

 private:
  bool TermKnown(const Term& t) const {
    return t.IsConstant() || bound_[t.id];
  }

  /// Emits a kMatch op for a positive atom and marks its variables bound.
  void EmitMatch(const Literal& lit, bool delta) {
    PlanOp op;
    op.kind = PlanOp::Kind::kMatch;
    op.predicate = lit.predicate;
    op.args = lit.args;
    op.is_delta_scan = delta;
    if (!delta) {
      for (size_t col = 0; col < lit.args.size(); ++col) {
        if (TermKnown(lit.args[col])) op.key_cols.push_back(col);
      }
    }
    plan_.ops.push_back(op);
    for (const Term& t : lit.args) {
      if (t.IsVariable()) bound_[t.id] = true;
    }
  }

  /// Places every filter that is currently checkable or bindable, looping
  /// until none changes state. Detects plan-time contradictions.
  void FlushFilters(std::vector<size_t>* filters) {
    bool changed = true;
    while (changed && !plan_.never_fires) {
      changed = false;
      for (auto it = filters->begin(); it != filters->end();) {
        const Literal& lit = rule_.body[*it];
        bool placed = false;
        switch (lit.kind) {
          case Literal::Kind::kEq:
            placed = TryPlaceEq(lit);
            break;
          case Literal::Kind::kNeq:
            placed = TryPlaceCheck(lit, PlanOp::Kind::kFilterNeq);
            break;
          case Literal::Kind::kNegAtom:
            placed = TryPlaceNegAtom(lit);
            break;
          case Literal::Kind::kAtom:
            INFLOG_CHECK(false) << "positive atom in filter list";
        }
        if (placed) {
          it = filters->erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
    }
  }

  bool TryPlaceEq(const Literal& lit) {
    const Term& a = lit.args[0];
    const Term& b = lit.args[1];
    if (a.IsConstant() && b.IsConstant()) {
      if (a.id != b.id) plan_.never_fires = true;
      return true;  // either contradiction or tautology; no op needed
    }
    if (TermKnown(a) && TermKnown(b)) {
      PlanOp op;
      op.kind = PlanOp::Kind::kFilterEq;
      op.lhs = a;
      op.rhs = b;
      plan_.ops.push_back(op);
      return true;
    }
    if (TermKnown(a) && b.IsVariable()) {
      EmitBind(b.id, a);
      return true;
    }
    if (TermKnown(b) && a.IsVariable()) {
      EmitBind(a.id, b);
      return true;
    }
    return false;  // neither side known yet
  }

  void EmitBind(uint32_t var, const Term& source) {
    PlanOp op;
    op.kind = PlanOp::Kind::kBindEq;
    op.target_var = var;
    op.source = source;
    plan_.ops.push_back(op);
    bound_[var] = true;
  }

  bool TryPlaceCheck(const Literal& lit, PlanOp::Kind kind) {
    const Term& a = lit.args[0];
    const Term& b = lit.args[1];
    if (a.IsConstant() && b.IsConstant()) {
      // `c != d` is a plan-time constant.
      const bool holds = (kind == PlanOp::Kind::kFilterNeq) ? (a.id != b.id)
                                                            : (a.id == b.id);
      if (!holds) plan_.never_fires = true;
      return true;
    }
    if (!TermKnown(a) || !TermKnown(b)) return false;
    PlanOp op;
    op.kind = kind;
    op.lhs = a;
    op.rhs = b;
    plan_.ops.push_back(op);
    return true;
  }

  bool TryPlaceNegAtom(const Literal& lit) {
    for (const Term& t : lit.args) {
      if (!TermKnown(t)) return false;
    }
    PlanOp op;
    op.kind = PlanOp::Kind::kFilterNegAtom;
    op.predicate = lit.predicate;
    op.args = lit.args;
    plan_.ops.push_back(op);
    return true;
  }

  /// Picks the most constrained remaining positive atom: maximal number of
  /// known argument columns, then fewest distinct unbound variables, then
  /// body order. Removes and returns its body index.
  size_t PopBestAtom(std::vector<size_t>* atoms) {
    size_t best_pos = 0;
    int best_known = -1;
    int best_unbound = 1 << 30;
    for (size_t pos = 0; pos < atoms->size(); ++pos) {
      const Literal& lit = rule_.body[(*atoms)[pos]];
      int known = 0;
      int unbound = 0;
      std::vector<uint32_t> seen;
      for (const Term& t : lit.args) {
        if (TermKnown(t)) {
          ++known;
        } else if (std::find(seen.begin(), seen.end(), t.id) == seen.end()) {
          seen.push_back(t.id);
          ++unbound;
        }
      }
      if (known > best_known ||
          (known == best_known && unbound < best_unbound)) {
        best_known = known;
        best_unbound = unbound;
        best_pos = pos;
      }
    }
    const size_t body_index = (*atoms)[best_pos];
    atoms->erase(atoms->begin() + best_pos);
    return body_index;
  }

  /// Chooses the next variable to enumerate over the universe: prefer
  /// variables occurring in unplaced filters (so filters unlock soonest),
  /// then unbound head variables. Returns -1 when nothing remains.
  int PickResidualVar(const std::vector<size_t>& filters) const {
    for (size_t f : filters) {
      for (const Term& t : rule_.body[f].args) {
        if (t.IsVariable() && !bound_[t.id]) return static_cast<int>(t.id);
      }
    }
    for (const Term& t : rule_.head.args) {
      if (t.IsVariable() && !bound_[t.id]) return static_cast<int>(t.id);
    }
    return -1;
  }

  const Program& program_;
  const Rule& rule_;
  RulePlan plan_;
  /// Explicit join order (body indices), or null for the greedy policy.
  const std::vector<size_t>* atom_order_;
  std::vector<bool> bound_;
};

/// Shared argument validation for the PlanRule entry points.
void CheckPlanArgs(const Program& program, size_t rule_index,
                   const std::vector<bool>& dynamic_idb, int delta_literal) {
  INFLOG_CHECK(rule_index < program.rules().size());
  if (delta_literal >= 0) {
    const Rule& rule = program.rules()[rule_index];
    INFLOG_CHECK(static_cast<size_t>(delta_literal) < rule.body.size());
    const Literal& lit = rule.body[delta_literal];
    INFLOG_CHECK(lit.IsPositiveAtom());
    const PredicateInfo& info = program.predicate(lit.predicate);
    INFLOG_CHECK(info.is_idb && dynamic_idb[info.idb_index])
        << "delta literal must be a dynamic IDB atom";
  }
}

}  // namespace

RulePlan PlanRule(const Program& program, size_t rule_index,
                  const std::vector<bool>& dynamic_idb, int delta_literal) {
  CheckPlanArgs(program, rule_index, dynamic_idb, delta_literal);
  return Planner(program, rule_index, delta_literal).Build();
}

RulePlan PlanRuleWithOrder(const Program& program, size_t rule_index,
                           const std::vector<bool>& dynamic_idb,
                           int delta_literal,
                           const std::vector<size_t>& atom_order) {
  CheckPlanArgs(program, rule_index, dynamic_idb, delta_literal);
  return Planner(program, rule_index, delta_literal, &atom_order).Build();
}

std::string RulePlan::ToString(const Program& program) const {
  std::string out = StrCat("plan[rule ", rule_index, ", delta ",
                           delta_literal, "]");
  if (never_fires) return out + " never-fires";
  for (const PlanOp& op : ops) {
    out += "\n  ";
    switch (op.kind) {
      case PlanOp::Kind::kMatch:
        out += StrCat(op.is_delta_scan ? "delta-scan " : "match ",
                      program.predicate(op.predicate).name, "/",
                      op.args.size(), " keycols=", op.key_cols.size());
        break;
      case PlanOp::Kind::kBindEq:
        out += StrCat("bind v", op.target_var);
        break;
      case PlanOp::Kind::kFilterEq:
        out += "filter-eq";
        break;
      case PlanOp::Kind::kFilterNeq:
        out += "filter-neq";
        break;
      case PlanOp::Kind::kFilterNegAtom:
        out += StrCat("filter-neg ", program.predicate(op.predicate).name);
        break;
      case PlanOp::Kind::kEnumerate:
        out += StrCat("enumerate v", op.enum_var);
        break;
    }
  }
  return out;
}

}  // namespace inflog
