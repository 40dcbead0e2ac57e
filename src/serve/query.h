// Serve queries: the point/join query language of the serving layer.
//
// A query is one line, `?` followed by a comma-separated conjunction of
// atoms over EDB or IDB predicates:
//
//   ?E(1,2)              — point query: is the tuple there? (true/false)
//   ?T(1,X)              — selection: every X with T(1,X)
//   ?E(X,Y), T(Y,Z)      — conjunctive join over snapshot relations
//   ?R(X,_,X)            — `_` matches anything and is not output
//
// Terms follow the program syntax: an identifier starting with an
// uppercase letter (or `_`) is a variable, anything else a constant, and
// a quoted constant `'x y'` stands for its unquoted text, as in facts.
// Results are the distinct bindings of the named variables in
// first-appearance order, rendered in the same canonical sorted `{...}`
// form Relation::ToString uses — so serve-mode output diffs cleanly
// against batch-mode relation printouts.
//
// Parsing resolves constants against a *frozen* snapshot symbol table
// (lookup only, never interning): a constant the epoch has never seen
// simply matches nothing. The canonical cache key renames variables to
// $0,$1,... in appearance order and renders constants by name, quoting
// any that would not lex bare, so alpha-equivalent queries share one
// cache entry across epochs and `?P('a,b')` never shares `?P(a,b)`'s.
//
// Evaluation has no join engine of its own: a query is one application
// of the paper's operator Θ to the one-rule program `?(X̄) :- body`, and
// runs through the same planner and executor as batch rules.

#ifndef INFLOG_SERVE_QUERY_H_
#define INFLOG_SERVE_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/ast/program.h"
#include "src/base/result.h"
#include "src/serve/snapshot.h"

namespace inflog {
namespace serve {

/// A parsed query, ready to evaluate against any snapshot whose symbol
/// table extends the one it was parsed with.
struct ServeQuery {
  /// The query as the one rule `?(X̄) :- atoms` that EvalServeQuery
  /// plans and executes. The head's arguments are the named variables in
  /// first-appearance order; the body is the atoms in written order.
  /// Variable ids are dense in appearance order, and every `_` gets a
  /// fresh id that the head projects away. Body predicate ids index
  /// `support`; the head's predicate id is support.size(). A constant the
  /// parsing symbol table does not know is kNoValue.
  Rule rule;
  std::vector<std::string> output_names;  ///< Parallel to rule.head.args.
  /// Canonical cache key: variables renamed positionally, constants by
  /// name (quoted unless they lex as a bare constant).
  std::string key;
  /// Sorted, deduplicated predicate names the query reads — its cache
  /// support set.
  std::vector<std::string> support;

  /// True for a fully ground query (no variables): the answer is a truth
  /// value, not a set.
  bool ground() const { return rule.num_vars == 0; }
};

/// Parses a `?...` query line. `symbols` is used for constant lookup only
/// (never interning) — pass the pinned snapshot's frozen table.
Result<ServeQuery> ParseServeQuery(std::string_view line,
                                   const SymbolTable& symbols);

/// A query's answer at one epoch.
struct ServeAnswer {
  bool ground = false;
  bool truth = false;           ///< ground queries only
  std::vector<Tuple> rows;      ///< sorted distinct output bindings
  /// "true"/"false" for ground queries, canonical "{...}" otherwise.
  std::string rendered;
};

/// Evaluates `query` against `snapshot` with the batch rule pipeline:
/// query.rule goes into a throwaway one-rule Program whose body
/// predicates are bound to the snapshot's sealed relations
/// (EvalContext::CreateWithOverrides), PlanRule orders the atoms (most
/// bound columns first, so the written order does not matter), and
/// ExecutePlan derives the answer relation. Output sorted. Pure reads
/// only — safe from any number of threads concurrently. NotFound when an
/// atom names a relation neither the program nor the snapshot knows;
/// InvalidArgument on arity mismatch. An unknown constant matches
/// nothing, so such a query is answered empty without being run.
Result<ServeAnswer> EvalServeQuery(const ServeQuery& query,
                                   const Program& program,
                                   const DatabaseSnapshot& snapshot);

}  // namespace serve
}  // namespace inflog

#endif  // INFLOG_SERVE_QUERY_H_
