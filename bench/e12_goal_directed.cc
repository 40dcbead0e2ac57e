// E12 — goal-directed evaluation: the plan-optimizer ablation.
//
// Series regenerated, each as an --optimize=none / --optimize=all pair
// with the none-result cross-checked against the optimized one every
// iteration:
//   * GoalDirectedReorder: a point query whose greedy plan (bound-column
//     heuristic, body-order tie-break) scans the big relation first and
//     probes the selective one, while the cost-based order scans the
//     few-row relation and probes the big one — the join-reordering win.
//   * DeadRuleQuery: a cheap queried predicate next to an expensive
//     unqueried transitive closure; with output_predicates declared,
//     dead-rule elimination skips the closure entirely.
// Shape expected: the all/none ratio grows with the big relation for
// reorder (O(k) probes vs O(N) scans per stage) and tracks the dropped
// closure's cost for DCE. The opt_* counters on each series certify
// which pass fired.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/eval/inflationary.h"

namespace inflog {
namespace {

/// Asserts two states agree as sets on every relation (the serial
/// cross-check: the optimizer must never change the answer).
void CheckSameSets(const IdbState& a, const IdbState& b) {
  INFLOG_CHECK(a.relations.size() == b.relations.size());
  for (size_t i = 0; i < a.relations.size(); ++i) {
    INFLOG_CHECK(a.relations[i].SortedTuples() ==
                 b.relations[i].SortedTuples())
        << "optimizer changed relation " << i;
  }
}

// --- Series 1: cost-based join reordering on a point query. ---
//
// All three body atoms are binary, so the greedy planner's bound-column
// heuristic ties and keeps body order: scan the N-row BigA, probe BigB
// with fan-out F (N*F intermediate rows), and only then filter against
// the handful of Pt markers. Row counts and sampled posting lists say Pt
// should lead, turning both big relations into near-unit probes: the
// greedy plan does O(N*F) join work per run, the reordered one O(N) (the
// index builds).
constexpr char kPointQuery[] =
    "Q(X,Z) :- BigA(X,Y), BigB(Y,Z), Pt(X,P).\n";

constexpr size_t kFanout = 8;

Database PointQueryDb(size_t big_rows, size_t pt_rows,
                      std::shared_ptr<SymbolTable> symbols) {
  Database db(std::move(symbols));
  auto sym = [](size_t i) { return std::to_string(i); };
  const size_t groups = big_rows / kFanout;
  for (size_t i = 0; i < big_rows; ++i) {
    INFLOG_CHECK(db.AddFactNamed("BigA", {sym(i), sym(i % groups)}).ok());
    // Group i % groups fans out to kFanout successors.
    INFLOG_CHECK(
        db.AddFactNamed("BigB", {sym(i % groups), sym(i)}).ok());
  }
  for (size_t i = 0; i < pt_rows; ++i) {
    INFLOG_CHECK(db.AddFactNamed("Pt", {sym(i * 97 % big_rows), sym(i)}).ok());
  }
  return db;
}

void RunPointQuery(benchmark::State& state, const OptimizerPasses& passes) {
  const size_t big_rows = state.range(0);
  auto symbols = std::make_shared<SymbolTable>();
  Program p = bench::MustProgram(kPointQuery, symbols);
  Database db = PointQueryDb(big_rows, 8, symbols);

  InflationaryOptions baseline_opts;
  baseline_opts.context.optimizer_passes = OptimizerPasses::None();
  auto baseline = EvalInflationary(p, db, baseline_opts);
  INFLOG_CHECK(baseline.ok());

  InflationaryOptions options;
  options.context.optimizer_passes = passes;
  double reordered = 0, rows_matched = 0;
  for (auto _ : state) {
    auto result = EvalInflationary(p, db, options);
    INFLOG_CHECK(result.ok());
    CheckSameSets(baseline->state, result->state);
    reordered = static_cast<double>(result->stats.opt_plans_reordered);
    rows_matched = static_cast<double>(result->stats.rows_matched);
  }
  state.counters["big_rows"] = static_cast<double>(big_rows);
  state.counters["plans_reordered"] = reordered;
  state.counters["rows_matched"] = rows_matched;
}

void BM_GoalDirectedReorderNone(benchmark::State& state) {
  RunPointQuery(state, OptimizerPasses::None());
}
BENCHMARK(BM_GoalDirectedReorderNone)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_GoalDirectedReorderAll(benchmark::State& state) {
  RunPointQuery(state, OptimizerPasses::All());
}
BENCHMARK(BM_GoalDirectedReorderAll)->Arg(1 << 12)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

// --- Series 2: dead-rule elimination under a declared query. ---
//
// Q reaches a handful of vertices from the source; Waste is the full
// transitive closure of the same graph. Both runs declare
// output_predicates = {Q}; only the dce run may skip Waste.
constexpr char kDeadRuleQuery[] =
    "Q(X) :- Src(X).\n"
    "Q(Y) :- Q(X), E(X,Y).\n"
    "Waste(X,Y) :- E(X,Y).\n"
    "Waste(X,Z) :- Waste(X,Y), E(Y,Z).\n";

void RunDeadRuleQuery(benchmark::State& state,
                      const OptimizerPasses& passes) {
  const size_t n = state.range(0);
  Rng rng(n * 31 + 7);
  const Digraph g = RandomDigraph(n, 3.0 / n, &rng);
  auto symbols = std::make_shared<SymbolTable>();
  Program p = bench::MustProgram(kDeadRuleQuery, symbols);
  Database db = bench::DbFromGraph(g, symbols);
  INFLOG_CHECK(db.AddFactNamed("Src", {"0"}).ok());

  InflationaryOptions baseline_opts;
  baseline_opts.context.optimizer_passes = OptimizerPasses::None();
  baseline_opts.context.output_predicates = {"Q"};
  auto baseline = EvalInflationary(p, db, baseline_opts);
  INFLOG_CHECK(baseline.ok());
  const int q_idb = p.predicate(*p.FindPredicate("Q")).idb_index;

  InflationaryOptions options;
  options.context.optimizer_passes = passes;
  options.context.output_predicates = {"Q"};
  double eliminated = 0;
  for (auto _ : state) {
    auto result = EvalInflationary(p, db, options);
    INFLOG_CHECK(result.ok());
    // Only the queried predicate is specified once rules are dropped.
    INFLOG_CHECK(result->state.relations[q_idb].SortedTuples() ==
                 baseline->state.relations[q_idb].SortedTuples());
    eliminated = static_cast<double>(result->stats.opt_rules_eliminated);
  }
  state.counters["vertices"] = static_cast<double>(n);
  state.counters["rules_eliminated"] = eliminated;
}

void BM_DeadRuleQueryNone(benchmark::State& state) {
  RunDeadRuleQuery(state, OptimizerPasses::None());
}
BENCHMARK(BM_DeadRuleQueryNone)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_DeadRuleQueryAll(benchmark::State& state) {
  RunDeadRuleQuery(state, OptimizerPasses::All());
}
BENCHMARK(BM_DeadRuleQueryAll)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace inflog
