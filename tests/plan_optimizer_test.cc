// Tests for the plan-optimizer pass pipeline (src/opt/): pass-selection
// parsing, golden compiled plans per pass (via RulePlan::ToString),
// answer invariance across pass selections on all four semantics,
// and dead-rule elimination driven by the engine's output predicates.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/eval/context.h"
#include "src/eval/executor.h"
#include "src/eval/idb_state.h"
#include "src/eval/plan.h"
#include "src/opt/passes.h"
#include "src/opt/program_rewrite.h"
#include "src/opt/stage_plans.h"
#include "tests/test_util.h"

namespace inflog {
namespace {

using testing::IdbRelation;
using testing::MustProgram;
using testing::TuplesOf;

TEST(OptimizerPassesTest, ParseAndRenderRoundTrip) {
  auto all = ParseOptimizerPasses("all");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, OptimizerPasses::All());
  EXPECT_TRUE(all->eliminate_dead_rules);
  EXPECT_TRUE(all->reorder_joins);

  auto none = ParseOptimizerPasses("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, OptimizerPasses::None());
  EXPECT_FALSE(none->any());

  EXPECT_TRUE(all->magic_sets);
  EXPECT_TRUE(all->inline_rules);

  auto subset = ParseOptimizerPasses("dce,inline");
  ASSERT_TRUE(subset.ok());
  EXPECT_TRUE(subset->eliminate_dead_rules);
  EXPECT_FALSE(subset->reorder_joins);
  EXPECT_TRUE(subset->inline_rules);
  EXPECT_FALSE(subset->magic_sets);

  auto rewrites = ParseOptimizerPasses("magic,inline");
  ASSERT_TRUE(rewrites.ok());
  EXPECT_TRUE(rewrites->magic_sets);
  EXPECT_TRUE(rewrites->inline_rules);
  EXPECT_FALSE(rewrites->eliminate_dead_rules);

  // Every selectable token is exactly one member of the render table.
  EXPECT_EQ(OptimizerPassTokens().size(), 4u);

  for (const char* text :
       {"all", "none", "dce", "reorder", "dce,reorder", "magic", "inline",
        "magic,inline", "dce,magic", "dce,reorder,magic,inline"}) {
    auto passes = ParseOptimizerPasses(text);
    ASSERT_TRUE(passes.ok()) << text;
    auto again = ParseOptimizerPasses(OptimizerPassesName(*passes));
    ASSERT_TRUE(again.ok()) << text;
    EXPECT_EQ(*again, *passes) << text;
  }

  EXPECT_FALSE(ParseOptimizerPasses("dse").ok());
  // The error lists the accepted tokens, rendered from the token table.
  auto share = ParseOptimizerPasses("share");
  ASSERT_FALSE(share.ok());
  EXPECT_NE(share.status().ToString().find("dce|reorder|magic|inline)"),
            std::string::npos)
      << share.status().ToString();
  EXPECT_FALSE(ParseOptimizerPasses("").ok());
  EXPECT_FALSE(ParseOptimizerPasses("all,dce").ok());
}

/// Compiles the fixpoint stage plans for an engine-loaded (program,
/// database) under a pass selection, exposing the plans and counters.
struct CompiledProgram {
  std::unique_ptr<EvalContext> ctx;
  IdbState state;
  StagePlans plans;
  OptCounters counters;
};

CompiledProgram CompileFor(const Engine& engine, std::string_view passes,
                           std::vector<std::string> outputs = {}) {
  auto program = engine.program();
  INFLOG_CHECK(program.ok());
  EvalContextOptions opts;
  auto parsed = ParseOptimizerPasses(passes);
  INFLOG_CHECK(parsed.ok()) << parsed.status().ToString();
  opts.optimizer_passes = *parsed;
  opts.output_predicates = std::move(outputs);
  auto ctx = EvalContext::Create(**program, engine.database(), opts);
  INFLOG_CHECK(ctx.ok()) << ctx.status().ToString();
  CompiledProgram out;
  out.ctx = std::make_unique<EvalContext>(std::move(ctx).value());
  out.state = MakeEmptyIdbState(**program, out.ctx->num_shards());
  out.plans = CompileStagePlans(*out.ctx, out.state, {}, /*use_deltas=*/true,
                                &out.counters);
  return out;
}

/// An engine where the greedy planner's bound-column heuristic picks the
/// big scan first (body order breaks its tie), while row counts say the
/// two-row Sel relation should lead.
Engine SkewedJoinEngine() {
  Engine engine;
  INFLOG_CHECK(engine
                   .LoadProgramText("Q(X) :- Big(X,Y), Sel(Y,Z).\n"
                                    "Q2(X) :- Q(X), Big(X,Y), Sel(Y,Z).\n")
                   .ok());
  std::string facts;
  for (int i = 0; i < 400; ++i) {
    facts += "Big(" + std::to_string(i) + "," + std::to_string(i) + ").\n";
  }
  facts += "Sel(3,0). Sel(7,0).\n";
  INFLOG_CHECK(engine.LoadDatabaseText(facts).ok());
  return engine;
}

TEST(JoinReorderTest, GoldenPlanPutsSelectiveAtomFirst) {
  Engine engine = SkewedJoinEngine();

  const CompiledProgram greedy = CompileFor(engine, "none");
  EXPECT_EQ(greedy.counters.plans_reordered, 0u);
  ASSERT_EQ(greedy.plans.rules.size(), 2u);
  const std::string greedy_text =
      greedy.plans.rules[0].full.ToString(*engine.program().value());
  // Greedy order: the 400-row scan leads.
  EXPECT_LT(greedy_text.find("match Big"), greedy_text.find("match Sel"))
      << greedy_text;

  const CompiledProgram opt = CompileFor(engine, "reorder");
  EXPECT_GE(opt.counters.plans_reordered, 1u);
  const std::string opt_text =
      opt.plans.rules[0].full.ToString(*engine.program().value());
  // Cost-based order: the two-row relation leads, Big becomes a probe.
  EXPECT_LT(opt_text.find("match Sel"), opt_text.find("match Big"))
      << opt_text;

  // The delta pin: a delta plan's delta scan stays first whatever the
  // cost model says about the rest of the body.
  ASSERT_FALSE(opt.plans.rules[1].deltas.empty());
  const std::string delta_text =
      opt.plans.rules[1].deltas[0].plan.ToString(*engine.program().value());
  EXPECT_EQ(delta_text.find("delta-scan Q"), delta_text.find("delta-scan"))
      << delta_text;
  EXPECT_NE(delta_text.find("delta-scan Q"), std::string::npos) << delta_text;
}

TEST(DeadRulePassTest, DropsRulesUnreachableFromOutputs) {
  Engine engine;
  ASSERT_TRUE(engine
                  .LoadProgramText("T(X,Y) :- E(X,Y).\n"
                                   "T(X,Z) :- T(X,Y), E(Y,Z).\n"
                                   "Side(X) :- T(X,X).\n"
                                   "Waste(X,Y) :- T(X,Y), E(Y,X).\n")
                  .ok());
  ASSERT_TRUE(engine.LoadDatabaseText("E(0,1). E(1,2). E(2,0).").ok());

  // No declared outputs: every rule is live, DCE is inert.
  const CompiledProgram all_live = CompileFor(engine, "dce");
  EXPECT_EQ(all_live.plans.rules.size(), 4u);
  EXPECT_EQ(all_live.counters.rules_eliminated, 0u);

  // Side needs T transitively; Waste is dead.
  const CompiledProgram pruned = CompileFor(engine, "dce", {"Side"});
  EXPECT_EQ(pruned.plans.rules.size(), 3u);
  EXPECT_EQ(pruned.counters.rules_eliminated, 1u);
  for (const CompiledRulePlans& c : pruned.plans.rules) {
    const Rule& rule = engine.program().value()->rules()[c.rule_index];
    EXPECT_NE(engine.program().value()->predicate(rule.head.predicate).name,
              "Waste");
  }

  // Disabled pass: the selection is honored even with outputs named.
  const CompiledProgram kept = CompileFor(engine, "none", {"Side"});
  EXPECT_EQ(kept.plans.rules.size(), 4u);
}

TEST(DeadRulePassTest, EngineOutputPredicatesEndToEnd) {
  const std::string program_text =
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Z) :- T(X,Y), E(Y,Z).\n"
      "Side(X) :- T(X,X).\n"
      "Waste(X,Y) :- T(X,Y), E(Y,X).\n";
  const std::string fact_text = "E(0,1). E(1,2). E(2,0). E(2,3).";

  Engine baseline;
  ASSERT_TRUE(baseline.LoadProgramText(program_text).ok());
  ASSERT_TRUE(baseline.LoadDatabaseText(fact_text).ok());
  EvalOptions base_opts;
  base_opts.optimizer_passes = OptimizerPasses::None();
  auto reference =
      baseline.Evaluate(SemanticsKind::kInflationary, base_opts);
  ASSERT_TRUE(reference.ok());

  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText(program_text).ok());
  ASSERT_TRUE(engine.LoadDatabaseText(fact_text).ok());
  EvalOptions opts;
  opts.output_predicates = {"Side"};
  auto pruned = engine.Evaluate(SemanticsKind::kInflationary, opts);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->stats()->opt_rules_eliminated, 1u);

  // The queried predicate (and everything it depends on) is exact.
  const Program& program = *engine.program().value();
  for (const char* name : {"Side", "T"}) {
    EXPECT_EQ(TuplesOf(*engine.symbols(),
                       IdbRelation(program, pruned->state(), name)),
              TuplesOf(*baseline.symbols(),
                       IdbRelation(program, reference->state(), name)))
        << name;
  }

  // Unknown or EDB names fail loudly instead of silently pruning.
  EvalOptions bad_name;
  bad_name.output_predicates = {"NoSuch"};
  EXPECT_FALSE(
      engine.Evaluate(SemanticsKind::kInflationary, bad_name).ok());
  EvalOptions edb_name;
  edb_name.output_predicates = {"E"};
  EXPECT_FALSE(
      engine.Evaluate(SemanticsKind::kInflationary, edb_name).ok());
}

/// A program exercising the plan passes at once: repeated join prefixes,
/// a reorderable body, recursion, and negation (stratifiable, so all
/// four semantics accept it).
constexpr char kMixedProgram[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Z) :- T(X,Y), E(Y,Z).\n"
    "P(X,Z) :- E(X,Y), E(Y,Z), S(Z).\n"
    "R(X,Z) :- E(X,Y), E(Y,Z), T(Z,X).\n"
    "N(X) :- S(X), !T(X,X).\n";

std::string MixedFacts() {
  std::string facts;
  for (int i = 0; i < 12; ++i) {
    facts += "E(" + std::to_string(i) + "," + std::to_string((i + 1) % 12) +
             ").\n";
  }
  facts += "E(0,6). E(3,9).\nS(2). S(5). S(11).\n";
  return facts;
}

TEST(OptimizerInvarianceTest, AllFourSemanticsMatchGreedyPlans) {
  for (SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified,
        SemanticsKind::kWellFounded, SemanticsKind::kStable}) {
    Engine engine;
    ASSERT_TRUE(engine.LoadProgramText(kMixedProgram).ok());
    ASSERT_TRUE(engine.LoadDatabaseText(MixedFacts()).ok());
    const Program& program = *engine.program().value();

    EvalOptions greedy_opts;
    greedy_opts.optimizer_passes = OptimizerPasses::None();
    auto greedy = engine.Evaluate(kind, greedy_opts);
    ASSERT_TRUE(greedy.ok()) << SemanticsKindName(kind);

    // No outputs are declared, so the program rewrites (magic, inline)
    // stay inert and exact state equality must hold for them too.
    for (const char* passes :
         {"all", "dce", "reorder", "dce,reorder", "magic", "inline",
          "magic,inline"}) {
      EvalOptions opts;
      opts.optimizer_passes = *ParseOptimizerPasses(passes);
      auto optimized = engine.Evaluate(kind, opts);
      ASSERT_TRUE(optimized.ok())
          << SemanticsKindName(kind) << " " << passes;
      EXPECT_EQ(testing::CanonState(program, greedy->state()),
                testing::CanonState(program, optimized->state()))
          << SemanticsKindName(kind) << " " << passes;
      if (kind == SemanticsKind::kStable) {
        const auto& gm = std::get<StableResult>(greedy->detail);
        const auto& om = std::get<StableResult>(optimized->detail);
        EXPECT_EQ(testing::CanonStates(program, gm.models),
                  testing::CanonStates(program, om.models))
            << passes;
      }
    }
  }
}

TEST(OptimizerInvarianceTest, StagesAndTupleStagesMatchGreedyPlans) {
  Engine engine;
  ASSERT_TRUE(engine.LoadProgramText(kMixedProgram).ok());
  ASSERT_TRUE(engine.LoadDatabaseText(MixedFacts()).ok());

  auto program = engine.program();
  ASSERT_TRUE(program.ok());
  InflationaryOptions greedy_opts;
  greedy_opts.context.optimizer_passes = OptimizerPasses::None();
  auto greedy = EvalInflationary(**program, engine.database(), greedy_opts);
  ASSERT_TRUE(greedy.ok());

  InflationaryOptions opt_opts;  // defaults: all passes
  auto optimized = EvalInflationary(**program, engine.database(), opt_opts);
  ASSERT_TRUE(optimized.ok());

  EXPECT_EQ(greedy->num_stages, optimized->num_stages);
  EXPECT_EQ(greedy->stage_sizes, optimized->stage_sizes);
  for (size_t i = 0; i < greedy->state.relations.size(); ++i) {
    ASSERT_EQ(greedy->state.relations[i].SortedTuples(),
              optimized->state.relations[i].SortedTuples())
        << "relation " << i;
    for (const Tuple& t : greedy->state.relations[i].SortedTuples()) {
      EXPECT_EQ(greedy->TupleStage(i, t), optimized->TupleStage(i, t))
          << "relation " << i;
    }
  }
}

// --- Program rewrites: magic sets and rule inlining. -----------------------

OptimizerPasses MagicOnly() {
  OptimizerPasses passes = OptimizerPasses::None();
  passes.magic_sets = true;
  return passes;
}

OptimizerPasses InlineOnly() {
  OptimizerPasses passes = OptimizerPasses::None();
  passes.inline_rules = true;
  return passes;
}

constexpr char kTcPointQuery[] =
    "TC(X,Y) :- E(X,Y).\n"
    "TC(X,Z) :- TC(X,Y), E(Y,Z).\n"
    "Q(Y) :- TC(c0,Y).\n";

TEST(MagicSetsTest, GoldenTransitiveClosurePointQuery) {
  auto symbols = std::make_shared<SymbolTable>();
  Program program = MustProgram(kTcPointQuery, symbols);

  const ProgramRewriteResult rewrite = RewriteProgramForOutputs(
      program, {"Q"}, MagicOnly(), RewriteSemantics::kStratified);
  ASSERT_TRUE(rewrite.active);
  EXPECT_EQ(rewrite.magic_rules_generated, 1u);
  EXPECT_EQ(rewrite.rules_inlined, 0u);

  // The classic adorned program: one bound-free adornment of TC, its
  // magic seed from the query constant, and the guarded rules. The
  // recursive call site's self-demand rule magic_TC_bf(X) ←
  // magic_TC_bf(X) is elided.
  const std::string text = rewrite.program->ToString();
  EXPECT_NE(text.find("magic_TC_bf(c0)."), std::string::npos) << text;
  EXPECT_NE(text.find("TC_bf(X,Y) :- magic_TC_bf(X), E(X,Y)."),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("TC_bf(X,Z) :- magic_TC_bf(X), TC_bf(X,Y), E(Y,Z)."),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("Q(Y) :- TC_bf(c0,Y)."), std::string::npos) << text;
  EXPECT_EQ(rewrite.program->rules().size(), 4u) << text;
}

TEST(MagicSetsTest, WithoutDeclaredOutputsIsANoOp) {
  auto symbols = std::make_shared<SymbolTable>();
  Program program = MustProgram(kTcPointQuery, symbols);
  // --optimize=magic without --query: nothing to specialize for.
  const ProgramRewriteResult rewrite = RewriteProgramForOutputs(
      program, {}, MagicOnly(), RewriteSemantics::kStratified);
  EXPECT_FALSE(rewrite.active);
  EXPECT_EQ(rewrite.magic_rules_generated, 0u);
  EXPECT_EQ(rewrite.rules_inlined, 0u);
  EXPECT_EQ(rewrite.program, nullptr);
}

TEST(MagicSetsTest, AllFreeQueryIsANoOp) {
  auto symbols = std::make_shared<SymbolTable>();
  Program program = MustProgram(
      "TC(X,Y) :- E(X,Y).\n"
      "TC(X,Z) :- TC(X,Y), E(Y,Z).\n"
      "Q(X,Y) :- TC(X,Y).\n",
      symbols);
  // No call site ever has a bound argument, so the adorned program would
  // be the original one; the rewrite stays inert.
  const ProgramRewriteResult rewrite = RewriteProgramForOutputs(
      program, {"Q"}, MagicOnly(), RewriteSemantics::kStratified);
  EXPECT_FALSE(rewrite.active);
  EXPECT_EQ(rewrite.magic_rules_generated, 0u);
}

TEST(MagicSetsTest, NegatedIdbInTheNeededPartBailsOut) {
  auto symbols = std::make_shared<SymbolTable>();
  Program program = MustProgram(
      "T(X,Y) :- E(X,Y).\n"
      "T(X,Z) :- T(X,Y), E(Y,Z).\n"
      "Q(X) :- E(c0,X), !T(X,X).\n",
      symbols);
  // The needed part negates the derived T: restricting T to the demanded
  // tuples could flip !T answers, so magic must decline (the documented
  // bail-out in src/opt/magic.h).
  for (const RewriteSemantics semantics :
       {RewriteSemantics::kInflationary, RewriteSemantics::kStratified}) {
    const ProgramRewriteResult rewrite =
        RewriteProgramForOutputs(program, {"Q"}, MagicOnly(), semantics);
    EXPECT_FALSE(rewrite.active);
    EXPECT_EQ(rewrite.magic_rules_generated, 0u);
  }
}

TEST(InlineRulesTest, GoldenSingleUsePredicateIsSubstituted) {
  auto symbols = std::make_shared<SymbolTable>();
  Program program = MustProgram(
      "Mid(X,Y) :- E(X,Y), S(Y).\n"
      "Out(X) :- Mid(X,Y), T(Y).\n",
      symbols);
  const ProgramRewriteResult rewrite = RewriteProgramForOutputs(
      program, {"Out"}, InlineOnly(), RewriteSemantics::kStratified);
  ASSERT_TRUE(rewrite.active);
  EXPECT_EQ(rewrite.rules_inlined, 1u);
  EXPECT_EQ(rewrite.magic_rules_generated, 0u);

  const std::string text = rewrite.program->ToString();
  EXPECT_NE(text.find("Out(X) :- E(X,Y), S(Y), T(Y)."), std::string::npos)
      << text;
  EXPECT_EQ(text.find("Mid"), std::string::npos) << text;
  EXPECT_EQ(rewrite.program->rules().size(), 1u) << text;
}

TEST(InlineRulesTest, RecursiveAndMultiUsePredicatesAreKept) {
  auto symbols = std::make_shared<SymbolTable>();
  // TC is recursive, so inlining it would change the fixpoint; Twice is
  // used at two sites, so inlining would duplicate work. Both must stay.
  Program program = MustProgram(
      "TC(X,Y) :- E(X,Y).\n"
      "TC(X,Z) :- TC(X,Y), E(Y,Z).\n"
      "Twice(X) :- S(X).\n"
      "Q(X) :- TC(X,X), Twice(X).\n"
      "Q(X) :- Twice(X), E(X,X).\n",
      symbols);
  const ProgramRewriteResult rewrite = RewriteProgramForOutputs(
      program, {"Q"}, InlineOnly(), RewriteSemantics::kStratified);
  EXPECT_FALSE(rewrite.active);
  EXPECT_EQ(rewrite.rules_inlined, 0u);
}

TEST(ProgramRewriteTest, EngineEndToEndMatchesBaselineAndReportsCounters) {
  const std::string facts = "E(c0,c1). E(c1,c2). E(c2,c3). E(c7,c8).";
  for (const SemanticsKind kind :
       {SemanticsKind::kInflationary, SemanticsKind::kStratified}) {
    Engine baseline;
    ASSERT_TRUE(baseline.LoadProgramText(kTcPointQuery).ok());
    ASSERT_TRUE(baseline.LoadDatabaseText(facts).ok());
    EvalOptions base_opts;
    base_opts.optimizer_passes = OptimizerPasses::None();
    const auto reference = baseline.Evaluate(kind, base_opts);
    ASSERT_TRUE(reference.ok());

    Engine engine;
    ASSERT_TRUE(engine.LoadProgramText(kTcPointQuery).ok());
    ASSERT_TRUE(engine.LoadDatabaseText(facts).ok());
    EvalOptions opts;
    opts.optimizer_passes = *ParseOptimizerPasses("magic,inline");
    opts.output_predicates = {"Q"};
    const auto rewritten = engine.Evaluate(kind, opts);
    ASSERT_TRUE(rewritten.ok()) << SemanticsKindName(kind);

    EXPECT_EQ(rewritten->stats()->opt_magic_rules_generated, 1u);
    const Program& program = *engine.program().value();
    EXPECT_EQ(TuplesOf(*engine.symbols(),
                       IdbRelation(program, rewritten->state(), "Q")),
              TuplesOf(*baseline.symbols(),
                       IdbRelation(program, reference->state(), "Q")))
        << SemanticsKindName(kind);
  }
}

}  // namespace
}  // namespace inflog
