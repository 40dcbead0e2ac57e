// Plan executor: interprets a RulePlan against an evaluation context and an
// IDB state, emitting derived head tuples.

#ifndef INFLOG_EVAL_EXECUTOR_H_
#define INFLOG_EVAL_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/eval/context.h"
#include "src/eval/plan.h"

namespace inflog {

/// Counters accumulated across executions; cheap to keep, useful for the
/// naive-vs-semi-naive ablation benchmarks.
///
/// The first block (derivations .. stages) describes *what* was computed
/// and is bit-identical across every (threads, shards, min_slice_rows)
/// configuration; the executor block (parallel_tasks .. slice_hist)
/// describes *how* the work was partitioned and necessarily varies with
/// the configuration.
struct EvalStats {
  uint64_t derivations = 0;    ///< Head tuples produced (with duplicates).
  uint64_t new_tuples = 0;     ///< Head tuples that were new in the output.
  uint64_t rows_matched = 0;   ///< Rows tested by kMatch ops.
  uint64_t index_lookups = 0;  ///< kMatch ops served by a hash index.
  uint64_t intersections = 0;  ///< Index lookups that intersected two
                               ///< posting lists (≥2 bound key columns).
  uint64_t enumerations = 0;   ///< Universe elements tried by kEnumerate.
  uint64_t stages = 0;         ///< Iteration stages run (filled by drivers).
  uint64_t parallel_tasks = 0;  ///< Stage tasks run on a thread pool.
  uint64_t steals = 0;          ///< Always 0: no scheduler steals work.
  uint64_t parks = 0;           ///< Always 0: no scheduler parks workers.
  uint64_t slices = 0;          ///< Delta slices executed (full-plan
                                ///< tasks excluded).
  uint64_t batched_plans = 0;   ///< Tiny delta plans that shared a stage
                                ///< task with at least one other plan.
  // Optimizer plan-pass counters (src/opt/stage_plans.h), filled once at
  // plan-compile time. Pure functions of the program, the EDB contents,
  // and the pass selection — invariant across the {threads × shards}
  // sweep at a fixed pass selection.
  uint64_t opt_rules_eliminated = 0;  ///< Rules dropped by dead-rule
                                      ///< elimination.
  uint64_t opt_plans_reordered = 0;   ///< Plans whose join order the
                                      ///< cost-based pass changed.
  uint64_t opt_subplans_shared = 0;   ///< Always 0: no pass shares
                                      ///< subplans.
  uint64_t opt_shared_rows = 0;       ///< Always 0: no pass materializes
                                      ///< shared intermediates.
  // Program-rewrite counters (src/opt/program_rewrite.h), filled by the
  // evaluators when declared outputs make the magic-sets / inlining
  // rewrites active. Pure functions of the program, the outputs, and
  // the pass selection — sweep-invariant like the plan counters above.
  uint64_t opt_magic_rules_generated = 0;  ///< Magic (demand) rules the
                                           ///< magic-sets rewrite added.
  uint64_t opt_rules_inlined = 0;          ///< Predicates inlined into
                                           ///< their single call site.
  // Incremental-maintenance counters (src/eval/incremental.h), filled by
  // Engine::ApplyUpdate. The tuple-level counters (edb/idb inserts and
  // deletes, candidates, rederived, recounted) are pure functions of the
  // update stream and invariant across the {threads × shards} sweep; the
  // phase counters count maintenance passes run.
  uint64_t incremental_updates = 0;      ///< ApplyUpdate calls maintained
                                         ///< incrementally.
  uint64_t incremental_oracle_runs = 0;  ///< ApplyUpdate calls that fell
                                         ///< back to full recompute
                                         ///< (grounded semantics,
                                         ///< non-positive inflationary,
                                         ///< universe growth with unsafe
                                         ///< rules) or were oracle
                                         ///< cross-checks.
  uint64_t incremental_edb_inserted = 0;  ///< EDB tuples actually added.
  uint64_t incremental_edb_deleted = 0;   ///< EDB tuples actually removed.
  uint64_t incremental_idb_inserted = 0;  ///< Net IDB tuples added.
  uint64_t incremental_idb_deleted = 0;   ///< Net IDB tuples removed.
  uint64_t incremental_del_candidates = 0;  ///< Overcounted DRed deletion
                                            ///< candidates erased before
                                            ///< rederivation.
  uint64_t incremental_rederived = 0;   ///< Candidates DRed put back.
  uint64_t incremental_recounted = 0;   ///< Tuples whose derivation count
                                        ///< the counting pass recomputed.
  uint64_t incremental_counting_units = 0;  ///< Non-recursive rule units
                                            ///< maintained by counting.
  uint64_t incremental_dred_units = 0;      ///< Recursive rule units
                                            ///< maintained by DRed.
  // SAT core counters (src/sat/solver.h SolverStats), filled by the
  // grounded stable pipeline (and any caller that runs the CDCL solver,
  // through SatEvalStats in src/eval/stable.h). They describe *how* the
  // solver searched, not what it found.
  uint64_t sat_conflicts = 0;     ///< CDCL conflicts across all solves.
  uint64_t sat_decisions = 0;     ///< Branching decisions.
  uint64_t sat_propagations = 0;  ///< Unit propagations.
  uint64_t sat_restarts = 0;      ///< Luby restarts.
  uint64_t sat_learned = 0;       ///< Clauses learned from conflicts.
  uint64_t sat_deleted = 0;       ///< Learnt clauses dropped by ReduceDB.
  // Serving-layer counters (src/serve/), filled by ServingSession. Like
  // the executor block, they describe how the session was driven
  // (thread count, cache on/off, batching window) — the query answers
  // themselves are bit-identical across every configuration.
  uint64_t serve_epochs_published = 0;  ///< Snapshots sealed and swapped in.
  uint64_t serve_snapshots_pinned = 0;  ///< Pin calls readers made.
  uint64_t serve_queries = 0;           ///< Queries evaluated (or served
                                        ///< from cache).
  uint64_t serve_updates = 0;           ///< Update lines accepted.
  uint64_t serve_batched_updates = 0;   ///< Update lines coalesced into a
                                        ///< larger batch (update_batch>1).
  uint64_t serve_compactions = 0;       ///< Relations compacted by the
                                        ///< periodic schedule.
  uint64_t cache_hits = 0;           ///< Query-cache lookups that hit.
  uint64_t cache_misses = 0;         ///< Lookups that evaluated instead.
  uint64_t cache_invalidations = 0;  ///< Entries killed by net deltas.
  /// Histogram of executed delta-slice sizes: bucket k counts slices with
  /// row count in [2^k, 2^(k+1)), the last bucket everything larger.
  static constexpr size_t kSliceHistBuckets = 17;
  std::array<uint64_t, kSliceHistBuckets> slice_hist{};

  /// Counts one executed delta slice of `rows` rows.
  void RecordSlice(uint64_t rows) {
    ++slices;
    size_t bucket = 0;
    while ((uint64_t{2} << bucket) <= rows &&
           bucket + 1 < kSliceHistBuckets) {
      ++bucket;
    }
    slice_hist[bucket] += 1;
  }

  void Add(const EvalStats& other) {
    derivations += other.derivations;
    new_tuples += other.new_tuples;
    rows_matched += other.rows_matched;
    index_lookups += other.index_lookups;
    intersections += other.intersections;
    enumerations += other.enumerations;
    stages += other.stages;
    parallel_tasks += other.parallel_tasks;
    steals += other.steals;
    parks += other.parks;
    slices += other.slices;
    batched_plans += other.batched_plans;
    opt_rules_eliminated += other.opt_rules_eliminated;
    opt_plans_reordered += other.opt_plans_reordered;
    opt_subplans_shared += other.opt_subplans_shared;
    opt_shared_rows += other.opt_shared_rows;
    opt_magic_rules_generated += other.opt_magic_rules_generated;
    opt_rules_inlined += other.opt_rules_inlined;
    incremental_updates += other.incremental_updates;
    incremental_oracle_runs += other.incremental_oracle_runs;
    incremental_edb_inserted += other.incremental_edb_inserted;
    incremental_edb_deleted += other.incremental_edb_deleted;
    incremental_idb_inserted += other.incremental_idb_inserted;
    incremental_idb_deleted += other.incremental_idb_deleted;
    incremental_del_candidates += other.incremental_del_candidates;
    incremental_rederived += other.incremental_rederived;
    incremental_recounted += other.incremental_recounted;
    incremental_counting_units += other.incremental_counting_units;
    incremental_dred_units += other.incremental_dred_units;
    sat_conflicts += other.sat_conflicts;
    sat_decisions += other.sat_decisions;
    sat_propagations += other.sat_propagations;
    sat_restarts += other.sat_restarts;
    sat_learned += other.sat_learned;
    sat_deleted += other.sat_deleted;
    serve_epochs_published += other.serve_epochs_published;
    serve_snapshots_pinned += other.serve_snapshots_pinned;
    serve_queries += other.serve_queries;
    serve_updates += other.serve_updates;
    serve_batched_updates += other.serve_batched_updates;
    serve_compactions += other.serve_compactions;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_invalidations += other.cache_invalidations;
    for (size_t i = 0; i < kSliceHistBuckets; ++i) {
      slice_hist[i] += other.slice_hist[i];
    }
  }
};

/// One shard's appended local-row range [begin, end).
using ShardRange = std::pair<size_t, size_t>;

/// Per dynamic IDB predicate (by idb_index), the per-shard local-row
/// ranges holding the tuples added in the previous stage (indexed by the
/// relation's shard; inner size == Relation::num_shards()). Used by
/// delta-scan ops, and sliced along shard boundaries by the parallel
/// stage fan-out.
using DeltaRanges = std::vector<std::vector<ShardRange>>;

/// Executes `plan` reading predicate values through `ctx`/`state`, inserting
/// derived head tuples into `out` (which must have the head's arity).
/// `deltas` may be null when the plan has no delta literal.
void ExecutePlan(const EvalContext& ctx, const RulePlan& plan,
                 const IdbState& state, const DeltaRanges* deltas,
                 Relation* out, EvalStats* stats);

/// ExecutePlan variant that keeps derivation *multiplicities* instead of
/// the derived set: each emitted head tuple increments its entry in `out`.
/// The counting-based incremental maintainer recounts candidate tuples
/// with this (a tuple's support is the number of distinct body matches,
/// which plain ExecutePlan's set insertion collapses).
void ExecutePlanCounted(const EvalContext& ctx, const RulePlan& plan,
                        const IdbState& state, const DeltaRanges* deltas,
                        TupleCountMap* out, EvalStats* stats);

}  // namespace inflog

#endif  // INFLOG_EVAL_EXECUTOR_H_
