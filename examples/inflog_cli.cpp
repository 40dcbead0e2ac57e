// inflog_cli: evaluate a DATALOG¬ program file against a database file
// under a chosen semantics — the downstream-user entry point.
//
// Usage:
//   inflog_cli [--threads=N] [--shards=S] [--min-slice-rows=R]
//     [--optimize=LIST] [--list-optimize-passes]
//     [--query=NAMES] [--reject-unsafe-negation] [--stats]
//     [--dump-cnf=FILE]
//     [--apply-updates=FILE] [--verify-incremental]
//     [--serve] [--serve-threads=N] [--serve-cache=0|1]
//     [--compact-threshold=F] [--update-batch=N]
//     PROGRAM.dlog DATABASE.facts [SEMANTICS]
//
// SEMANTICS is one of:
//   inflationary (default) | stratified | wellfounded | stable |
//   fixpoints | analyze
//
// --threads=N runs the relational fixpoint stages on N threads (default:
// hardware concurrency; --threads=1 is the serial baseline). --shards=S
// hash-shards the IDB relations S ways — S a power of two ≤ 64 — so the
// stage merge parallelizes shard-wise (default 0 = auto: one shard per
// thread; --shards=1 is the unsharded layout). Parallel stages cut their
// delta rows into equal-row slices, about four per thread, claimed from a
// shared counter. --min-slice-rows=R tunes the serial cutoff / slice
// granularity / tiny-plan batching threshold (0 = default 64). Results
// are deterministic and identical for every (threads, shards,
// min-slice-rows) combination.
// --optimize=LIST selects the optimizer passes for the relational
// pipelines (inflationary, stratified): "all" (the default), "none"
// (today's greedy plans exactly), or a comma list of dce, reorder,
// magic, inline (--list-optimize-passes prints the tokens, one
// per line, and exits — scripts validate against it instead of
// hardcoding). Results on the queried predicates are identical for
// every selection. --query=NAMES (a comma list of IDB predicates)
// declares the output predicates: with dce enabled, rules unreachable
// from them are dropped, and the magic/inline program rewrites
// specialize the program toward them, so only the listed relations are
// specified (and printed). Without --query, dce, magic and inline are
// all no-ops.
// --reject-unsafe-negation fails instead of evaluating rules whose
// negated literal has a variable bound by no positive body literal (by
// default such rules get the paper's active-domain reading). --stats
// prints the executor counters (index probes, posting-list
// intersections, rows matched, parallel tasks, slice histogram, ...)
// after the result, so bench numbers can be explained from the CLI; for
// modes without a relational fixpoint run it says so. Every valued flag
// takes --x=V or --x V. Any other argument starting with "--" is
// rejected as an unknown flag (exit 2).
//
// The SAT-backed modes (stable, fixpoints) run one deterministic CDCL
// solver, so repeated runs print the same models; fixpoints caps its
// enumeration at 64 and prints the first 64 the search finds, sorted.
// --dump-cnf=FILE writes the Clark-completion encoding of the loaded
// (program, database) as DIMACS CNF to FILE and continues with the
// requested run.
//
// --apply-updates=FILE switches the run into incremental view
// maintenance: the program is evaluated once under the chosen semantics
// (inflationary, stratified, wellfounded or stable), then each
// non-empty, non-comment line of FILE is applied as one update batch of
// whitespace-separated `+Rel(a,b)` inserts and `-Rel(a)` deletes, with
// a per-update summary line (EDB/IDB churn, counting vs DRed units,
// whether the update fell back to the recompute oracle). The maintained
// state prints once at the end; with --stats the cumulative incremental_*
// counters follow. --verify-incremental cross-checks every maintained
// update against a from-scratch evaluation (expensive — each update then
// costs a full recompute; meant for tests and oracle sweeps).
// --update-batch=N coalesces every N consecutive update lines into one
// batch before applying (net-delta semantics: deletes apply first,
// inserts win within the window), and --compact-threshold=F compacts any
// relation whose dead-row share exceeds F after an update (default 0.3;
// 0 disables) — both apply to --apply-updates and --serve alike.
//
// --serve switches into serving mode: the program is evaluated once,
// published as epoch snapshot 0, and newline-delimited commands are read
// from stdin:
//   ?T(1,X)            point/join query (same term syntax as rules);
//                      prints "[epoch E] ?T(1,X) = {...}" (sets render
//                      exactly like the batch-mode relation printout,
//                      ground queries print true/false)
//   +E(1,2) -E(2,3)    one update batch (same syntax as --apply-updates);
//                      publishes the next epoch when the batch window
//                      flushes
//   .epoch / .stats / .flush   print the current epoch / the serve
//                      counters / flush a partial update window
// Consecutive query lines form a group evaluated concurrently by
// --serve-threads=N reader threads against one pinned snapshot; answers
// print in input order and are bit-identical to a fresh batch evaluation
// of that epoch regardless of N. --serve-cache=0 disables the
// delta-invalidated query-result cache (answers are identical either
// way; only the cache_* counters change).
//
// Examples (data files ship in examples/data/):
//   inflog_cli data/pi1.dlog data/path6.facts fixpoints
//   inflog_cli --threads=4 --shards=8 data/distance.dlog data/shortcut.facts
//   inflog_cli --threads=8 --stats data/distance.dlog data/shortcut.facts

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/thread_pool.h"
#include "src/core/engine.h"
#include "src/sat/dimacs.h"

namespace {

int Fail(const inflog::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

inflog::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return inflog::Status::NotFound("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// With --query, only the listed predicates print: the others are
// unspecified once dead-rule elimination drops their rules.
std::vector<std::string> g_query;

void PrintState(const inflog::Engine& engine, const inflog::IdbState& state) {
  auto program = engine.program();
  INFLOG_CHECK(program.ok());
  for (uint32_t pred : (*program)->idb_predicates()) {
    const auto& info = (*program)->predicate(pred);
    if (!g_query.empty() &&
        std::find(g_query.begin(), g_query.end(), info.name) ==
            g_query.end()) {
      continue;
    }
    std::cout << "  " << info.name << " = "
              << state.relations[info.idb_index].ToString(*engine.symbols())
              << "\n";
  }
}

// The sat_* lines of --stats, shared by every SAT-backed mode.
void PrintSatStats(const inflog::EvalStats& s) {
  std::cout << "  sat_conflicts        " << s.sat_conflicts << "\n"
            << "  sat_decisions        " << s.sat_decisions << "\n"
            << "  sat_propagations     " << s.sat_propagations << "\n"
            << "  sat_restarts         " << s.sat_restarts << "\n"
            << "  sat_learned          " << s.sat_learned << "\n"
            << "  sat_deleted          " << s.sat_deleted << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // 0 = hardware concurrency (the default); 1 = the serial baseline.
  size_t num_threads = 0;
  // 0 = auto (one shard per resolved thread); 1 = the unsharded layout.
  size_t num_shards = 0;
  // 0 = the evaluator default (64 rows).
  size_t min_slice_rows = 0;
  inflog::OptimizerPasses optimizer_passes = inflog::OptimizerPasses::All();
  bool reject_unsafe_negation = false;
  bool print_stats = false;
  std::string apply_updates;  // empty = plain one-shot evaluation
  bool verify_incremental = false;
  bool serve_mode = false;
  size_t serve_threads = 1;  // reader threads for serve-mode query groups
  size_t serve_cache = 1;    // query-result cache on/off
  double compact_threshold = 0.3;  // dead-row share; 0 disables
  size_t update_batch = 1;         // update lines coalesced per ApplyUpdate
  std::string dump_cnf;            // empty = no DIMACS dump
  std::vector<std::string> args;
  // Every valued flag is one row: its name and a parser that stores the
  // value, or prints why it is invalid and returns false (exit 2).
  using FlagParser = std::function<bool(const char*, const std::string&)>;
  auto count = [](long max, size_t* out) -> FlagParser {
    return [max, out](const char* flag, const std::string& value) {
      errno = 0;
      char* end = nullptr;
      const long n = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || end != value.c_str() + value.size() || n < 0 ||
          errno == ERANGE || n > max) {
        std::cerr << "error: " << flag << " expects an integer in [0, "
                  << max << "], got '" << value << "'\n";
        return false;
      }
      *out = static_cast<size_t>(n);
      return true;
    };
  };
  auto file = [](std::string* out) -> FlagParser {
    return [out](const char* flag, const std::string& value) {
      if (value.empty()) {
        std::cerr << "error: " << flag << " requires a file\n";
        return false;
      }
      *out = value;
      return true;
    };
  };
  const std::pair<const char*, FlagParser> valued_flags[] = {
      {"--threads", count(1024, &num_threads)},
      // The evaluator clamps shard counts to kMaxShards; reject higher
      // values here instead of silently running a different sweep point.
      {"--shards",
       count(static_cast<long>(inflog::EvalContextOptions::kMaxShards),
             &num_shards)},
      {"--min-slice-rows", count(1 << 20, &min_slice_rows)},
      // 64 reader threads is far beyond any sensible CLI use and keeps
      // typos from spawning thousands.
      {"--serve-threads", count(64, &serve_threads)},
      {"--serve-cache", count(1, &serve_cache)},
      {"--update-batch", count(1 << 20, &update_batch)},
      {"--apply-updates", file(&apply_updates)},
      {"--dump-cnf", file(&dump_cnf)},
      {"--compact-threshold",
       [&](const char* flag, const std::string& value) {
         errno = 0;
         char* end = nullptr;
         const double v = std::strtod(value.c_str(), &end);
         if (value.empty() || end != value.c_str() + value.size() ||
             errno == ERANGE || !std::isfinite(v) || v < 0 || v > 1) {
           std::cerr << "error: " << flag
                     << " expects a number in [0, 1], got '" << value
                     << "'\n";
           return false;
         }
         compact_threshold = v;
         return true;
       }},
      {"--optimize",
       [&](const char*, const std::string& value) {
         auto parsed = inflog::ParseOptimizerPasses(value);
         if (!parsed.ok()) {
           std::cerr << "error: " << parsed.status().ToString() << "\n";
           return false;
         }
         optimizer_passes = *parsed;
         return true;
       }},
      {"--query",
       [&](const char* flag, const std::string& value) {
         size_t start = 0;
         while (start <= value.size()) {
           const size_t comma = value.find(',', start);
           const size_t end =
               comma == std::string::npos ? value.size() : comma;
           if (end > start) {
             g_query.push_back(value.substr(start, end - start));
           }
           if (comma == std::string::npos) break;
           start = comma + 1;
         }
         if (g_query.empty()) {
           std::cerr << "error: " << flag
                     << " expects a comma list of IDB predicate names, "
                        "got '"
                     << value << "'\n";
           return false;
         }
         return true;
       }},
  };
  const std::pair<const char*, bool*> switches[] = {
      {"--stats", &print_stats},
      {"--reject-unsafe-negation", &reject_unsafe_negation},
      {"--verify-incremental", &verify_incremental},
      {"--serve", &serve_mode},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-optimize-passes") {
      for (const std::string_view token : inflog::OptimizerPassTokens()) {
        std::cout << token << "\n";
      }
      return 0;
    }
    const auto on = std::find_if(
        std::begin(switches), std::end(switches),
        [&](const auto& entry) { return arg == entry.first; });
    if (on != std::end(switches)) {
      *on->second = true;
      continue;
    }
    // A valued flag takes --x=V, or --x V with V in the next argument.
    bool handled = false;
    for (const auto& [flag, parse] : valued_flags) {
      const std::string eq = std::string(flag) + "=";
      std::string value;
      if (arg.rfind(eq, 0) == 0) {
        value = arg.substr(eq.size());
      } else if (arg == flag) {
        if (i + 1 >= argc) {
          std::cerr << "error: " << flag << " requires a value\n";
          return 2;
        }
        value = argv[++i];
      } else {
        continue;
      }
      if (!parse(flag, value)) return 2;
      handled = true;
      break;
    }
    if (handled) continue;
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown flag " << arg << "\n";
      return 2;
    }
    args.push_back(arg);
  }
  if (num_shards != 0 && (num_shards & (num_shards - 1)) != 0) {
    // The evaluator rounds shard counts up to a power of two; reject the
    // request here rather than silently running a different sweep point.
    std::cerr << "error: --shards must be 0 (auto) or a power of two, got "
              << num_shards << "\n";
    return 2;
  }
  if (args.size() < 2) {
    std::cerr << "usage: " << argv[0]
              << " [--threads=N] [--shards=S] [--min-slice-rows=R] "
                 "[--optimize=all|none|dce,reorder,magic,inline] "
                 "[--list-optimize-passes] "
                 "[--query=NAMES] [--reject-unsafe-negation] "
                 "[--stats] [--dump-cnf=FILE] [--apply-updates=FILE] "
                 "[--verify-incremental] [--serve] [--serve-threads=N] "
                 "[--serve-cache=0|1] [--compact-threshold=F] "
                 "[--update-batch=N] "
                 "PROGRAM.dlog DATABASE.facts "
                 "[inflationary|stratified|wellfounded|stable|fixpoints|"
                 "analyze]\n";
    return 2;
  }
  const std::string semantics = args.size() > 2 ? args[2] : "inflationary";

  inflog::Engine engine;
  auto program_text = ReadFile(args[0]);
  if (!program_text.ok()) return Fail(program_text.status());
  if (auto s = engine.LoadProgramText(*program_text); !s.ok()) return Fail(s);
  auto db_text = ReadFile(args[1]);
  if (!db_text.ok()) return Fail(db_text.status());
  if (auto s = engine.LoadDatabaseText(*db_text); !s.ok()) return Fail(s);

  if (!dump_cnf.empty()) {
    // Ground + Clark-complete the loaded (program, database) and write
    // the encoding the SAT-backed modes solve, then continue normally.
    auto analyzer = engine.MakeAnalyzer();
    if (!analyzer.ok()) return Fail(analyzer.status());
    std::ofstream out(dump_cnf);
    if (!out) {
      return Fail(inflog::Status::NotFound("cannot open " + dump_cnf));
    }
    out << inflog::sat::ToDimacs(analyzer->encoding().cnf);
    out.flush();
    if (!out) {
      return Fail(inflog::Status::Internal("cannot write " + dump_cnf));
    }
    std::cout << "wrote completion CNF to " << dump_cnf << "\n";
  }

  // The executor counters only exist for the relational-fixpoint
  // semantics; everywhere else --stats says so instead of vanishing.
  auto stats_not_applicable = [&](const std::string& mode) {
    if (print_stats) {
      std::cout << "stats: n/a (" << mode
                << " does not run the relational fixpoint executor)\n";
    }
  };
  if (semantics == "analyze") {
    auto description = engine.Describe();
    if (!description.ok()) return Fail(description.status());
    std::cout << *description;
    stats_not_applicable("analyze");
    return 0;
  }
  // The four semantics all route through the engine's unified dispatch;
  // the variant `detail` carries each one's specific bookkeeping.
  if (auto kind = inflog::ParseSemanticsKind(semantics); kind.ok()) {
    inflog::EvalOptions options;
    options.num_threads = num_threads;
    options.num_shards = num_shards;
    options.min_slice_rows = min_slice_rows;
    options.reject_unsafe_negation = reject_unsafe_negation;
    options.optimizer_passes = optimizer_passes;
    options.output_predicates = g_query;
    if (serve_mode && !apply_updates.empty()) {
      std::cerr << "error: --serve and --apply-updates are exclusive\n";
      return 2;
    }
    // One update summary line per flushed batch, shared by the
    // --apply-updates loop and serve mode.
    size_t update_no = 0;
    auto print_update = [&](const inflog::UpdateResult& result) {
      const inflog::EvalStats& s = result.stats;
      std::cout << "update " << ++update_no << ": edb +"
                << s.incremental_edb_inserted << " -"
                << s.incremental_edb_deleted << ", idb +"
                << s.incremental_idb_inserted << " -"
                << s.incremental_idb_deleted;
      if (result.used_oracle) {
        std::cout << " (oracle recompute)";
      } else {
        std::cout << " (counting units " << s.incremental_counting_units
                  << ", dred units " << s.incremental_dred_units << ")";
      }
      std::cout << "\n";
    };
    auto print_serve_stats = [](const inflog::EvalStats& s) {
      std::cout << "serve stats:\n"
                << "  serve_epochs_published " << s.serve_epochs_published
                << "\n"
                << "  serve_snapshots_pinned " << s.serve_snapshots_pinned
                << "\n"
                << "  serve_queries          " << s.serve_queries << "\n"
                << "  serve_updates          " << s.serve_updates << "\n"
                << "  serve_batched_updates  " << s.serve_batched_updates
                << "\n"
                << "  serve_compactions      " << s.serve_compactions << "\n"
                << "  cache_hits             " << s.cache_hits << "\n"
                << "  cache_misses           " << s.cache_misses << "\n"
                << "  cache_invalidations    " << s.cache_invalidations
                << "\n";
    };
    if (serve_mode) {
      options.verify_incremental = verify_incremental;
      // Output predicates would let dead-rule elimination drop rules the
      // maintainer needs intact; the session maintains every IDB.
      options.output_predicates.clear();
      options.serving.cache = serve_cache != 0;
      options.serving.compact_threshold = compact_threshold;
      options.serving.update_batch = update_batch == 0 ? 1 : update_batch;
      if (auto s = engine.BeginServing(*kind, options); !s.ok()) {
        return Fail(s);
      }
      auto serving = engine.serving();
      if (!serving.ok()) return Fail(serving.status());
      inflog::serve::ServingSession* session = *serving;
      inflog::ThreadPool pool(serve_threads == 0 ? 0 : serve_threads - 1);
      std::cout << "serving epoch " << session->epoch() << " ("
                << inflog::SemanticsKindName(*kind) << ", "
                << (serve_threads == 0 ? size_t{1} : serve_threads)
                << " reader thread(s), cache "
                << (serve_cache != 0 ? "on" : "off") << ")\n";
      // Consecutive query lines form a group: all of them evaluate
      // against ONE pinned snapshot, concurrently across the reader
      // threads, and print in input order.
      std::vector<std::string> group;
      auto run_group = [&] {
        if (group.empty()) return;
        const inflog::serve::SnapshotHandle snap = session->Pin();
        std::vector<std::string> rendered(group.size());
        std::vector<inflog::Status> errors(group.size(),
                                           inflog::Status::OK());
        pool.ParallelFor(group.size(), [&](size_t q) {
          auto outcome = session->Query(group[q], snap);
          if (outcome.ok()) {
            rendered[q] = outcome->answer.rendered;
          } else {
            errors[q] = outcome.status();
          }
        });
        for (size_t q = 0; q < group.size(); ++q) {
          if (errors[q].ok()) {
            std::cout << "[epoch " << snap->epoch() << "] " << group[q]
                      << " = " << rendered[q] << "\n";
          } else {
            std::cout << "[epoch " << snap->epoch() << "] " << group[q]
                      << " : error: " << errors[q].ToString() << "\n";
          }
        }
        group.clear();
      };
      std::string line;
      while (std::getline(std::cin, line)) {
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos) continue;
        const size_t last = line.find_last_not_of(" \t");
        const std::string trimmed = line.substr(first, last - first + 1);
        if (trimmed[0] == '#') continue;
        if (trimmed[0] == '?') {
          group.push_back(trimmed);
          continue;
        }
        run_group();  // updates and commands order against queries
        if (trimmed == ".epoch") {
          std::cout << "epoch " << session->epoch() << "\n";
          continue;
        }
        if (trimmed == ".stats") {
          print_serve_stats(session->stats());
          continue;
        }
        if (trimmed == ".flush") {
          auto flushed = session->Flush();
          if (!flushed.ok()) return Fail(flushed.status());
          if (flushed->has_value()) print_update(**flushed);
          continue;
        }
        auto batch = inflog::ParseUpdateLine(trimmed, engine.symbols().get());
        if (!batch.ok()) {
          std::cout << "error: " << batch.status().ToString() << "\n";
          continue;
        }
        if (batch->empty()) continue;
        auto flushed = session->Enqueue(*batch);
        // A failed ApplyUpdate leaves the maintained state inconsistent;
        // stop serving instead of answering from it.
        if (!flushed.ok()) return Fail(flushed.status());
        if (flushed->has_value()) print_update(**flushed);
      }
      run_group();
      auto tail = session->Flush();
      if (!tail.ok()) return Fail(tail.status());
      if (tail->has_value()) print_update(**tail);
      if (print_stats) print_serve_stats(session->stats());
      return 0;
    }
    if (!apply_updates.empty()) {
      options.verify_incremental = verify_incremental;
      // Output predicates would let dead-rule elimination drop rules the
      // maintainer needs intact; the session maintains every IDB.
      options.output_predicates.clear();
      // Updates route through the serving layer (cache off — nothing
      // queries it here) so --compact-threshold and --update-batch apply
      // to file-driven streams too; with the defaults the output is
      // line-identical to the pre-serving incremental loop.
      options.serving.cache = false;
      options.serving.compact_threshold = compact_threshold;
      options.serving.update_batch = update_batch == 0 ? 1 : update_batch;
      if (auto s = engine.BeginServing(*kind, options); !s.ok()) {
        return Fail(s);
      }
      auto serving = engine.serving();
      if (!serving.ok()) return Fail(serving.status());
      inflog::serve::ServingSession* session = *serving;
      std::ifstream updates(apply_updates);
      if (!updates) {
        return Fail(inflog::Status::NotFound("cannot open " + apply_updates));
      }
      std::string line;
      size_t line_no = 0;
      while (std::getline(updates, line)) {
        ++line_no;
        auto batch = inflog::ParseUpdateLine(line, engine.symbols().get());
        if (!batch.ok()) {
          std::cerr << "error: " << apply_updates << ":" << line_no << ": "
                    << batch.status().ToString() << "\n";
          return 1;
        }
        if (batch->empty()) continue;  // blank / comment line
        auto flushed = session->Enqueue(*batch);
        if (!flushed.ok()) {
          std::cerr << "error: " << apply_updates << ":" << line_no << ": "
                    << flushed.status().ToString() << "\n";
          return 1;
        }
        if (flushed->has_value()) print_update(**flushed);
      }
      auto tail = session->Flush();
      if (!tail.ok()) return Fail(tail.status());
      if (tail->has_value()) print_update(**tail);
      auto state = engine.IncrementalState();
      if (!state.ok()) return Fail(state.status());
      std::cout << "maintained state after " << update_no << " update(s):\n";
      PrintState(engine, **state);
      if (print_stats) {
        auto stats = engine.IncrementalStats();
        if (!stats.ok()) return Fail(stats.status());
        const inflog::EvalStats& s = **stats;
        std::cout << "stats:\n"
                  << "  incremental_updates    " << s.incremental_updates
                  << "\n"
                  << "  oracle_runs            " << s.incremental_oracle_runs
                  << "\n"
                  << "  edb_inserted           " << s.incremental_edb_inserted
                  << "\n"
                  << "  edb_deleted            " << s.incremental_edb_deleted
                  << "\n"
                  << "  idb_inserted           " << s.incremental_idb_inserted
                  << "\n"
                  << "  idb_deleted            " << s.incremental_idb_deleted
                  << "\n"
                  << "  del_candidates         "
                  << s.incremental_del_candidates << "\n"
                  << "  rederived              " << s.incremental_rederived
                  << "\n"
                  << "  recounted              " << s.incremental_recounted
                  << "\n"
                  << "  counting_units         "
                  << s.incremental_counting_units << "\n"
                  << "  dred_units             " << s.incremental_dred_units
                  << "\n"
                  << "  derivations            " << s.derivations << "\n"
                  << "  rows_matched           " << s.rows_matched << "\n"
                  << "  index_probes           " << s.index_lookups << "\n";
        print_serve_stats(session->stats());
      }
      return 0;
    }
    auto outcome = engine.Evaluate(*kind, options);
    if (!outcome.ok()) return Fail(outcome.status());
    if (const auto* r =
            std::get_if<inflog::InflationaryResult>(&outcome->detail)) {
      std::cout << "inflationary semantics (" << r->num_stages
                << " stages):\n";
      PrintState(engine, outcome->state());
    } else if (const auto* r =
                   std::get_if<inflog::StratifiedResult>(&outcome->detail)) {
      std::cout << "stratified semantics (" << r->num_strata << " strata):\n";
      PrintState(engine, outcome->state());
    } else if (const auto* r =
                   std::get_if<inflog::WellFoundedResult>(&outcome->detail)) {
      std::cout << "well-founded model ("
                << (r->total ? "total" : "three-valued") << "):\n";
      std::cout << " true atoms:\n";
      PrintState(engine, r->true_state);
      std::cout << " undefined atoms:\n";
      PrintState(engine, r->undefined_state);
    } else if (const auto* r =
                   std::get_if<inflog::StableResult>(&outcome->detail)) {
      std::cout << r->models.size() << " stable model(s) among "
                << r->supported_examined << " supported model(s):\n";
      for (size_t i = 0; i < r->models.size(); ++i) {
        std::cout << " model " << i + 1 << ":\n";
        PrintState(engine, r->models[i]);
      }
    }
    if (print_stats) {
      if (const inflog::EvalStats* s = outcome->stats()) {
        std::cout << "stats:\n"
                  << "  stages           " << s->stages << "\n"
                  << "  derivations      " << s->derivations << "\n"
                  << "  new_tuples       " << s->new_tuples << "\n"
                  << "  rows_matched     " << s->rows_matched << "\n"
                  << "  index_probes     " << s->index_lookups << "\n"
                  << "  intersections    " << s->intersections << "\n"
                  << "  enumerations     " << s->enumerations << "\n"
                  << "  parallel_tasks   " << s->parallel_tasks << "\n"
                  << "  slices           " << s->slices << "\n"
                  << "  batched_plans    " << s->batched_plans << "\n"
                  << "  opt_rules_eliminated " << s->opt_rules_eliminated
                  << "\n"
                  << "  opt_plans_reordered  " << s->opt_plans_reordered
                  << "\n"
                  << "  opt_magic_rules_generated " << s->opt_magic_rules_generated
                  << "\n"
                  << "  opt_rules_inlined    " << s->opt_rules_inlined
                  << "\n";
        PrintSatStats(*s);
        // Executed-slice size distribution, log2 buckets; only the
        // populated ones, so serial runs print a single empty line.
        std::cout << "  slice_hist      ";
        for (size_t b = 0; b < inflog::EvalStats::kSliceHistBuckets; ++b) {
          if (s->slice_hist[b] == 0) continue;
          const uint64_t lo = b == 0 ? 0 : (uint64_t{1} << b);
          std::cout << " [" << lo << "+]=" << s->slice_hist[b];
        }
        std::cout << "\n";
      } else {
        std::cout << "stats: n/a (the " << semantics
                  << " semantics runs the grounded pipeline, which "
                     "bypasses the relational executor)\n";
      }
    }
    return 0;
  }
  if (semantics == "fixpoints") {
    auto analyzer = engine.MakeAnalyzer();
    if (!analyzer.ok()) return Fail(analyzer.status());
    auto fixpoints = analyzer->EnumerateFixpoints(/*limit=*/64);
    if (!fixpoints.ok()) return Fail(fixpoints.status());
    std::cout << fixpoints->size()
              << " fixpoint(s) (enumeration capped at 64):\n";
    for (size_t i = 0; i < fixpoints->size(); ++i) {
      std::cout << " fixpoint " << i + 1 << ":\n";
      PrintState(engine, (*fixpoints)[i]);
    }
    auto least = analyzer->LeastFixpoint();
    if (!least.ok()) return Fail(least.status());
    std::cout << "least fixpoint exists: "
              << (least->has_least ? "yes" : "no") << "\n";
    if (print_stats) {
      // Fixpoint analysis runs the CDCL pipeline, not the relational
      // executor: the sat_* block is the whole story.
      std::cout << "stats:\n";
      PrintSatStats(inflog::SatEvalStats(analyzer->sat_stats()));
    }
    return 0;
  }
  std::cerr << "unknown semantics: " << semantics << "\n";
  return 2;
}
