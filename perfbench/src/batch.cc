// batch: repeated Evaluate calls on two loaded programs, 4 evaluation
// threads, shards auto, default optimizer.
//
//   op1  Proposition 2's distance query under inflationary semantics on a
//        seeded strongly connected digraph (the E7 program);
//   op2  transitive closure plus its complement under stratified semantics
//        on a seeded forward-window digraph with hub vertices.
//
// The fixpoint core, executor, optimizer passes, relation shards and thread
// pool do the work; the grounder, SAT core and serving layer do none. The
// traced run also measures the grounded layers (grounded.cc).

#include "inputs.h"
#include "oracles.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr char kDistance[] =
    "S1(X,Y) :- E(X,Y).\n"
    "S1(X,Y) :- E(X,Z), S1(Z,Y).\n"
    "S2(X,Y) :- E(X,Y).\n"
    "S2(X,Y) :- E(X,Z), S2(Z,Y).\n"
    "S3(X,Y,Xs,Ys) :- E(X,Y), !S2(Xs,Ys).\n"
    "S3(X,Y,Xs,Ys) :- E(X,Z), S1(Z,Y), !S2(Xs,Ys).\n";

constexpr char kTcComplement[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Y) :- T(X,Z), E(Z,Y).\n"
    "U(X,Y) :- V(X), V(Y), !T(X,Y).\n";

constexpr size_t kThreads = 4;

// One program, its instance, and what the oracle expects of it.
struct Job {
  const char* label;
  inflog::SemanticsKind kind;
  std::string program;
  Graph graph;
  std::unique_ptr<inflog::Engine> engine;
  // Expected relations, in the engine's symbol ids.
  std::vector<std::pair<const char*, std::vector<inflog::Tuple>>> exact;
  const char* counted = nullptr;  // relation checked by size only
  uint64_t expected_count = 0;

  std::vector<double> ms;
  inflog::EvalStats stats;
  double runs = 0;
};

std::vector<inflog::Tuple> ReachTuples(const inflog::Engine& engine,
                                       const Adjacency& succ, bool complement) {
  const auto reach = ReachMatrix(succ);
  std::vector<inflog::Tuple> out;
  for (uint32_t x = 0; x < succ.size(); ++x) {
    for (uint32_t y = 0; y < succ.size(); ++y) {
      if ((reach[x][y] != 0) != complement) {
        out.push_back(VertexTuple(engine, {x, y}));
      }
    }
  }
  return out;
}

// Fills the oracle's expectations for `job` against its engine's symbols.
void Expect(Job* job) {
  const Adjacency succ = job->graph.Successors();
  if (job->kind == inflog::SemanticsKind::kInflationary) {
    job->exact = {{"S1", ReachTuples(*job->engine, succ, false)}};
    job->counted = "S3";
    job->expected_count = DistanceCount(succ);
  } else {
    job->exact = {{"T", ReachTuples(*job->engine, succ, false)},
                  {"U", ReachTuples(*job->engine, succ, true)}};
  }
}

// Runs one Evaluate; returns its latency, or a negative value on failure.
double RunOnce(Job* job, const inflog::EvalOptions& eval, Ledger* ledger,
               CpuMeter* cpu) {
  ledger->Attempt();
  CpuSample sample(cpu);
  Span span(job->label);
  auto outcome = job->engine->Evaluate(job->kind, eval);
  const double ms = span.Stop();
  if (TracingEnabled()) sample.Stop(ms);
  if (!outcome.ok()) {
    ledger->Fail(std::string(job->label) + ": " + outcome.status().ToString());
    return -1;
  }
  const inflog::IdbState& state = outcome->state();
  for (const auto& [name, tuples] : job->exact) {
    const inflog::Relation* rel = RelationOf(*job->engine, state, name);
    if (rel == nullptr || !HoldsExactly(*rel, tuples)) {
      ledger->Fail(std::string(job->label) + ": relation " + name +
                   " differs from the BFS oracle");
      return -1;
    }
  }
  if (job->counted != nullptr) {
    const inflog::Relation* rel = RelationOf(*job->engine, state, job->counted);
    if (rel == nullptr || rel->size() != job->expected_count) {
      ledger->Fail(std::string(job->label) + ": " + job->counted + " has " +
                   std::to_string(rel == nullptr ? 0 : rel->size()) +
                   " tuples, the distance oracle counts " +
                   std::to_string(job->expected_count));
      return -1;
    }
  }
  if (outcome->stats() != nullptr) job->stats.Add(*outcome->stats());
  job->runs += 1;
  return ms;
}

}  // namespace

Report RunBatch(const Options& options, Ledger* ledger) {
  Report report;
  Rng rng(options.seed);
  const size_t distance_n = options.tiny ? 8 : 30;
  const size_t tc_n = options.tiny ? 40 : 400;

  Job jobs[2];
  jobs[0].label = "engine.Evaluate(inflationary)";
  jobs[0].kind = inflog::SemanticsKind::kInflationary;
  jobs[0].program = kDistance;
  jobs[0].graph = StronglyConnected(distance_n, distance_n * 4 / 5, &rng);
  jobs[1].label = "engine.Evaluate(stratified)";
  jobs[1].kind = inflog::SemanticsKind::kStratified;
  jobs[1].program = kTcComplement;
  jobs[1].graph = ForwardWindow(tc_n, 12, 16, 12, 0, 0.0, &rng);
  const std::string facts[2] = {GraphFacts(jobs[0].graph),
                                GraphFacts(jobs[1].graph)};

  // Set-up: load both programs and their facts, several times.
  SetupSummary setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupTimes total;
    for (int j = 0; j < 2; ++j) {
      SetupTimes times;
      jobs[j].engine = LoadEngine(jobs[j].program, facts[j], &times, ledger);
      if (jobs[j].engine == nullptr) return report;
      total.parse_ms += times.parse_ms;
      total.analyze_ms += times.analyze_ms;
      total.total_s += times.total_s;
    }
    setup.reps.push_back(total);
  }
  for (Job& job : jobs) Expect(&job);

  inflog::EvalOptions eval;
  eval.num_threads = kThreads;
  eval.num_shards = 0;  // auto: one shard per thread
  CpuMeter cpu;
  cpu.threads = kThreads;

  // Warm-up: one untimed, checked run of each program.
  for (Job& job : jobs) RunOnce(&job, eval, ledger, &cpu);
  for (Job& job : jobs) {
    job.stats = {};
    job.runs = 0;
  }
  cpu = CpuMeter{};
  cpu.threads = kThreads;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  double busy_ms = 0;
  for (uint64_t i = 0; Clock::now() < deadline; ++i) {
    SetRequest(i + 1);
    Job& job = jobs[i % 2];
    const double ms = RunOnce(&job, eval, ledger, &cpu);
    if (ms < 0) continue;
    job.ms.push_back(ms);
    busy_ms += ms;
  }

  report.checked = true;
  if (!options.trace) {
    EndToEnd e2e;
    e2e.setup_s = setup.Median(&SetupTimes::total_s);
    e2e.op1_ms = jobs[0].ms;
    e2e.op2_ms = jobs[1].ms;
    e2e.ops_per_s =
        static_cast<double>(jobs[0].ms.size() + jobs[1].ms.size()) /
        (busy_ms / 1e3);
    e2e.peak_rss_mb = PeakRssMb();
    AddEndToEnd(e2e, &report);
    return report;
  }
  LayerValues layers;
  layers["ast.parse_ms"] = setup.Median(&SetupTimes::parse_ms);
  layers["ast.analyze_ms"] = setup.Median(&SetupTimes::analyze_ms);
  for (const Job& job : jobs) AddEvalStats(job.stats, job.runs, &layers);
  cpu.Into(&layers);
  MeasureGroundedLayers(options, &layers, ledger);
  AddPerLayer(layers, &report);
  report.extra.push_back({"op1_ms.p50", Median(jobs[0].ms), "ms"});
  return report;
}

}  // namespace perfbench
