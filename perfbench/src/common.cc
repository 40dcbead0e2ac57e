#include <cstdio>
#include <utility>

#include "inputs.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct Named {
  const char* name;
  const char* unit;
};

// The per-layer catalogue, in reporting order. BENCHMARK.json lists the
// same names and units; perfbench/selftest.py checks that they agree.
constexpr Named kPerLayer[] = {
    {"ast.parse_ms", "ms"},
    {"ast.analyze_ms", "ms"},
    {"opt.plans_reordered", "count"},
    {"opt.subplans_shared", "count"},
    {"opt.shared_rows", "count"},
    {"eval.stages", "count"},
    {"eval.rows_matched", "count"},
    {"eval.derivations", "count"},
    {"eval.new_tuples", "count"},
    {"eval.index_lookups", "count"},
    {"eval.intersections", "count"},
    {"eval.useful_ratio", "ratio"},
    {"eval.rows_per_new_tuple", "ratio"},
    {"base.parallel_tasks", "count"},
    {"base.slices", "count"},
    {"base.steals", "count"},
    {"base.parks", "count"},
    {"base.cpu_util", "ratio"},
    {"base.caller_cpu_share", "ratio"},
    {"ground.ms", "ms"},
    {"ground.rules", "count"},
    {"ground.atoms", "count"},
    {"eval.wfs.rounds", "count"},
    {"eval.wfs.alternation_ms", "ms"},
    {"sat.conflicts", "count"},
    {"sat.decisions", "count"},
    {"sat.propagations", "count"},
    {"sat.learned", "count"},
    {"sat.deleted", "count"},
    {"sat.stable_per_supported", "ratio"},
    {"sat.search_ms", "ms"},
    {"incremental.maintain_ms.p50", "ms"},
    {"incremental.maintain_ms.p90", "ms"},
    {"incremental.del_candidates", "count"},
    {"incremental.rederived", "count"},
    {"incremental.rederive_ratio", "ratio"},
    {"incremental.oracle_runs", "count"},
    {"serve.snapshot.publish_ms.p50", "ms"},
    {"serve.snapshot.publish_ms.p90", "ms"},
    {"serve.snapshot.pin_us", "us"},
    {"serve.snapshot.live", "count"},
    {"serve.query.eval_us.point", "us"},
    {"serve.query.eval_us.join", "us"},
    {"serve.query.eval_us.misordered", "us"},
    {"serve.query.answer_rows", "count"},
    {"serve.cache.hit_rate", "ratio"},
    {"serve.cache.invalidations_per_update", "count"},
    {"harness.writer_lag_ms", "ms"},
    // harness.trace_overhead compares two processes; run.py adds it.
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

double SetupSummary::Median(double SetupTimes::*field) const {
  std::vector<double> values;
  for (const SetupTimes& t : reps) values.push_back(t.*field);
  return perfbench::Median(std::move(values));
}

std::unique_ptr<inflog::Engine> LoadEngine(const std::string& program,
                                           const std::string& facts,
                                           SetupTimes* times, Ledger* ledger) {
  auto engine = std::make_unique<inflog::Engine>();
  Span parse_program("engine.LoadProgramText");
  inflog::Status status = engine->LoadProgramText(program);
  times->parse_ms = parse_program.Stop();
  if (!status.ok()) {
    ledger->Fail("LoadProgramText: " + status.ToString());
    return nullptr;
  }
  Span parse_facts("engine.LoadDatabaseText");
  status = engine->LoadDatabaseText(facts);
  times->parse_ms += parse_facts.Stop();
  if (!status.ok()) {
    ledger->Fail("LoadDatabaseText: " + status.ToString());
    return nullptr;
  }
  Span analyze("engine.Analyze");
  auto analysis = engine->Analyze();
  times->analyze_ms = analyze.Stop();
  if (!analysis.ok()) {
    ledger->Fail("Analyze: " + analysis.status().ToString());
    return nullptr;
  }
  times->total_s = (times->parse_ms + times->analyze_ms) / 1e3;
  return engine;
}

inflog::Tuple VertexTuple(const inflog::Engine& engine,
                          std::initializer_list<uint32_t> vertices) {
  inflog::Tuple tuple;
  for (uint32_t v : vertices) {
    tuple.push_back(engine.symbols()->Find(VertexName(v)));
  }
  return tuple;
}

bool HoldsExactly(const inflog::Relation& relation,
                  const std::vector<inflog::Tuple>& expected) {
  if (relation.size() != expected.size()) return false;
  for (const inflog::Tuple& t : expected) {
    if (!relation.Contains(t)) return false;
  }
  return true;
}

const inflog::Relation* RelationOf(const inflog::Engine& engine,
                                   const inflog::IdbState& state,
                                   const char* name) {
  auto relation = engine.RelationOf(state, name);
  return relation.ok() ? *relation : nullptr;
}

void AddEndToEnd(const EndToEnd& e2e, Report* report) {
  report->metrics = {
      {"setup_s", e2e.setup_s, "s"},
      {"op1_ms.p50", Median(e2e.op1_ms), "ms"},
      {"op2_ms.p50", Median(e2e.op2_ms), "ms"},
      {"ops_per_s", e2e.ops_per_s, "1/s"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MB"},
  };
  // The tails are printed, not reported: their run-to-run spread on a
  // shared machine is wider than any bound the benchmark may set.
  std::fprintf(stderr,
               "perfbench: op1: %zu samples, p%g = %.6g ms; op2: %zu samples, "
               "p%g = %.6g ms\n",
               e2e.op1_ms.size(), e2e.op1_tail * 100,
               Percentile(e2e.op1_ms, e2e.op1_tail), e2e.op2_ms.size(),
               e2e.op2_tail * 100, Percentile(e2e.op2_ms, e2e.op2_tail));
}

void AddPerLayer(const LayerValues& values, Report* report) {
  LayerValues all = values;
  all["eval.useful_ratio"] =
      Ratio(all["eval.new_tuples"], all["eval.derivations"]);
  all["eval.rows_per_new_tuple"] =
      Ratio(all["eval.rows_matched"], all["eval.new_tuples"]);
  for (const Named& m : kPerLayer) {
    report->metrics.push_back({m.name, all[m.name], m.unit});
  }
}

void AddEvalStats(const inflog::EvalStats& total, double ops,
                  LayerValues* values) {
  auto add = [&](const char* name, uint64_t v) {
    (*values)[name] += Ratio(static_cast<double>(v), ops);
  };
  add("eval.stages", total.stages);
  add("eval.rows_matched", total.rows_matched);
  add("eval.derivations", total.derivations);
  add("eval.new_tuples", total.new_tuples);
  add("eval.index_lookups", total.index_lookups);
  add("eval.intersections", total.intersections);
  add("opt.plans_reordered", total.opt_plans_reordered);
  add("opt.subplans_shared", total.opt_subplans_shared);
  add("opt.shared_rows", total.opt_shared_rows);
  add("base.parallel_tasks", total.parallel_tasks);
  add("base.slices", total.slices);
  add("base.steals", total.steals);
  add("base.parks", total.parks);
}

void CpuMeter::Into(LayerValues* values) const {
  (*values)["base.cpu_util"] =
      Ratio(process_cpu_ms, wall_ms * static_cast<double>(threads));
  (*values)["base.caller_cpu_share"] = Ratio(thread_cpu_ms, process_cpu_ms);
}

CpuSample::CpuSample(CpuMeter* meter)
    : meter_(meter), process0_(ProcessCpuMs()), thread0_(ThreadCpuMs()) {}

void CpuSample::Stop(double wall_ms) {
  meter_->process_cpu_ms += ProcessCpuMs() - process0_;
  meter_->thread_cpu_ms += ThreadCpuMs() - thread0_;
  meter_->wall_ms += wall_ms;
}

}  // namespace perfbench
