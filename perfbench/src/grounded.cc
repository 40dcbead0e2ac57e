// The grounded layers, measured in batch's traced run: the grounder, the
// ground alternating fixpoint and the CDCL core, called directly and serially
// (these pipelines ignore num_threads) on two seeded instances:
//
//   * one program that joins transitive closure plus complement
//     (stratifiable: the grounding cliff) with win-move (not stratifiable,
//     has draws), under the well-founded semantics;
//   * every stable model of the 3-colouring program on a graph with a known
//     number of colourings.
//
// They are no end-to-end workload of their own: on the shared machine the
// benchmark was tuned on, these serial, memory-heavy calls ran up to 2x
// slower in phases lasting minutes, so no bound the benchmark may set held
// them.

#include <set>

#include "inputs.h"
#include "oracles.h"
#include "src/eval/stable.h"
#include "src/eval/wellfounded.h"
#include "src/ground/grounder.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr char kWellFounded[] =
    "T(X,Y) :- E(X,Y).\n"
    "T(X,Y) :- T(X,Z), E(Z,Y).\n"
    "U(X,Y) :- V(X), V(Y), !T(X,Y).\n"
    "W(X) :- E(X,Y), !W(Y).\n";

// R/G/B chosen by mutual negation; K negates itself, so a stable model
// exists only where no edge is monochrome.
constexpr char kColouring[] =
    "R(X) :- V(X), !G(X), !B(X).\n"
    "G(X) :- V(X), !R(X), !B(X).\n"
    "B(X) :- V(X), !R(X), !G(X).\n"
    "K(X) :- E(X,Y), R(X), R(Y), !K(X).\n"
    "K(X) :- E(X,Y), G(X), G(Y), !K(X).\n"
    "K(X) :- E(X,Y), B(X), B(Y), !K(X).\n";

struct WellFoundedExpect {
  std::vector<inflog::Tuple> reach, complement, won, drawn;
};

WellFoundedExpect ExpectWellFounded(const inflog::Engine& engine,
                                    const Graph& g) {
  const Adjacency succ = g.Successors();
  const auto reach = ReachMatrix(succ);
  const auto status = WinMove(succ);
  WellFoundedExpect out;
  for (uint32_t x = 0; x < g.n; ++x) {
    for (uint32_t y = 0; y < g.n; ++y) {
      (reach[x][y] ? out.reach : out.complement)
          .push_back(VertexTuple(engine, {x, y}));
    }
    if (status[x] == 1) out.won.push_back(VertexTuple(engine, {x}));
    if (status[x] == -1) out.drawn.push_back(VertexTuple(engine, {x}));
  }
  return out;
}

bool CheckWellFounded(const inflog::Engine& engine,
                      const inflog::WellFoundedResult& wf,
                      const WellFoundedExpect& expect, Ledger* ledger) {
  struct Part {
    const inflog::IdbState* state;
    const char* relation;
    const std::vector<inflog::Tuple>* tuples;
    const char* what;
  };
  const std::vector<inflog::Tuple> none;
  const Part parts[] = {
      {&wf.true_state, "T", &expect.reach, "true T vs BFS reachability"},
      {&wf.true_state, "U", &expect.complement, "true U vs unreachable pairs"},
      {&wf.true_state, "W", &expect.won, "true W vs retrograde won"},
      {&wf.undefined_state, "W", &expect.drawn, "undefined W vs drawn"},
      {&wf.undefined_state, "T", &none, "undefined T must be empty"},
      {&wf.undefined_state, "U", &none, "undefined U must be empty"},
  };
  for (const Part& part : parts) {
    const inflog::Relation* rel = RelationOf(engine, *part.state, part.relation);
    if (rel == nullptr || !HoldsExactly(*rel, *part.tuples)) {
      ledger->Fail(std::string("wellfounded: ") + part.what);
      return false;
    }
  }
  return true;
}

// Every model must be a distinct proper colouring, and there must be as
// many as the backtracking count.
bool CheckStable(const inflog::Engine& engine,
                 const inflog::StableResult& result, const Graph& g,
                 uint64_t expected, Ledger* ledger) {
  if (result.models.size() != expected) {
    ledger->Fail("stable: " + std::to_string(result.models.size()) +
                 " models, backtracking counts " + std::to_string(expected) +
                 " colourings");
    return false;
  }
  std::set<std::vector<int>> seen;
  const char* colours[] = {"R", "G", "B"};
  for (const inflog::IdbState& model : result.models) {
    std::vector<int> colour(g.n, -1);
    for (int c = 0; c < 3; ++c) {
      const inflog::Relation* rel = RelationOf(engine, model, colours[c]);
      if (rel == nullptr) break;
      for (uint32_t v = 0; v < g.n; ++v) {
        if (!rel->Contains(VertexTuple(engine, {v}))) continue;
        colour[v] = colour[v] == -1 ? c : -2;  // -2: coloured twice
      }
    }
    bool proper = true;
    for (int c : colour) proper = proper && c >= 0;
    for (const auto& [a, b] : g.edges) proper = proper && colour[a] != colour[b];
    if (!proper || !seen.insert(colour).second) {
      ledger->Fail("stable: a model is not a distinct proper 3-colouring");
      return false;
    }
  }
  return true;
}

}  // namespace

void MeasureGroundedLayers(const Options& options, LayerValues* layers,
                           Ledger* ledger) {
  // Its own input stream, so adding these probes left batch's inputs as
  // they were.
  Rng rng(options.seed ^ 0x9e0d);
  const Graph wf_graph = Components(options.tiny ? 2 : 12, 10, 4, 2, 0.2, &rng);
  const Graph col_graph = options.tiny ? ForcedColouring(8, 3, &rng)
                                       : ForcedColouring(48, 6, &rng);
  const uint64_t colourings = CountColourings(col_graph.n, col_graph.edges);
  SetupTimes unused;
  const auto wf_engine =
      LoadEngine(kWellFounded, GraphFacts(wf_graph), &unused, ledger);
  const auto col_engine =
      LoadEngine(kColouring, GraphFacts(col_graph), &unused, ledger);
  if (wf_engine == nullptr || col_engine == nullptr) return;
  const WellFoundedExpect wf_expect = ExpectWellFounded(*wf_engine, wf_graph);
  const inflog::Engine* engines[2] = {wf_engine.get(), col_engine.get()};

  std::vector<double> ground_ms[2], wfs_ms, stable_ms;
  double ground_rules[2] = {0, 0}, ground_atoms[2] = {0, 0};
  double wf_rounds = 0, models = 0, supported = 0, stable_runs = 0;
  inflog::EvalStats sat_total;
  const int reps = options.tiny ? 2 : 7;
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < 2; ++i) {
      const inflog::Engine& engine = *engines[i];
      Span span("GroundProgramFor");
      auto ground = inflog::GroundProgramFor(**engine.program(),
                                             engine.database());
      ground_ms[i].push_back(span.Stop());
      if (!ground.ok()) {
        ledger->Fail("GroundProgramFor: " + ground.status().ToString());
        continue;
      }
      ground_rules[i] = static_cast<double>(ground->rules.size());
      ground_atoms[i] = static_cast<double>(ground->atoms.size());
    }

    ledger->Attempt();
    Span wfs_span("EvalWellFounded");
    auto wf = inflog::EvalWellFounded(**wf_engine->program(),
                                      wf_engine->database());
    wfs_ms.push_back(wfs_span.Stop());
    if (!wf.ok()) {
      ledger->Fail("EvalWellFounded: " + wf.status().ToString());
    } else if (CheckWellFounded(*wf_engine, *wf, wf_expect, ledger)) {
      wf_rounds = static_cast<double>(wf->rounds);
    }

    ledger->Attempt();
    Span stable_span("EnumerateStableModels");
    auto st = inflog::EnumerateStableModels(**col_engine->program(),
                                            col_engine->database());
    stable_ms.push_back(stable_span.Stop());
    if (!st.ok()) {
      ledger->Fail("EnumerateStableModels: " + st.status().ToString());
    } else if (CheckStable(*col_engine, *st, col_graph, colourings, ledger)) {
      sat_total.Add(st->stats);
      stable_runs += 1;
      models += static_cast<double>(st->models.size());
      supported += static_cast<double>(st->supported_examined);
    }
  }

  LayerValues& out = *layers;
  out["ground.ms"] = Median(ground_ms[0]) + Median(ground_ms[1]);
  out["ground.rules"] = ground_rules[0] + ground_rules[1];
  out["ground.atoms"] = ground_atoms[0] + ground_atoms[1];
  out["eval.wfs.rounds"] = wf_rounds;
  out["eval.wfs.alternation_ms"] = Median(wfs_ms) - Median(ground_ms[0]);
  const double runs = stable_runs > 0 ? stable_runs : 1;
  out["sat.conflicts"] = static_cast<double>(sat_total.sat_conflicts) / runs;
  out["sat.decisions"] = static_cast<double>(sat_total.sat_decisions) / runs;
  out["sat.propagations"] =
      static_cast<double>(sat_total.sat_propagations) / runs;
  out["sat.learned"] = static_cast<double>(sat_total.sat_learned) / runs;
  out["sat.deleted"] = static_cast<double>(sat_total.sat_deleted) / runs;
  out["sat.stable_per_supported"] = supported > 0 ? models / supported : 0;
  out["sat.search_ms"] = Median(stable_ms) - Median(ground_ms[1]);
}

}  // namespace perfbench
