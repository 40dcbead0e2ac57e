#include "src/eval/stable.h"

#include <algorithm>

#include "src/eval/reduct.h"

namespace inflog {

EvalStats SatEvalStats(const sat::SolverStats& s) {
  EvalStats stats;
  stats.sat_conflicts = s.conflicts;
  stats.sat_decisions = s.decisions;
  stats.sat_propagations = s.propagations;
  stats.sat_restarts = s.restarts;
  stats.sat_learned = s.learned_clauses;
  stats.sat_deleted = s.deleted_clauses;
  return stats;
}

Result<StableResult> EnumerateStableModels(const Program& program,
                                           const Database& database,
                                           const StableOptions& options) {
  INFLOG_ASSIGN_OR_RETURN(
      FixpointAnalyzer analyzer,
      FixpointAnalyzer::Create(&program, &database, options.analyze));
  const GroundProgram& ground = analyzer.ground();

  // Enumerate supported models at the SAT level so the stability filter
  // runs on atom vectors.
  StableResult out;
  std::vector<std::vector<bool>> stable_atoms;
  bool complete = false;
  if (options.max_supported > 0) {
    INFLOG_ASSIGN_OR_RETURN(
        complete,
        analyzer.EnumerateModels([&](const std::vector<bool>& atoms) {
          ++out.supported_examined;
          // Gelfond–Lifschitz check: S is stable iff S = LM(P^S).
          if (LeastModelOfReduct(ground, atoms) == atoms) {
            stable_atoms.push_back(atoms);
          }
          return out.supported_examined < options.max_supported;
        }));
  }
  if (!complete) {
    return Status::ResourceExhausted("supported-model budget exhausted");
  }
  // Canonical order, independent of the order the search found the
  // supported models in.
  std::sort(stable_atoms.begin(), stable_atoms.end());
  out.models.reserve(stable_atoms.size());
  for (const std::vector<bool>& atoms : stable_atoms) {
    out.models.push_back(ground.DecodeState(program, atoms));
  }
  out.stats = SatEvalStats(analyzer.sat_stats());
  return out;
}

}  // namespace inflog
