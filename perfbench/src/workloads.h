// The three workloads and the pieces they share: run options, engine
// set-up with its timing, and the metric catalogue every run reports.
//
// End-to-end metrics are workload-generic so that every run reports the
// same names; what op1 and op2 stand for depends on the workload:
//
//   workload   op1                              op2
//   batch      Evaluate(kInflationary), Prop. 2  Evaluate(kStratified), TC+complement
//   serve      reader query (Open + Query)       ApplyUpdate, from its due time

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "src/core/engine.h"
#include "src/relation/relation.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  ///< Small instances, for the self-check.
};

Report RunBatch(const Options& options, Ledger* ledger);
Report RunServe(const Options& options, Ledger* ledger);

/// Times of one engine set-up.
struct SetupTimes {
  double parse_ms = 0;    ///< LoadProgramText + LoadDatabaseText.
  double analyze_ms = 0;  ///< Analyze.
  double total_s = 0;     ///< Everything timed as set-up.
};

/// The set-up repetitions of a run.
struct SetupSummary {
  std::vector<SetupTimes> reps;
  /// Median of one field over the repetitions.
  double Median(double SetupTimes::*field) const;
};

/// Builds an engine from program text and facts, timing each public call
/// (the caller adds its own set-up steps to `times->total_s`). Null, with
/// a failed op recorded, if any call fails.
std::unique_ptr<inflog::Engine> LoadEngine(const std::string& program,
                                           const std::string& facts,
                                           SetupTimes* times, Ledger* ledger);

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 15;

/// Interns `v<i>` names in `engine` for the given vertex tuples.
inflog::Tuple VertexTuple(const inflog::Engine& engine,
                          std::initializer_list<uint32_t> vertices);

/// True iff `relation` holds exactly `expected` (size plus membership).
bool HoldsExactly(const inflog::Relation& relation,
                  const std::vector<inflog::Tuple>& expected);

/// The relation `name` of `state`, or null.
const inflog::Relation* RelationOf(const inflog::Engine& engine,
                                   const inflog::IdbState& state,
                                   const char* name);

/// Adds the end-to-end metrics, in catalogue order.
struct EndToEnd {
  double setup_s = 0;
  std::vector<double> op1_ms;
  double op1_tail = 0.9;  ///< Tail percentile printed for op1.
  std::vector<double> op2_ms;
  double op2_tail = 0.9;
  double ops_per_s = 0;
  double peak_rss_mb = 0;
};
void AddEndToEnd(const EndToEnd& e2e, Report* report);

/// Per-layer values by name. Every name of the catalogue is reported; a
/// layer the workload never enters reads 0.
using LayerValues = std::map<std::string, double>;
void AddPerLayer(const LayerValues& values, Report* report);

/// Per-op averages of the executor / pool counters of an EvalStats, added
/// into `values` (eval.*, opt.*, base.* counts).
void AddEvalStats(const inflog::EvalStats& total, double ops,
                  LayerValues* values);

/// Fills the ground.*, eval.wfs.* and sat.* layers from direct, oracle-
/// checked calls of the grounded pipelines (batch's traced run).
void MeasureGroundedLayers(const Options& options, LayerValues* layers,
                           Ledger* ledger);

/// CPU accounting around serial engine calls on the calling thread.
struct CpuMeter {
  double wall_ms = 0;
  double process_cpu_ms = 0;
  double thread_cpu_ms = 0;
  size_t threads = 1;
  void Into(LayerValues* values) const;  ///< base.cpu_util and share.
};

/// One measured call: start the CPU clocks, run, stop.
class CpuSample {
 public:
  explicit CpuSample(CpuMeter* meter);
  void Stop(double wall_ms);

 private:
  CpuMeter* meter_;
  double process0_;
  double thread0_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
