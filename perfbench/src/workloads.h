#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "dccs/dccs.h"
#include "format/mlg.h"
#include "service/engine.h"

namespace perfbench {

/// Runs one workload for cfg.seconds and checks every answer it got. Sets
/// only the per-layer metrics of the layers the workload exercises.
Outcome RunWorkload(const RunConfig& cfg);

/// One request answered directly through the layers' public functions in
/// the traced run (layers.cc), next to the engine's answer for it.
struct Probe {
  const mlcore::MultiLayerGraph* graph = nullptr;
  mlcore::DccsParams params;
  mlcore::DccsAlgorithm algorithm = mlcore::DccsAlgorithm::kBottomUp;
  /// The engine's answer to the same request; the direct answer must equal
  /// it (the program's determinism contract).
  mlcore::DccsResult expected;
  std::string label;
};

/// Times Preprocess, VertexLevelIndex, ComputeInitSeeds, the three
/// searches with an injected DccsExecution, DccSolver::Compute on the
/// result layer sets, DCore and CoreDecomposition for each probe, and adds
/// the dccs/core per-layer metrics to `out`.
void AddSearchLayerMetrics(const std::vector<Probe>& probes, Outcome* out);

/// Per-query end-to-end samples of engine queries, for the ledger of the
/// traced run.
struct QuerySample {
  double e2e_ms = 0;  // Submit to Wait returning, measured here
  double run_ms = 0;  // DccsResult::stats.total_seconds (the query.run span)
};

/// Reads the engines' exported counters, histograms and slow-query spans
/// and adds the service per-layer metrics, plus the ledger of the given
/// query samples (layer sum and unaccounted remainder), to `out`.
void AddEngineLayerMetrics(const std::vector<const mlcore::Engine*>& engines,
                           const std::vector<QuerySample>& samples,
                           Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
