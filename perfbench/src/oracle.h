#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The benchmark's answer checker. It is deliberately kept apart from the
// program: the d-CC is recomputed here by plain peeling over adjacency
// lists, without DccSolver, the preprocessing caches or any helper of the
// dccs/ module, so a fault in the program cannot hide itself by also
// being in its checker.

#include <string>
#include <vector>

#include "dccs/params.h"
#include "graph/multilayer_graph.h"

namespace perfbench {

using mlcore::DccsParams;
using mlcore::DccsResult;
using mlcore::LayerSet;
using mlcore::MultiLayerGraph;
using mlcore::VertexSet;

/// C^d_L(G) over the whole vertex set: the largest vertex set in which every
/// vertex has at least d neighbours inside the set on every layer of L.
VertexSet PeelCoherentCore(const MultiLayerGraph& graph,
                           const LayerSet& layers, int d);

/// Verdict on one DCCS answer.
struct Verdict {
  /// Empty when the answer is correct. Otherwise the first violation found.
  std::string error;
  /// Cores that are d-dense on their L but strict subsets of C^d_L(G):
  /// valid, not maximal. This is the shape of the known top-down RefineC
  /// fault; every other violation is reported only through `error`.
  int non_maximal_cores = 0;
  /// True when the only violations are non-maximal cores.
  bool only_non_maximal = false;
  bool ok() const { return error.empty(); }
};

/// Checks an answer against the DCCS definition: |L| = s for every core,
/// no layer set twice, at most k cores, every core equal to C^d_L(G), and
/// DccsResult::Cover() equal to the union of the cores.
Verdict CheckAnswer(const MultiLayerGraph& graph, const DccsParams& params,
                    const DccsResult& result);

/// Cover-size relations that hold wherever GD-DCCS and a lattice search
/// answer the same (d, s, k): BU/TD keep 1/4 of the optimum and GD keeps
/// 1 - 1/e of it, so 4·cover(lattice) >= cover(GD) and
/// cover(GD) >= (1 - 1/e)·cover(lattice). Returns "" when both hold.
std::string CheckApproximation(int64_t cover_greedy, int64_t cover_lattice);

/// Feeds CheckAnswer three corrupted copies of a correct answer (a core with
/// a vertex removed, one with a vertex added, one with the wrong |L|) and
/// returns "" when all three are flagged. `answer` must be a correct
/// answer with at least one core.
std::string SelfTest(const MultiLayerGraph& graph, const DccsParams& params,
                     const DccsResult& answer);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
