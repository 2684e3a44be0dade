#include "dccs/speculative_driver.h"

#include <algorithm>
#include <thread>

#include "dccs/cover.h"
#include "util/check.h"

namespace mlcore {

const PreprocessResult* AcquirePreprocess(
    const MultiLayerGraph& graph, const DccsParams& params,
    const DccsExecution& exec, std::optional<PreprocessResult>* local,
    SearchStats* stats) {
  // An injected §IV-C result leaves preprocess_seconds at 0: the host
  // reports its true acquisition cost.
  if (exec.preprocess != nullptr) return exec.preprocess;
  obs::Span preprocess_span(exec.trace, "query.preprocess", exec.trace_parent);
  *local = Preprocess(graph, params.d, params.s, params.vertex_deletion,
                      exec.pool, /*base_cores=*/nullptr, exec.control);
  stats->preprocess_seconds = (*local)->seconds;
  if ((*local)->stopped != QueryStop::kNone) {
    stats->stopped = (*local)->stopped;
    return nullptr;
  }
  return &**local;
}

DccsResult RunLatticeSearch(
    const MultiLayerGraph& graph, const DccsParams& params,
    const DccsExecution& exec, bool descending_order,
    const std::function<void(const LatticeInputs&)>& search) {
  // Guaranteed by Engine::Validate on every request path; debug-only so a
  // malformed direct call still trips in development builds.
  MLCORE_DCHECK(params.s >= 1);
  MLCORE_DCHECK(params.k >= 1);

  WallTimer total_timer;
  DccsResult result;
  // > 64 layers: the lattice's word-sized position masks cannot represent
  // the layer subsets. Library callers get the same (empty) result as the
  // vacuous s > l case; the Engine rejects such requests up front with
  // kInvalidArgument instead of ever dispatching here (DESIGN.md §5).
  // A preprocess stopped before its fixpoint also returns empty: no search
  // phase over a partial result.
  std::optional<PreprocessResult> local_preprocess;
  const PreprocessResult* preprocess =
      params.s > graph.NumLayers() || graph.NumLayers() > 64
          ? nullptr
          : AcquirePreprocess(graph, params, exec, &local_preprocess,
                              &result.stats);
  if (preprocess == nullptr) {
    result.stats.total_seconds = total_timer.Seconds();
    return result;
  }

  obs::Span search_span(exec.trace, "query.search", exec.trace_parent);
  const WallTimer& search_timer = search_span.timer();
  std::optional<DccSolver> local_solver;
  if (exec.solver == nullptr) local_solver.emplace(graph);
  DccSolver& solver = exec.solver != nullptr ? *exec.solver : *local_solver;

  // Fig 7 line 8: greedy initialisation of R (Appendix D), copied from an
  // already-seeded prototype, replayed from a cached capture, or computed.
  // All three leave the identical seeded state; the capture's recorded dCC
  // evaluations keep candidates_generated exact.
  CoverageIndex seeded(params.k);
  if (exec.seeded_topk != nullptr) {
    seeded = *exec.seeded_topk;
    result.stats.candidates_generated =
        exec.seeds != nullptr ? exec.seeds->solver_calls : 0;
  } else if (exec.seeds != nullptr) {
    ReplayInitSeeds(*exec.seeds, seeded);
    result.stats.candidates_generated = exec.seeds->solver_calls;
  } else {
    const int64_t calls_before = solver.num_calls();
    InitTopK(graph, params, *preprocess, solver, seeded);
    result.stats.candidates_generated = solver.num_calls() - calls_before;
  }
  // Fig 7 line 9 / Fig 11 line 2: layers sorted by |C^d(G_i)|, cached by
  // the Engine per query entry.
  std::optional<std::vector<LayerId>> local_order;
  if (exec.layer_order == nullptr) {
    local_order =
        SortedLayerOrder(*preprocess, descending_order, params.sort_layers);
  }
  const std::vector<LayerId>& order =
      exec.layer_order != nullptr ? *exec.layer_order : *local_order;

  ConcurrentTopK top_k(std::move(seeded));
  search(LatticeInputs{graph, params, exec, *preprocess, order, solver, top_k,
                       result.stats, search_span.id()});
  search_span.End();

  obs::Span cover_span(exec.trace, "query.cover", exec.trace_parent);
  result.cores = top_k.index().entries();
  cover_span.End();
  result.stats.search_seconds = search_timer.Seconds();
  result.stats.total_seconds = total_timer.Seconds();
  return result;
}

SpeculativeDriver::SpeculativeDriver(const MultiLayerGraph& graph,
                                     const DccsParams& params,
                                     const DccsExecution& exec,
                                     DccSolver& solver, SearchStats& stats,
                                     obs::SpanId lane_parent)
    : graph_(graph),
      params_(params),
      exec_(exec),
      solver_(solver),
      stats_(stats),
      lane_parent_(lane_parent),
      lanes_(std::max(1, exec.search_threads)) {
  if (lanes_ > 1) {
    lane_solvers_.resize(static_cast<size_t>(lanes_), nullptr);
    owned_solvers_.resize(static_cast<size_t>(lanes_));
    if (obs::kEnabled && exec_.trace != nullptr) {
      lane_obs_.resize(static_cast<size_t>(lanes_));
    }
    group_.emplace(lanes_);
  }
}

bool SpeculativeDriver::StopRequested() {
  if (stats_.stopped != QueryStop::kNone) return true;
  return LatchQueryStop(
      CheckQueryStop(exec_.control, params_.time_budget_seconds,
                     budget_timer_),
      &stats_);
}

void SpeculativeDriver::CancelSlot(SpeculativeSlot& slot) {
  uint8_t expected = kSlotPending;
  slot.state.compare_exchange_strong(expected, kSlotCancelled,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire);
}

DccSolver& SpeculativeDriver::SolverFor(int lane) {
  if (lane == 0) return solver_;
  DccSolver*& solver = lane_solvers_[static_cast<size_t>(lane)];
  if (solver == nullptr) {
    if (exec_.worker_solver) {
      solver = exec_.worker_solver(lane);
    } else {
      owned_solvers_[static_cast<size_t>(lane)] =
          std::make_unique<DccSolver>(graph_);
      solver = owned_solvers_[static_cast<size_t>(lane)].get();
    }
  }
  return *solver;
}

void SpeculativeDriver::FinishSlot(SpeculativeSlot& slot,
                                   int64_t solver_calls) {
  slot.solver_calls = solver_calls;
  executed_calls_.fetch_add(solver_calls, std::memory_order_relaxed);
  slot.state.store(kSlotDone, std::memory_order_release);
}

void SpeculativeDriver::HelpUntilDone(SpeculativeSlot& slot) {
  while (slot.state.load(std::memory_order_acquire) != kSlotDone) {
    if (!group_ || !group_->TryRunOne(0)) std::this_thread::yield();
  }
  committed_calls_ += slot.solver_calls;
}

void SpeculativeDriver::Finish() {
  // Joining quiesces the lanes, so the per-lane aggregates are complete
  // before they become spans; stale speculative tasks are discarded.
  group_.reset();
  CommitLaneSpans();
  stats_.candidates_generated += committed_calls_;
  stats_.speculative_evals =
      executed_calls_.load(std::memory_order_relaxed) - committed_calls_;
}

void SpeculativeDriver::CommitLaneSpans() {
  for (const LaneObs& lane : lane_obs_) {
    if (lane.evals == 0) continue;
    exec_.trace->Add("search.lane", lane_parent_, exec_.trace->AgeMs(),
                     lane.busy_seconds * 1e3,
                     lane.cpu_seconds > 0 ? lane.cpu_seconds * 1e3 : -1);
  }
}

}  // namespace mlcore
