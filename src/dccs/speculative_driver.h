#ifndef MLCORE_DCCS_SPECULATIVE_DRIVER_H_
#define MLCORE_DCCS_SPECULATIVE_DRIVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/dcc.h"
#include "dccs/concurrent_topk.h"
#include "dccs/execution.h"
#include "dccs/params.h"
#include "dccs/preprocess.h"
#include "graph/multilayer_graph.h"
#include "obs/span.h"
#include "util/task_group.h"
#include "util/timing.h"

namespace mlcore {

/// The §IV-C preprocessing a DCCS search runs over: `exec.preprocess` when
/// the host injected one, else a local run stored in `*local` under a
/// "query.preprocess" span, with `stats->preprocess_seconds` recorded.
/// Returns null when that local run was stopped before its fixpoint (no
/// usable partial result); `stats->stopped` then says why. Shared by all
/// three DCCS algorithms.
const PreprocessResult* AcquirePreprocess(
    const MultiLayerGraph& graph, const DccsParams& params,
    const DccsExecution& exec, std::optional<PreprocessResult>* local,
    SearchStats* stats);

/// What the shared BU/TD entry sequence (RunLatticeSearch) hands to an
/// algorithm's lattice search. Everything is borrowed for the call.
struct LatticeInputs {
  const MultiLayerGraph& graph;
  const DccsParams& params;
  const DccsExecution& exec;
  const PreprocessResult& preprocess;
  /// Sorted layer order: the search addresses layers by position in it.
  const std::vector<LayerId>& order;
  /// The driver thread's solver (lane 0).
  DccSolver& solver;
  /// R, already seeded by InitTopK.
  ConcurrentTopK& top_k;
  SearchStats& stats;
  /// The "query.search" span; lane spans attach under it.
  obs::SpanId search_span;
};

/// The entry sequence BU-DCCS (Fig 7) and TD-DCCS (Fig 11) share: the
/// s > l / l > 64 guard, vertex deletion (AcquirePreprocess), the solver,
/// the InitTopK-seeded R (copied from `exec.seeded_topk`, replayed from
/// `exec.seeds` or computed), the sorted layer order (descending
/// |C^d(G_i)| for BU, ascending for TD), then `search` inside the
/// "query.search" span, the "query.cover" span and the stats tail. The
/// search must end with SpeculativeDriver::Finish, which folds its dCC
/// evaluation counts into the stats.
DccsResult RunLatticeSearch(
    const MultiLayerGraph& graph, const DccsParams& params,
    const DccsExecution& exec, bool descending_order,
    const std::function<void(const LatticeInputs&)>& search);

// Lifecycle of one speculative evaluation slot (DESIGN.md §10). Exactly one
// thread wins the kPending -> kRunning CAS: a task-group lane, or the commit
// driver claiming the slot inline (which at one lane is how every slot
// runs, reproducing the sequential search). A slot the driver gives up on
// moves kPending -> kCancelled and is never evaluated.
inline constexpr uint8_t kSlotPending = 0;
inline constexpr uint8_t kSlotRunning = 1;
inline constexpr uint8_t kSlotDone = 2;
inline constexpr uint8_t kSlotCancelled = 3;

/// The state every evaluation slot carries. An algorithm's slot derives
/// from it and adds the evaluation's inputs and outputs.
struct SpeculativeSlot {
  /// dCC evaluations the slot's evaluation made (valid once kSlotDone).
  int64_t solver_calls = 0;
  std::atomic<uint8_t> state{kSlotPending};
};

/// The speculative commit driver of the parallel BU/TD lattice searches
/// (DESIGN.md §10). The algorithm's recursion runs on the driver thread and
/// makes every pruning, ordering, recursion and top-k decision in the exact
/// order of the sequential search; the expensive child evaluations run as
/// speculative tasks on a work-stealing TaskGroup of `exec.search_threads`
/// lanes (lane 0 being the driver). The driver commits a slot only through
/// WaitSlot, so results are bit-identical at any lane count; evaluations
/// nobody commits are counted as SearchStats::speculative_evals.
///
/// Evaluation bodies are passed as `eval(int lane, DccSolver& solver)`
/// template arguments: the only type-erased call per evaluation is the
/// TaskGroup::Task a spawned slot rides on.
class SpeculativeDriver {
 public:
  /// Starts the time-budget clock. Builds the TaskGroup only when
  /// `exec.search_threads > 1`.
  SpeculativeDriver(const MultiLayerGraph& graph, const DccsParams& params,
                    const DccsExecution& exec, DccSolver& solver,
                    SearchStats& stats, obs::SpanId lane_parent);

  SpeculativeDriver(const SpeculativeDriver&) = delete;
  SpeculativeDriver& operator=(const SpeculativeDriver&) = delete;

  /// Lane count, driver included (>= 1).
  int lanes() const { return lanes_; }
  /// Whether a TaskGroup exists, i.e. spawned slots can run on other lanes.
  bool parallel() const { return group_.has_value(); }

  /// Cooperative checkpoint, polled by the driver at lattice-node
  /// boundaries: the anytime time_budget_seconds plus the injected
  /// QueryControl's cancellation and deadline. Once one fires it stays
  /// latched in the stats; for budget and deadline the current top-k set
  /// becomes the (anytime) result, for cancellation the caller discards it.
  bool StopRequested();

  /// Claims `slot` for `lane` and runs `eval(lane, solver)` on that lane's
  /// solver. No-op when another thread (or a cancellation) owns the slot.
  template <typename Eval>
  void RunSlot(SpeculativeSlot& slot, int lane, const Eval& eval);

  /// Queues `slot`'s evaluation on the task group; no-op at one lane.
  /// `owner` keeps the slot's storage alive until the task has run or been
  /// discarded.
  template <typename Eval>
  void Spawn(std::shared_ptr<const void> owner, SpeculativeSlot& slot,
             Eval eval);

  /// Commits `slot`: claims it inline when no lane has, otherwise helps
  /// drain the task group until the claiming lane marks it done. Counts the
  /// slot's dCC evaluations as committed.
  template <typename Eval>
  void WaitSlot(SpeculativeSlot& slot, const Eval& eval) {
    RunSlot(slot, 0, eval);
    HelpUntilDone(slot);
  }

  /// Cancels `slot` unless a lane has already claimed it.
  static void CancelSlot(SpeculativeSlot& slot);
  template <typename Slot>
  static void CancelPending(Slot* slots, size_t n) {
    for (size_t idx = 0; idx < n; ++idx) CancelSlot(slots[idx]);
  }

  /// Runs `fn(solver)` on the driver's own solver, outside any slot, and
  /// counts its dCC evaluations as committed.
  template <typename Fn>
  void RunInline(const Fn& fn);

  /// Joins the task group (discarding stale tasks), commits one
  /// "search.lane" span per lane that evaluated anything, and adds the
  /// committed evaluations to stats.candidates_generated and the rest to
  /// stats.speculative_evals. Call once, at the end of the search.
  void Finish();

 private:
  /// One lane's claimed-evaluation busy time (wall + thread CPU). Written
  /// only by the lane's thread while the group runs, read after it joins.
  /// Cache-line aligned so lanes never false-share.
  struct alignas(64) LaneObs {
    double busy_seconds = 0;
    double cpu_seconds = 0;
    int64_t evals = 0;
  };

  /// Lane `lane`'s solver: the driver's for lane 0, else
  /// `exec.worker_solver(lane)` or a fallback owned by the driver. Each
  /// lane is serviced by exactly one thread, so the lazy resolution needs
  /// no synchronisation.
  DccSolver& SolverFor(int lane);
  LaneObs* LaneFor(int lane) {
    return lane_obs_.empty() ? nullptr : &lane_obs_[static_cast<size_t>(lane)];
  }
  void FinishSlot(SpeculativeSlot& slot, int64_t solver_calls);
  void HelpUntilDone(SpeculativeSlot& slot);
  void CommitLaneSpans();

  const MultiLayerGraph& graph_;
  const DccsParams& params_;
  const DccsExecution& exec_;
  DccSolver& solver_;
  SearchStats& stats_;
  const obs::SpanId lane_parent_;
  const int lanes_;
  WallTimer budget_timer_;

  int64_t committed_calls_ = 0;  // driver thread only
  std::atomic<int64_t> executed_calls_{0};

  std::vector<LaneObs> lane_obs_;  // empty unless parallel and traced
  std::vector<DccSolver*> lane_solvers_;
  std::vector<std::unique_ptr<DccSolver>> owned_solvers_;

  // Last member: destroyed first, so in-flight task closures finish before
  // the lane state above goes away. The algorithm's search holds the driver
  // as its own last member for the same reason.
  std::optional<TaskGroup> group_;
};

template <typename Eval>
void SpeculativeDriver::RunSlot(SpeculativeSlot& slot, int lane,
                                const Eval& eval) {
  uint8_t expected = kSlotPending;
  if (!slot.state.compare_exchange_strong(expected, kSlotRunning,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return;
  }
  DccSolver& solver = SolverFor(lane);
  const int64_t before = solver.num_calls();
  if (LaneObs* obs = LaneFor(lane)) {
    WallTimer busy;
    ThreadCpuTimer cpu;
    eval(lane, solver);
    obs->busy_seconds += busy.Seconds();
    const double cpu_seconds = cpu.Seconds();
    if (cpu_seconds > 0) obs->cpu_seconds += cpu_seconds;
    ++obs->evals;
  } else {
    eval(lane, solver);
  }
  FinishSlot(slot, solver.num_calls() - before);
}

template <typename Eval>
void SpeculativeDriver::Spawn(std::shared_ptr<const void> owner,
                              SpeculativeSlot& slot, Eval eval) {
  if (!group_) return;
  group_->Spawn(0, [this, owner = std::move(owner), &slot,
                    eval = std::move(eval)](int lane) {
    RunSlot(slot, lane, eval);
  });
}

template <typename Fn>
void SpeculativeDriver::RunInline(const Fn& fn) {
  const int64_t before = solver_.num_calls();
  fn(solver_);
  const int64_t calls = solver_.num_calls() - before;
  committed_calls_ += calls;
  executed_calls_.fetch_add(calls, std::memory_order_relaxed);
}

}  // namespace mlcore

#endif  // MLCORE_DCCS_SPECULATIVE_DRIVER_H_
