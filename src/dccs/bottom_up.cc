#include "dccs/bottom_up.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dccs/speculative_driver.h"
#include "util/thread_pool.h"

namespace mlcore {

namespace {

/// The BU-Gen search (paper Fig 3) on the speculative commit driver
/// (DESIGN.md §10): the recursion below makes every pruning, ordering,
/// recursion and top-k decision in the exact order and against the exact
/// state of the sequential search, while the d-CC evaluations of lattice
/// children (the expensive part) run as speculative tasks. A stale
/// published bound only launches evaluations the driver later discards, so
/// results are bit-identical at any lane count. Layers are addressed by
/// *position* in the sorted layer order (Fig 7 line 9); positions are
/// translated back to original layer ids whenever a dCC is computed or
/// reported.
class BottomUpSearch {
 public:
  explicit BottomUpSearch(const LatticeInputs& in)
      : params_(in.params),
        preprocess_(in.preprocess),
        order_(in.order),
        result_(in.top_k),
        stats_(in.stats),
        num_layers_(in.graph.NumLayers()),
        driver_(in.graph, in.params, in.exec, in.solver, in.stats,
                in.search_span) {}

  void Run() {
    auto root = std::make_shared<Node>();
    root->core = &preprocess_.active;
    root->excluded = 0;
    Prepare(*root);
    SpawnEvals(root);
    Gen(root);
    driver_.Finish();
  }

 private:
  struct EvalSlot : SpeculativeSlot {
    LayerSet ids;     // the child's L translated to layer ids
    VertexSet core;   // output: C^d_L of the child
  };

  /// One prepared lattice node: its children's scopes and evaluation
  /// slots, indexed like `expandable`. Shared with task closures, which
  /// may outlive the driver's interest in the node (a cancelled slot's
  /// task still holds a reference until a lane pops and skips it).
  struct Node {
    LayerSet positions;        // the node's L (ascending positions)
    VertexSet core_storage;    // owned for non-root nodes
    const VertexSet* core = nullptr;
    uint64_t excluded = 0;     // LQ bitmask of Lemma 4 exclusions
    bool leaf_children = false;
    std::vector<int> expandable;      // LP (Fig 3 line 1)
    std::vector<VertexSet> scopes;    // C ∩ C^d(G_j) per expandable child
    std::unique_ptr<EvalSlot[]> slots;
  };

  const VertexSet& CoreAtPosition(int pos) const {
    return preprocess_.layer_cores[static_cast<size_t>(
        order_[static_cast<size_t>(pos)])];
  }

  /// The evaluation of child `idx`: C^d_L inside its scope.
  auto Evaluation(Node& node, size_t idx) const {
    return [this, &node, idx](int /*lane*/, DccSolver& solver) {
      EvalSlot& slot = node.slots[idx];
      solver.Compute(slot.ids, params_.d, node.scopes[idx], &slot.core,
                     params_.dcc_engine);
    };
  }

  void CancelPending(Node& node) {
    SpeculativeDriver::CancelPending(node.slots.get(), node.expandable.size());
  }

  /// Computes LP, the per-child scopes and the child evaluation slots.
  /// Pure derivation from the node's (positions, core, excluded) — safe to
  /// run any time before the node is committed.
  void Prepare(Node& node) {
    const int max_pos = node.positions.empty() ? -1 : node.positions.back();
    for (int j = max_pos + 1; j < num_layers_; ++j) {
      if ((node.excluded >> j) & 1) continue;
      node.expandable.push_back(j);
    }
    node.leaf_children =
        static_cast<int>(node.positions.size()) + 1 == params_.s;
    const size_t n = node.expandable.size();
    if (n == 0) return;
    node.scopes.resize(n);
    node.slots = std::make_unique<EvalSlot[]>(n);
    for (size_t idx = 0; idx < n; ++idx) {
      const int j = node.expandable[idx];
      IntersectSortedInto(*node.core, CoreAtPosition(j), &node.scopes[idx]);
      positions_buf_ = node.positions;
      positions_buf_.push_back(static_cast<LayerId>(j));
      PositionsToLayerIds(order_, positions_buf_, &node.slots[idx].ids);
    }
  }

  /// Launches the node's child evaluations on the task group, largest
  /// scope first (the order the commit loop consumes once R is full).
  /// Children already hopeless under the *published* bound are not
  /// launched: if the driver nevertheless needs one (the published bound
  /// was stale), it claims the still-pending slot inline.
  void SpawnEvals(const std::shared_ptr<Node>& node) {
    if (!driver_.parallel()) return;
    const size_t n = node->expandable.size();
    if (n == 0) return;
    spawn_order_.clear();
    for (size_t idx = 0; idx < n; ++idx) spawn_order_.push_back(idx);
    if (result_.SpeculativelyFull()) {
      std::stable_sort(spawn_order_.begin(), spawn_order_.end(),
                       [&](size_t a, size_t b) {
                         return node->scopes[a].size() > node->scopes[b].size();
                       });
    }
    for (size_t idx : spawn_order_) {
      if (result_.SpeculativelyBelowOrderThreshold(
              static_cast<int64_t>(node->scopes[idx].size()))) {
        continue;
      }
      driver_.Spawn(node, node->slots[idx], Evaluation(*node, idx));
    }
  }

  // BU-Gen (Fig 3), commit side. Every stats increment, Update call,
  // pruning test and recursion decision below happens on this thread in
  // the sequential DFS order.
  void Gen(const std::shared_ptr<Node>& node) {
    const size_t n = node->expandable.size();
    if (n == 0) return;
    const bool leaf = node->leaf_children;

    struct ChildRef {
      int position;
      size_t idx;
    };
    std::vector<ChildRef> recurse;  // the LR set (slots hold their d-CCs)
    uint64_t in_lr = 0;

    if (!result_.full()) {
      // Lines 2–9: no pruning is applicable while |R| < k.
      for (size_t idx = 0; idx < n; ++idx) {
        if (driver_.StopRequested()) {
          CancelPending(*node);
          return;
        }
        const int j = node->expandable[idx];
        ++stats_.nodes_visited;
        EvalSlot& slot = node->slots[idx];
        driver_.WaitSlot(slot, Evaluation(*node, idx));
        if (leaf) {
          if (result_.Update(slot.core, slot.ids)) {
            ++stats_.updates_accepted;
          }
        } else if (!slot.core.empty()) {
          in_lr |= uint64_t{1} << j;
          recurse.push_back(ChildRef{j, idx});
        }
      }
    } else {
      // Lines 10–22: sort candidates by |C ∩ C^d(G_j)| descending and
      // apply order-based (Lemma 3), Eq. (1) (Lemma 2) and layer (Lemma 4)
      // pruning. Only the index permutation is sorted.
      order_buf_.clear();
      for (size_t idx = 0; idx < n; ++idx) order_buf_.push_back(idx);
      std::stable_sort(order_buf_.begin(), order_buf_.end(),
                       [&](size_t a, size_t b) {
                         return node->scopes[a].size() > node->scopes[b].size();
                       });
      for (size_t rank = 0; rank < n; ++rank) {
        if (driver_.StopRequested()) {
          CancelPending(*node);
          return;
        }
        const size_t idx = order_buf_[rank];
        const int j = node->expandable[idx];
        const VertexSet& scope = node->scopes[idx];
        if (result_.BelowOrderThreshold(static_cast<int64_t>(scope.size()))) {
          // Lemma 3: this and all later children in the order are hopeless.
          stats_.pruned_order += static_cast<int64_t>(n - rank);
          for (size_t r = rank; r < n; ++r) {
            SpeculativeDriver::CancelSlot(node->slots[order_buf_[r]]);
          }
          break;
        }
        ++stats_.nodes_visited;
        EvalSlot& slot = node->slots[idx];
        driver_.WaitSlot(slot, Evaluation(*node, idx));
        if (leaf) {
          if (result_.Update(slot.core, slot.ids)) {
            ++stats_.updates_accepted;
          }
        } else if (!slot.core.empty() && result_.SatisfiesEq1(slot.core)) {
          in_lr |= uint64_t{1} << j;
          recurse.push_back(ChildRef{j, idx});
        } else {
          ++stats_.pruned_eq1;  // Lemma 2 subtree prune
        }
      }
    }

    if (static_cast<int>(node->positions.size()) + 1 >= params_.s) return;

    // Lemma 4: positions tried here but not admitted to LR are excluded in
    // the whole subtree below (LQ ∪ (LP − LR), line 26).
    uint64_t child_excluded = node->excluded;
    for (int j : node->expandable) {
      if (!((in_lr >> j) & 1)) {
        child_excluded |= uint64_t{1} << j;
        ++stats_.pruned_layer;
      }
    }

    // Prepare and launch every admitted subtree before descending into the
    // first: sibling subtrees evaluate on the workers while the driver
    // commits this one — the frontier spans the whole DFS spine.
    std::vector<std::shared_ptr<Node>> children;
    children.reserve(recurse.size());
    for (const ChildRef& ref : recurse) {
      auto child = std::make_shared<Node>();
      child->positions = node->positions;
      child->positions.push_back(static_cast<LayerId>(ref.position));
      child->core_storage = std::move(node->slots[ref.idx].core);
      child->core = &child->core_storage;
      child->excluded = child_excluded;
      Prepare(*child);
      SpawnEvals(child);
      children.push_back(std::move(child));
    }
    for (size_t c = 0; c < children.size(); ++c) {
      if (driver_.StopRequested()) {
        for (size_t rest = c; rest < children.size(); ++rest) {
          CancelPending(*children[rest]);
        }
        return;
      }
      Gen(children[c]);
    }
  }

  const DccsParams& params_;
  const PreprocessResult& preprocess_;
  const std::vector<LayerId>& order_;
  ConcurrentTopK& result_;
  SearchStats& stats_;
  const int num_layers_;

  // Driver-side reusable buffers (never touched by tasks).
  LayerSet positions_buf_;
  std::vector<size_t> order_buf_, spawn_order_;

  // Last member: destroyed first, so in-flight task closures (which
  // reference this object and its nodes) finish before anything above
  // goes away.
  SpeculativeDriver driver_;
};

}  // namespace

DccsResult BottomUpDccs(const MultiLayerGraph& graph,
                        const DccsParams& params) {
  // Per-layer d-cores of preprocessing fan out over a pool scoped to this
  // call; the search phase parallelises over params.search_threads lanes
  // of its own (DESIGN.md §10).
  ThreadPool pool(params.num_threads);
  DccsExecution exec;
  exec.pool = &pool;
  exec.search_threads = params.search_threads;
  return BottomUpDccs(graph, params, exec);
}

DccsResult BottomUpDccs(const MultiLayerGraph& graph, const DccsParams& params,
                        const DccsExecution& exec) {
  // Fig 7 lines 1–9 run in the shared entry sequence; line 10, the
  // recursive candidate generation, is the search.
  return RunLatticeSearch(graph, params, exec, /*descending_order=*/true,
                          [](const LatticeInputs& in) {
                            BottomUpSearch search(in);
                            search.Run();
                          });
}

}  // namespace mlcore
