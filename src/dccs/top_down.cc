#include "dccs/top_down.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dccs/speculative_driver.h"
#include "dccs/vertex_index.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mlcore {

namespace {

// Largest position missing from sorted `positions`, or -1 if none below
// l. l ≤ 64 (validated at entry), so a word-sized mask replaces the Bitset
// this built per tree node.
int MaxComplement(int l, const LayerSet& positions) {
  uint64_t present = 0;
  for (LayerId p : positions) present |= uint64_t{1} << p;
  const uint64_t missing =
      ~present & ((l == 64) ? ~uint64_t{0} : (uint64_t{1} << l) - 1);
  if (missing == 0) return -1;
  return 63 - __builtin_clzll(missing);
}

/// Per-lane RefineU/RefineC machinery of TD-Gen (paper Figs 9/10) with its
/// scratch arenas. The parallel search materialises lattice children on
/// worker lanes concurrently; each lane owns one refiner (and one solver),
/// so the hot-path buffers below never need locks. Refinement is a pure
/// function of (parent potential, child layer set) — independent of the
/// shared top-k state — which is what makes the child materialisations
/// safe to run out of order (DESIGN.md §10).
class TdRefiner {
 public:
  TdRefiner(const MultiLayerGraph& graph, const DccsParams& params,
            const PreprocessResult& preprocess,
            const std::vector<LayerId>& order, const VertexLevelIndex& index,
            DccSolver& solver)
      : graph_(graph),
        params_(params),
        preprocess_(preprocess),
        order_(order),
        index_(index),
        solver_(solver),
        state_(static_cast<size_t>(graph.NumVertices()), kUntouched),
        dplus_(static_cast<size_t>(graph.NumVertices()) *
                   static_cast<size_t>(graph.NumLayers()),
               0),
        in_z_(static_cast<size_t>(graph.NumVertices())) {}

  // RefineU (Fig 9): shrinks the parent's potential set to U^d_{L'}.
  // Refinement Method 2 filters by support over the Class-2 layers against
  // the preprocessed per-layer d-cores (static), then Method 1 peels to
  // d-density on the Class-1 layers; since the Method-2 counts never change
  // during peeling, one pass of each reaches the paper's fixpoint.
  void RefineU(const VertexSet& parent_u, const LayerSet& positions,
               VertexSet* out) {
    const int max_comp = MaxComplement(graph_.NumLayers(), positions);
    class1_.clear();
    class2_.clear();
    for (LayerId p : positions) {
      (p < max_comp ? class1_ : class2_).push_back(p);
    }
    const int need =
        params_.s - static_cast<int>(class1_.size());  // s − |M_{L'}|

    VertexSet& filtered = class1_.empty() ? *out : filter_buf_;
    filtered.clear();
    filtered.reserve(parent_u.size());
    for (VertexId v : parent_u) {
      int count = 0;
      if (need > 0) {
        for (LayerId p : class2_) {
          if (CoreBitsAtPosition(p).Test(static_cast<size_t>(v))) ++count;
          if (count >= need) break;
        }
        if (count < need) continue;  // Method 2 removal
      }
      filtered.push_back(v);
    }
    if (class1_.empty()) return;
    // Method 1: peel to d-density on the must-keep layers.
    ToLayerIdsInto(class1_, &ids_buf_);
    solver_.Compute(ids_buf_, params_.d, filtered, out, params_.dcc_engine);
  }

  // RefineC: computes C^d_{L'}(G) inside U^d_{L'}. Both paths first apply
  // the Lemma 8 stage bound.
  void RefineC(const VertexSet& potential, const LayerSet& positions,
               VertexSet* out) {
    const auto depth = static_cast<int>(positions.size());
    scope_buf_.clear();
    scope_buf_.reserve(potential.size());
    for (VertexId v : potential) {
      if (index_.stage(v) >= depth) scope_buf_.push_back(v);
    }
    ToLayerIdsInto(positions, &ids_buf_);
    if (!params_.use_index_refinec) {
      solver_.Compute(ids_buf_, params_.d, scope_buf_, out,
                      params_.dcc_engine);
      return;
    }
    RefineCIndexed(scope_buf_, ids_buf_, out);
  }

 private:
  const Bitset& CoreBitsAtPosition(int pos) const {
    return preprocess_.layer_core_bits[static_cast<size_t>(
        order_[static_cast<size_t>(pos)])];
  }

  void ToLayerIdsInto(const LayerSet& positions, LayerSet* ids) const {
    PositionsToLayerIds(order_, positions, ids);
  }

  // The index-based Fig 10 search in two passes: (1) keep only vertices
  // reachable through a level-monotone chain of index edges from a vertex
  // whose label L(w) covers L'; (2) peel the reached set to d-density on
  // L'. Pass 1 is unsound — a core member can leave an L'-layer core by
  // cascade while still alive, and same-level neighbours never propagate —
  // so the result can be a strict subset of the d-CC (DESIGN.md §3). Off by
  // default.
  void RefineCIndexed(const VertexSet& scope, const LayerSet& ids,
                      VertexSet* out);

  const MultiLayerGraph& graph_;
  const DccsParams& params_;
  const PreprocessResult& preprocess_;
  const std::vector<LayerId>& order_;
  const VertexLevelIndex& index_;
  DccSolver& solver_;

  // RefineCIndexed scratch (cleared per call along the visited scope).
  static constexpr uint8_t kUntouched = 0;  // unexplored
  static constexpr uint8_t kUndetermined = 1;
  static constexpr uint8_t kDiscarded = 2;
  std::vector<uint8_t> state_;
  std::vector<int32_t> dplus_;
  Bitset in_z_;

  // Reusable buffers: the search calls RefineU/RefineC thousands of times
  // on this lane; these hold their transient layer translations, scope
  // filters and intermediate sets across calls.
  LayerSet class1_, class2_, ids_buf_;
  VertexSet filter_buf_, scope_buf_, reached_buf_;
  std::vector<std::pair<int, VertexId>> by_level_buf_;
  std::vector<VertexId> peel_queue_;
};

void TdRefiner::RefineCIndexed(const VertexSet& scope, const LayerSet& ids,
                               VertexSet* out) {
  const auto l = static_cast<size_t>(graph_.NumLayers());
  out->clear();
  if (scope.empty()) return;

  for (VertexId v : scope) {
    in_z_.Set(static_cast<size_t>(v));
    state_[static_cast<size_t>(v)] = kUntouched;
  }

  // --- Pass 1 (Lemma 9 filter): keep vertices reachable through a
  // level-monotone chain of index edges starting from a vertex whose label
  // covers L'. Sweeping levels in ascending order makes one pass
  // sufficient: a vertex is reached either by its own label or from a
  // strictly lower (already swept) level.
  std::vector<std::pair<int, VertexId>>& by_level = by_level_buf_;
  by_level.clear();
  by_level.reserve(scope.size());
  for (VertexId v : scope) by_level.emplace_back(index_.level(v), v);
  std::sort(by_level.begin(), by_level.end());

  auto label_covers = [&](VertexId v) {
    const LayerSet& label = index_.label(v);
    return std::includes(label.begin(), label.end(), ids.begin(), ids.end());
  };

  VertexSet& reached = reached_buf_;
  reached.clear();
  reached.reserve(scope.size());
  for (const auto& [level, v] : by_level) {
    if (state_[static_cast<size_t>(v)] == kUntouched && !label_covers(v)) {
      state_[static_cast<size_t>(v)] = kDiscarded;
      continue;
    }
    state_[static_cast<size_t>(v)] = kUndetermined;
    reached.push_back(v);
    for (LayerId layer : ids) {
      for (VertexId u : graph_.Neighbors(layer, v)) {
        if (!in_z_.Test(static_cast<size_t>(u))) continue;
        if (state_[static_cast<size_t>(u)] == kUntouched &&
            index_.level(u) > level) {
          // Mark u as reached-from-below; validated when its level sweeps.
          state_[static_cast<size_t>(u)] = kUndetermined;
        }
      }
    }
  }
  std::sort(reached.begin(), reached.end());

  // --- Pass 2: peel `reached` to d-density on L' (cascading deletions on
  // the d⁺ counters — the RefineC/CascadeD bookkeeping of Fig 10).
  for (VertexId v : reached) {
    for (LayerId layer : ids) {
      int32_t count = 0;
      for (VertexId u : graph_.Neighbors(layer, v)) {
        // Every vertex still kUndetermined after pass 1 is in `reached`.
        if (in_z_.Test(static_cast<size_t>(u)) &&
            state_[static_cast<size_t>(u)] == kUndetermined) {
          ++count;
        }
      }
      dplus_[static_cast<size_t>(v) * l + static_cast<size_t>(layer)] = count;
    }
  }
  std::vector<VertexId>& queue = peel_queue_;
  queue.clear();
  for (VertexId v : reached) {
    for (LayerId layer : ids) {
      if (dplus_[static_cast<size_t>(v) * l + static_cast<size_t>(layer)] <
          params_.d) {
        state_[static_cast<size_t>(v)] = kDiscarded;
        queue.push_back(v);
        break;
      }
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    VertexId v = queue[head];
    for (LayerId layer : ids) {
      for (VertexId u : graph_.Neighbors(layer, v)) {
        if (!in_z_.Test(static_cast<size_t>(u)) ||
            state_[static_cast<size_t>(u)] != kUndetermined) {
          continue;
        }
        auto& du =
            dplus_[static_cast<size_t>(u) * l + static_cast<size_t>(layer)];
        if (--du < params_.d) {
          state_[static_cast<size_t>(u)] = kDiscarded;
          queue.push_back(u);
        }
      }
    }
  }

  for (VertexId v : reached) {
    if (state_[static_cast<size_t>(v)] == kUndetermined) out->push_back(v);
  }
  for (VertexId v : scope) {
    in_z_.Clear(static_cast<size_t>(v));
    state_[static_cast<size_t>(v)] = kUntouched;
  }
}

/// TD-Gen (paper Fig 8) on the speculative commit driver (DESIGN.md §10):
/// the recursion below owns every pruning test, Update, rng draw (Lemma 7)
/// and stats increment, applied in the exact order of the sequential
/// search, while the per-child RefineU/RefineC materialisations (all of the
/// heavy lifting) run as tasks on the driver's lanes. The sequential search
/// materialises *every* child of a visited node before pruning any of them
/// (Fig 8 lines 2–5), so unlike the bottom-up case these tasks are not
/// speculative: the only wasted work is what a mid-node stop abandons.
class TopDownSearch {
 public:
  TopDownSearch(const LatticeInputs& in, const VertexLevelIndex& index)
      : graph_(in.graph),
        params_(in.params),
        preprocess_(in.preprocess),
        order_(in.order),
        index_(index),
        result_(in.top_k),
        stats_(in.stats),
        rng_(kSeed),
        driver_(in.graph, in.params, in.exec, in.solver, in.stats,
                in.search_span) {
    lane_refiners_.resize(static_cast<size_t>(driver_.lanes()));
  }

  void Run() {
    const int l = graph_.NumLayers();
    LayerSet root_positions(static_cast<size_t>(l));
    for (int j = 0; j < l; ++j) root_positions[static_cast<size_t>(j)] = j;
    // Fig 11 line 4: the root d-CC w.r.t. all layers.
    VertexSet root_core;
    driver_.RunInline([&](DccSolver& solver) {
      root_core = solver.Compute(ToLayerIds(root_positions), params_.d,
                                 preprocess_.active, params_.dcc_engine);
    });
    if (params_.s == l) {
      if (result_.Update(root_core, ToLayerIds(root_positions))) {
        ++stats_.updates_accepted;
      }
    } else {
      auto root = std::make_shared<Node>();
      root->positions = std::move(root_positions);
      root->potential = &preprocess_.active;
      Prepare(*root);
      SpawnMaterialise(root);
      Gen(root);
    }
    driver_.Finish();
  }

 private:
  static constexpr uint64_t kSeed = 0x5851f42d4c957f2dULL;

  /// One materialised-or-in-flight child (Fig 8 lines 2–5): L' and the
  /// refined U^d_{L'} / C^d_{L'} outputs.
  struct ChildSlot : SpeculativeSlot {
    LayerSet positions;
    VertexSet potential;
    VertexSet core;
  };

  /// A visited lattice node whose children are being materialised. Shared
  /// with task closures (see BottomUpSearch::Node).
  struct Node {
    LayerSet positions;           // the node's L
    VertexSet potential_storage;  // owned for non-root nodes
    const VertexSet* potential = nullptr;
    std::vector<int> removable;   // LR (Fig 8 line 1)
    std::unique_ptr<ChildSlot[]> slots;
  };

  LayerSet ToLayerIds(const LayerSet& positions) const {
    LayerSet ids;
    ToLayerIdsInto(positions, &ids);
    return ids;
  }

  // Buffer-reusing form for transient translations on the hot path.
  void ToLayerIdsInto(const LayerSet& positions, LayerSet* ids) const {
    PositionsToLayerIds(order_, positions, ids);
  }

  /// The lane's refiner, built on first use over the lane's solver. Each
  /// lane is serviced by exactly one thread (lane 0 = the driver), so lazy
  /// init is race-free without synchronisation.
  TdRefiner& RefinerFor(int lane, DccSolver& solver) {
    std::unique_ptr<TdRefiner>& refiner =
        lane_refiners_[static_cast<size_t>(lane)];
    if (refiner == nullptr) {
      refiner = std::make_unique<TdRefiner>(graph_, params_, preprocess_,
                                            order_, index_, solver);
    }
    return *refiner;
  }

  /// The materialisation of child `idx`: RefineU, then RefineC inside it.
  auto Materialisation(Node& node, size_t idx) {
    return [this, &node, idx](int lane, DccSolver& solver) {
      ChildSlot& slot = node.slots[idx];
      TdRefiner& refiner = RefinerFor(lane, solver);
      refiner.RefineU(*node.potential, slot.positions, &slot.potential);
      refiner.RefineC(slot.potential, slot.positions, &slot.core);
    };
  }

  /// Computes LR and the child slots (child layer sets only — the refined
  /// sets are what the tasks fill in).
  void Prepare(Node& node) {
    const int max_comp = MaxComplement(graph_.NumLayers(), node.positions);
    for (LayerId p : node.positions) {
      if (p > max_comp) node.removable.push_back(p);
    }
    const size_t n = node.removable.size();
    if (n == 0) return;
    node.slots = std::make_unique<ChildSlot[]>(n);
    for (size_t idx = 0; idx < n; ++idx) {
      ChildSlot& slot = node.slots[idx];
      slot.positions = node.positions;
      slot.positions.erase(std::find(
          slot.positions.begin(), slot.positions.end(),
          static_cast<LayerId>(node.removable[idx])));
    }
  }

  void SpawnMaterialise(const std::shared_ptr<Node>& node) {
    for (size_t idx = 0; idx < node->removable.size(); ++idx) {
      driver_.Spawn(node, node->slots[idx], Materialisation(*node, idx));
    }
  }

  /// Moves a committed slot into a child node, launches its own children
  /// and descends.
  void Descend(Node& node, size_t idx) {
    ChildSlot& slot = node.slots[idx];
    auto child = std::make_shared<Node>();
    child->positions = std::move(slot.positions);
    child->potential_storage = std::move(slot.potential);
    child->potential = &child->potential_storage;
    Prepare(*child);
    SpawnMaterialise(child);
    Gen(child);
  }

  // TD-Gen (Fig 8), commit side.
  void Gen(const std::shared_ptr<Node>& node) {
    const auto depth = static_cast<int>(node->positions.size());
    const size_t n = node->removable.size();
    if (n == 0) return;

    // Lines 2–5: materialise every child's U and C up front — committed in
    // removable order; the refinement work itself runs on the lanes.
    for (size_t idx = 0; idx < n; ++idx) {
      if (driver_.StopRequested()) {
        SpeculativeDriver::CancelPending(node->slots.get(), n);
        return;
      }
      ++stats_.nodes_visited;
      driver_.WaitSlot(node->slots[idx], Materialisation(*node, idx));
    }

    if (!result_.full()) {
      // Cases 1–2 (lines 6–12).
      for (size_t idx = 0; idx < n; ++idx) {
        if (driver_.StopRequested()) return;
        ChildSlot& slot = node->slots[idx];
        if (depth - 1 == params_.s) {
          ToLayerIdsInto(slot.positions, &ids_buf_);
          if (result_.Update(slot.core, ids_buf_)) {
            ++stats_.updates_accepted;
          }
        } else {
          Descend(*node, idx);
        }
      }
      return;
    }

    // Cases 3–4 (lines 13–29): order children by |U| descending (Lemma 6).
    std::vector<size_t> by_potential;  // local: Gen recurses inside the loop
    by_potential.reserve(n);
    for (size_t idx = 0; idx < n; ++idx) by_potential.push_back(idx);
    std::stable_sort(by_potential.begin(), by_potential.end(),
                     [&](size_t a, size_t b) {
                       return node->slots[a].potential.size() >
                              node->slots[b].potential.size();
                     });
    for (size_t rank = 0; rank < n; ++rank) {
      if (driver_.StopRequested()) return;
      ChildSlot& slot = node->slots[by_potential[rank]];
      if (result_.BelowOrderThreshold(
              static_cast<int64_t>(slot.potential.size()))) {
        stats_.pruned_order += static_cast<int64_t>(n - rank);
        break;  // Lemma 6
      }
      if (depth - 1 == params_.s) {
        ToLayerIdsInto(slot.positions, &ids_buf_);
        if (result_.Update(slot.core, ids_buf_)) {
          ++stats_.updates_accepted;
        }
        continue;
      }
      // Lemma 5: every descendant candidate is contained in U^d_{L'}, so if
      // U fails Eq. (1) the whole subtree is hopeless. (Fig 8 line 23
      // prints C^d_{L'} here; the §V-A text and Lemma 5 establish the bound
      // via the potential set, which is what we check — see DESIGN.md.)
      if (!result_.SatisfiesEq1(slot.potential)) {
        ++stats_.pruned_eq1;
        continue;
      }
      // Lemma 7: in the optimistic regime a single random descendant
      // represents the subtree.
      if (result_.SatisfiesEq1(slot.core) &&
          result_.SatisfiesEq2(static_cast<int64_t>(slot.potential.size()))) {
        if (TryPotentialShortcut(slot.positions, slot.potential)) {
          ++stats_.pruned_potential;
          continue;
        }
      }
      Descend(*node, by_potential[rank]);
    }
  }

  // Lines 25–27 of Fig 8: pick a random size-s descendant S of L', compute
  // its d-CC inside U^d_{L'}, and update R with it. Returns false when L'
  // has no size-s descendant (a dead-end branch of the top-down lattice).
  // Driver-only: the rng_ stream must be drawn in the sequential commit
  // order for results to stay thread-count-invariant.
  bool TryPotentialShortcut(const LayerSet& positions,
                            const VertexSet& potential) {
    const auto depth = static_cast<int>(positions.size());
    const int max_comp = MaxComplement(graph_.NumLayers(), positions);
    std::vector<LayerId> removable;
    for (LayerId p : positions) {
      if (p > max_comp) removable.push_back(p);
    }
    const int to_remove = depth - params_.s;
    if (static_cast<int>(removable.size()) < to_remove) return false;
    std::shuffle(removable.begin(), removable.end(), rng_.engine());
    removable.resize(static_cast<size_t>(to_remove));

    LayerSet descendant;
    for (LayerId p : positions) {
      if (std::find(removable.begin(), removable.end(), p) ==
          removable.end()) {
        descendant.push_back(p);
      }
    }
    scope_buf_.clear();
    scope_buf_.reserve(potential.size());
    for (VertexId v : potential) {
      if (index_.stage(v) >= params_.s) scope_buf_.push_back(v);
    }
    ToLayerIdsInto(descendant, &ids_buf_);
    driver_.RunInline([&](DccSolver& solver) {
      solver.Compute(ids_buf_, params_.d, scope_buf_, &core_buf_,
                     params_.dcc_engine);
    });
    if (result_.Update(core_buf_, ids_buf_)) ++stats_.updates_accepted;
    return true;
  }

  const MultiLayerGraph& graph_;
  const DccsParams& params_;
  const PreprocessResult& preprocess_;
  const std::vector<LayerId>& order_;
  const VertexLevelIndex& index_;
  ConcurrentTopK& result_;
  SearchStats& stats_;
  Rng rng_;

  // Driver-side buffers for Update translations and the shortcut.
  LayerSet ids_buf_;
  VertexSet scope_buf_, core_buf_;

  // Indexed by lane; each lane's refiner wraps that lane's solver.
  std::vector<std::unique_ptr<TdRefiner>> lane_refiners_;

  // Last member: destroyed first, so in-flight task closures finish before
  // the state they reference goes away.
  SpeculativeDriver driver_;
};

}  // namespace

DccsResult TopDownDccs(const MultiLayerGraph& graph, const DccsParams& params) {
  // Per-layer d-cores of preprocessing fan out over a pool scoped to this
  // call; the search phase parallelises over params.search_threads lanes
  // of its own (DESIGN.md §10).
  ThreadPool pool(params.num_threads);
  DccsExecution exec;
  exec.pool = &pool;
  exec.search_threads = params.search_threads;
  return TopDownDccs(graph, params, exec);
}

DccsResult TopDownDccs(const MultiLayerGraph& graph, const DccsParams& params,
                       const DccsExecution& exec) {
  // Fig 11 lines 1–2 (= BU-DCCS lines 1–8, then an ascending layer order)
  // run in the shared entry sequence.
  return RunLatticeSearch(
      graph, params, exec, /*descending_order=*/false,
      [&](const LatticeInputs& in) {
        // Fig 11 line 3: the vertex index (always consulted — RefineC's
        // Lemma 8 stage filter needs it even on the reference path), cached
        // by the engine per (d, s) because it is built over
        // `preprocess.active`.
        std::optional<VertexLevelIndex> local_index;
        if (exec.index == nullptr) {
          local_index.emplace(graph, params.d, in.preprocess.active);
        }
        TopDownSearch search(in, exec.index != nullptr ? *exec.index
                                                       : *local_index);
        search.Run();
      });
}

}  // namespace mlcore
