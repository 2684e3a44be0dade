#ifndef MLCORE_STORE_GRAPH_STORE_H_
#define MLCORE_STORE_GRAPH_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "dynamic/decremental_core.h"
#include "graph/multilayer_graph.h"
#include "obs/metrics.h"
#include "service/status.h"
#include "store/update.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mlcore {

/// Per-layer d-cores (and their supports Num(v)) maintained incrementally
/// for one tracked degree threshold, as materialised into a snapshot.
/// Layers whose core did not change between epochs share the previous
/// snapshot's vertex sets.
struct TrackedCores {
  int d = 0;
  /// Epoch of the last change to any layer's *core-induced subgraph* at
  /// this d: core membership changed, an edited edge had both endpoints
  /// inside a layer's core, or the vertex-id space grew. The engine keys
  /// its (d, s, vertex_deletion) preprocessing entries on this — DCCS
  /// results provably depend only on the per-layer core subgraphs
  /// (DESIGN.md §8), so updates that never touch them keep warm caches.
  uint64_t generation = 0;
  std::vector<std::shared_ptr<const VertexSet>> cores;  // indexed by layer
  std::shared_ptr<const std::vector<int>> support;      // Num(v), size n
};

/// One immutable epoch of an evolving multi-layer graph (DESIGN.md §8).
/// Published atomically by `GraphStore::ApplyUpdate`; queries pin the
/// snapshot they start on via shared_ptr and are never disturbed by later
/// epochs (MVCC).
class GraphSnapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  const MultiLayerGraph& graph() const { return *graph_; }
  const std::shared_ptr<const MultiLayerGraph>& graph_ptr() const {
    return graph_;
  }

  /// Epoch at which `layer`'s edge set last changed (0 = initial).
  uint64_t layer_generation(LayerId layer) const {
    return layer_gens_[static_cast<size_t>(layer)];
  }

  /// Maintained cores for a tracked degree, or nullptr when `d` is not
  /// tracked by the owning store.
  const TrackedCores* tracked(int d) const {
    for (const auto& t : tracked_) {
      if (t.d == d) return &t;
    }
    return nullptr;
  }

  /// Cache-invalidation key for everything derived from the per-layer
  /// d-cores at `d`: the tracked core-subgraph generation when `d` is
  /// tracked, else this epoch (conservative — any change invalidates).
  uint64_t core_generation(int d) const {
    const TrackedCores* t = tracked(d);
    return t != nullptr ? t->generation : epoch_;
  }

 private:
  friend class GraphStore;

  uint64_t epoch_ = 0;
  std::shared_ptr<const MultiLayerGraph> graph_;
  std::vector<uint64_t> layer_gens_;
  std::vector<TrackedCores> tracked_;
};

/// Host for an *evolving* multi-layer graph behind epoch-versioned
/// immutable snapshots (DESIGN.md §8).
///
/// `ApplyUpdate` accepts batched per-layer edge insertions/deletions and
/// vertex add/removes, validates the whole batch up front (a rejected
/// batch changes nothing), builds the next graph epoch via
/// `MultiLayerGraph::EditedCopy` (unchanged layers copied verbatim), and
/// publishes it atomically. Readers obtain `snapshot()` and keep using it
/// for as long as they like — in-flight queries never observe a torn or
/// shifting graph.
///
/// For every degree in `Options::tracked_degrees` the store maintains all
/// per-layer d-cores and supports Num(v) *incrementally* across epochs:
/// deletions cascade core exits through `DecrementalCoreMaintainer`
/// (O(affected edges)); insertions re-core only the affected region,
/// falling back to a full per-layer recomputation past
/// `Options::recore_damage_threshold`. The maintained cores are exact —
/// bit-identical to a from-scratch `DCore`/`CoreDecomposition` of the
/// snapshot graph at every epoch (tests/update_oracle_test.cc) — and are
/// served to the `Engine` as warm base-core caches.
///
/// Thread safety: `ApplyUpdate` calls are serialised internally (one
/// writer at a time); `snapshot()`, `epoch()` and `stats()` may be called
/// concurrently from any thread.
///
/// The layer count is fixed for the store's lifetime; vertex ids grow
/// monotonically and are never recycled.
class GraphStore {
 public:
  /// Epoch-change notification (the hook behind Engine::Subscribe):
  /// invoked by `ApplyUpdate` immediately after a new epoch's snapshot is
  /// published — never for rejected or empty batches. Runs on the updating
  /// thread with the listener registry locked, so listeners must be cheap
  /// (set a flag, notify a condition variable) and must not call back into
  /// this store or register/remove listeners.
  using EpochListener =
      std::function<void(const std::shared_ptr<const GraphSnapshot>&)>;

  struct Options {
    /// Degree thresholds whose per-layer d-cores are maintained
    /// incrementally. Duplicates and negatives are ignored.
    std::vector<int> tracked_degrees;
    /// Bound on the insertion re-coring path: when a batch's affected
    /// region on one layer exceeds this many vertices, that layer's core
    /// is recomputed from scratch instead (the O(m) from-scratch
    /// decomposition stays the fallback). 0 = auto (max(64, n/8));
    /// negative = always recompute (the baseline mode benchmarks and
    /// oracle tests compare against).
    int64_t recore_damage_threshold = 0;
  };

  explicit GraphStore(MultiLayerGraph initial)
      : GraphStore(std::move(initial), Options{}) {}
  GraphStore(MultiLayerGraph initial, Options options);
  /// Shares (or borrows, via an aliasing shared_ptr) the initial graph
  /// instead of copying it.
  explicit GraphStore(std::shared_ptr<const MultiLayerGraph> initial)
      : GraphStore(std::move(initial), Options{}) {}
  GraphStore(std::shared_ptr<const MultiLayerGraph> initial, Options options);

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  const Options& options() const { return options_; }

  /// Layer count — fixed for the store's lifetime (updates are per-layer
  /// edge edits; layers are never added or removed), so this needs no
  /// snapshot and is safe under any concurrency.
  int32_t num_layers() const { return num_layers_; }

  /// The current snapshot. Holding the returned pointer pins that epoch's
  /// graph (and tracked cores) for as long as desired.
  std::shared_ptr<const GraphSnapshot> snapshot() const;

  /// Epoch of the current snapshot (0 before any update).
  uint64_t epoch() const;

  /// Registers an epoch-change listener (see EpochListener for the
  /// invocation contract) and returns a handle for RemoveEpochListener.
  /// Listeners registered mid-ApplyUpdate see only later epochs.
  uint64_t AddEpochListener(EpochListener listener);

  /// Unregisters a listener. Blocks until any in-flight invocation has
  /// returned: once this call completes the listener is never run again
  /// and whatever it captured may be destroyed. Unknown ids are ignored.
  void RemoveEpochListener(uint64_t id);

  /// Validates and applies `batch`, publishing a new epoch. On a
  /// validation error nothing changes and the status names the offending
  /// record. An empty batch is a no-op that publishes nothing.
  Expected<UpdateOutcome> ApplyUpdate(const UpdateBatch& batch);

  StoreStats stats() const;

  /// This store's metric registry (DESIGN.md §12): `store.epoch` gauge plus
  /// `store.apply_update_ms` / `store.listener_notify_ms` latency
  /// histograms. Latency histograms are mirrored into
  /// `obs::Registry::Global()` so process-wide exports see store latency
  /// without enumerating stores.
  const obs::Registry& registry() const { return registry_; }

 private:
  struct NormalizedBatch;

  struct Metrics {
    obs::Gauge* epoch = nullptr;
    obs::Histogram* apply_update_ms = nullptr;
    obs::Histogram* apply_update_ms_global = nullptr;
    obs::Histogram* listener_notify_ms = nullptr;
    obs::Histogram* listener_notify_ms_global = nullptr;
  };

  Status Normalize(const GraphSnapshot& base, const UpdateBatch& batch,
                   NormalizedBatch* out) const;
  int64_t DamageThreshold(int32_t num_vertices) const;

  const Options options_;
  int32_t num_layers_ = 0;

  // Writer state: maintainers mutate in place epoch to epoch, guarded by
  // update_mu_ (which also serialises ApplyUpdate itself).
  util::Mutex update_mu_{util::lock_rank::kStoreWriter,
                         "GraphStore::update_mu_"};
  // Sanitised, sorted, deduped.
  std::vector<int> tracked_degrees_ MLCORE_GUARDED_BY(update_mu_);
  std::vector<std::unique_ptr<DecrementalCoreMaintainer>> maintainers_
      MLCORE_GUARDED_BY(update_mu_);

  mutable util::Mutex snapshot_mu_{util::lock_rank::kStoreSnapshot,
                                   "GraphStore::snapshot_mu_"};
  std::shared_ptr<const GraphSnapshot> current_
      MLCORE_GUARDED_BY(snapshot_mu_);

  // Listener registry. Invocation happens under listeners_mu_ (holding the
  // lock for the whole sweep is what lets RemoveEpochListener guarantee
  // no in-flight callback survives it), after snapshot_mu_ is released —
  // listeners observe the already-published epoch.
  mutable util::Mutex listeners_mu_{util::lock_rank::kStoreListeners,
                                    "GraphStore::listeners_mu_"};
  uint64_t next_listener_id_ MLCORE_GUARDED_BY(listeners_mu_) = 1;
  std::vector<std::pair<uint64_t, EpochListener>> listeners_
      MLCORE_GUARDED_BY(listeners_mu_);

  mutable util::Mutex stats_mu_{util::lock_rank::kStoreStats,
                                "GraphStore::stats_mu_"};
  StoreStats stats_ MLCORE_GUARDED_BY(stats_mu_);

  // Declared after everything the constructor reads; metric pointers are
  // resolved once at construction and recorded through lock-free.
  obs::Registry registry_;
  Metrics metrics_;
};

}  // namespace mlcore

#endif  // MLCORE_STORE_GRAPH_STORE_H_
