// Per-layer figures of the traced run. Everything here is read from the
// program's public surface: calls into each layer's functions timed by the
// benchmark, the search counters of DccsResult::stats, the spans a search
// commits into a caller-supplied obs::Trace, and the engine's exported
// counters, histograms and slow-query spans. Nothing is added inside the
// program.

#include <map>
#include <memory>

#include "core/dcc.h"
#include "core/dcore.h"
#include "dccs/preprocess.h"
#include "dccs/vertex_index.h"
#include "workloads.h"

namespace perfbench {

using mlcore::DccsAlgorithm;

namespace {

// Search lanes of the probe that measures speculative waste.
constexpr int kProbeLanes = 4;

DccsResult Search(const MultiLayerGraph& graph, const DccsParams& params,
                  DccsAlgorithm algorithm,
                  const mlcore::DccsExecution& exec) {
  switch (algorithm) {
    case DccsAlgorithm::kGreedy:
      return mlcore::GreedyDccs(graph, params, exec);
    case DccsAlgorithm::kTopDown:
      return mlcore::TopDownDccs(graph, params, exec);
    default:
      return mlcore::BottomUpDccs(graph, params, exec);
  }
}

int64_t EdgesOn(const MultiLayerGraph& graph, const mlcore::LayerSet& layers) {
  int64_t edges = 0;
  for (auto layer : layers) edges += graph.NumEdges(layer);
  return edges;
}

double Millis(double since) { return (Now() - since) * 1e3; }

}  // namespace

void AddSearchLayerMetrics(const std::vector<Probe>& probes, Outcome* out) {
  std::vector<double> dcore_ms, preprocess_ms, active_share, index_ms,
      seeds_ms, cover_ms, pipeline_rest_ms;
  std::map<DccsAlgorithm, std::vector<double>> search_ms;
  mlcore::SearchStats sum;
  int64_t committed = 0, speculative = 0, dcc_calls = 0;
  double dcc_edges = 0, dcc_s = 0, bz_edges = 0, bz_s = 0;
  for (const Probe& probe : probes) {
    const MultiLayerGraph& graph = *probe.graph;
    const DccsParams& params = probe.params;
    const double pipeline_start = Now();

    double t = Now();
    std::vector<VertexSet> base(static_cast<size_t>(graph.NumLayers()));
    for (mlcore::LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
      base[layer] = mlcore::DCore(graph, layer, params.d);
    }
    dcore_ms.push_back(Millis(t));
    double layer_sum = dcore_ms.back();

    t = Now();
    const mlcore::PreprocessResult pre = mlcore::Preprocess(
        graph, params.d, params.s, params.vertex_deletion, nullptr, &base);
    preprocess_ms.push_back(Millis(t));
    layer_sum += preprocess_ms.back();
    active_share.push_back(static_cast<double>(pre.active.size()) /
                           std::max(1, graph.NumVertices()));

    std::unique_ptr<mlcore::VertexLevelIndex> index;
    if (probe.algorithm == DccsAlgorithm::kTopDown) {
      t = Now();
      index = std::make_unique<mlcore::VertexLevelIndex>(graph, params.d,
                                                         pre.active);
      index_ms.push_back(Millis(t));
      layer_sum += index_ms.back();
    }
    mlcore::DccSolver solver(graph);
    mlcore::InitSeeds seeds;
    const bool seeded =
        probe.algorithm != DccsAlgorithm::kGreedy && params.init_result;
    if (seeded) {
      t = Now();
      seeds = mlcore::ComputeInitSeeds(graph, params, pre, solver);
      seeds_ms.push_back(Millis(t));
      layer_sum += seeds_ms.back();
    }

    mlcore::obs::Trace trace;
    mlcore::DccsExecution exec;
    exec.preprocess = &pre;
    exec.seeds = seeded ? &seeds : nullptr;
    exec.index = index.get();
    exec.solver = &solver;
    exec.trace = &trace;
    t = Now();
    const DccsResult result = Search(graph, params, probe.algorithm, exec);
    search_ms[probe.algorithm].push_back(Millis(t));
    layer_sum += search_ms[probe.algorithm].back();
    pipeline_rest_ms.push_back(Millis(pipeline_start) - layer_sum);
    for (const auto& span : trace.records()) {
      if (std::string(span.name) == "query.cover") {
        cover_ms.push_back(span.wall_ms);
      }
    }
    if (result.cores != probe.expected.cores) {
      out->Fail(probe.label,
                "the layers called directly answer differently from the "
                "engine");
    }
    sum.nodes_visited += result.stats.nodes_visited;
    sum.candidates_generated += result.stats.candidates_generated;
    sum.pruned_eq1 += result.stats.pruned_eq1;
    sum.pruned_order += result.stats.pruned_order;
    sum.pruned_layer += result.stats.pruned_layer;
    sum.pruned_potential += result.stats.pruned_potential;
    sum.updates_accepted += result.stats.updates_accepted;

    if (probe.algorithm != DccsAlgorithm::kGreedy) {
      exec.trace = nullptr;
      exec.search_threads = kProbeLanes;
      const DccsResult lanes = Search(graph, params, probe.algorithm, exec);
      committed += lanes.stats.candidates_generated;
      speculative += lanes.stats.speculative_evals;
      if (lanes.cores != result.cores) {
        out->Fail(probe.label, "answer differs between 1 and " +
                                   std::to_string(kProbeLanes) +
                                   " search lanes");
      }
    }

    // Kernel effort against the O(m) Batagelj-Zaversnik bound: one
    // DccSolver::Compute over the whole vertex set per result layer set,
    // one CoreDecomposition per layer.
    const VertexSet all = mlcore::AllVertices(graph);
    VertexSet core;
    for (const auto& rc : result.cores) {
      t = Now();
      solver.Compute(rc.layers, params.d, all, &core);
      dcc_s += Now() - t;
      dcc_edges += static_cast<double>(EdgesOn(graph, rc.layers));
      ++dcc_calls;
    }
    for (mlcore::LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
      t = Now();
      const auto coreness = mlcore::CoreDecomposition(graph, layer);
      bz_s += Now() - t;
      bz_edges += static_cast<double>(graph.NumEdges(layer));
      (void)coreness;
    }
  }

  auto& p = out->per_layer;
  p.Set("kernel.dcore_ms", Quantile(dcore_ms, 0.5), "ms");
  p.Set("preprocess.ms", Quantile(preprocess_ms, 0.5), "ms");
  p.Set("preprocess.active_share", Quantile(active_share, 0.5), "ratio");
  p.Set("index.build_ms", Quantile(index_ms, 0.5), "ms");
  p.Set("seeds.ms", Quantile(seeds_ms, 0.5), "ms");
  p.Set("search.bu_ms", Quantile(search_ms[DccsAlgorithm::kBottomUp], 0.5),
        "ms");
  p.Set("search.td_ms", Quantile(search_ms[DccsAlgorithm::kTopDown], 0.5),
        "ms");
  p.Set("search.gd_ms", Quantile(search_ms[DccsAlgorithm::kGreedy], 0.5),
        "ms");
  p.Set("search.nodes_visited", static_cast<double>(sum.nodes_visited),
        "count");
  p.Set("search.candidates_generated",
        static_cast<double>(sum.candidates_generated), "count");
  p.Set("search.pruned_eq1", static_cast<double>(sum.pruned_eq1), "count");
  p.Set("search.pruned_order", static_cast<double>(sum.pruned_order), "count");
  p.Set("search.pruned_layer", static_cast<double>(sum.pruned_layer), "count");
  p.Set("search.pruned_potential", static_cast<double>(sum.pruned_potential),
        "count");
  p.Set("search.updates_accepted", static_cast<double>(sum.updates_accepted),
        "count");
  p.Set("search.speculative_evals", static_cast<double>(speculative), "count");
  p.Set("search.speculative_useful_ratio",
        committed + speculative > 0
            ? static_cast<double>(committed) /
                  static_cast<double>(committed + speculative)
            : 0.0,
        "ratio");
  p.Set("cover.ms", Quantile(cover_ms, 0.5), "ms");
  const double dcc_rate = dcc_s > 0 ? dcc_edges / dcc_s : 0.0;
  const double bz_rate = bz_s > 0 ? bz_edges / bz_s : 0.0;
  p.Set("kernel.dcc_calls", static_cast<double>(dcc_calls), "count");
  p.Set("kernel.dcc_edges_per_s", dcc_rate, "edges/s");
  p.Set("kernel.bz_edges_per_s", bz_rate, "edges/s");
  p.Set("kernel.bz_ratio", bz_rate > 0 ? dcc_rate / bz_rate : 0.0, "ratio");
  out->notes.push_back(
      "direct layer calls: " + std::to_string(probes.size()) +
      " probes, pipeline time outside the timed calls p50 " +
      std::to_string(Quantile(pipeline_rest_ms, 0.5)) + " ms");
}

namespace {

mlcore::obs::Histogram::Snapshot MergedHistogram(
    const std::vector<mlcore::EngineStatsReport>& reports,
    const std::string& name) {
  mlcore::obs::Histogram::Snapshot merged;
  for (const auto& report : reports) {
    for (const auto& m : report.metrics) {
      if (m.name != name || m.kind != mlcore::obs::MetricKind::kHistogram) {
        continue;
      }
      if (merged.counts.empty()) {
        merged = m.hist;
        continue;
      }
      if (merged.counts.size() != m.hist.counts.size()) continue;
      for (size_t b = 0; b < merged.counts.size(); ++b) {
        merged.counts[b] += m.hist.counts[b];
      }
      merged.count += m.hist.count;
      merged.sum += m.hist.sum;
    }
  }
  return merged;
}

}  // namespace

void AddEngineLayerMetrics(const std::vector<const mlcore::Engine*>& engines,
                           const std::vector<QuerySample>& samples,
                           Outcome* out) {
  mlcore::EngineCacheStats cache;
  std::vector<mlcore::EngineStatsReport> reports;
  std::vector<double> pin_ms;
  for (const auto* engine : engines) {
    const auto c = engine->cache_stats();
    cache.preprocess_hits += c.preprocess_hits;
    cache.preprocess_misses += c.preprocess_misses;
    cache.base_core_hits += c.base_core_hits;
    cache.seed_hits += c.seed_hits;
    cache.index_hits += c.index_hits;
    cache.base_core_layers_reused += c.base_core_layers_reused;
    cache.base_core_store_served += c.base_core_store_served;
    cache.revisions_emitted += c.revisions_emitted;
    cache.revisions_unchanged_skipped += c.revisions_unchanged_skipped;
    cache.revisions_coalesced += c.revisions_coalesced;
    reports.push_back(engine->stats_report());
    for (const auto& query : reports.back().slow_queries) {
      for (const auto& span : query.spans) {
        if (std::string(span.name) == "query.snapshot_pin") {
          pin_ms.push_back(span.wall_ms);
        }
      }
    }
  }
  auto& p = out->per_layer;
  auto count = [&p](const char* name, int64_t value) {
    p.Set(name, static_cast<double>(value), "count");
  };
  count("engine.preprocess_hits", cache.preprocess_hits);
  count("engine.preprocess_misses", cache.preprocess_misses);
  count("engine.base_core_hits", cache.base_core_hits);
  count("engine.seed_hits", cache.seed_hits);
  count("engine.index_hits", cache.index_hits);
  count("engine.base_core_layers_reused", cache.base_core_layers_reused);
  count("engine.base_core_store_served", cache.base_core_store_served);
  count("subs.revisions_emitted", cache.revisions_emitted);
  count("subs.unchanged_skipped", cache.revisions_unchanged_skipped);
  count("subs.coalesced", cache.revisions_coalesced);

  const auto wait =
      MergedHistogram(reports, "engine.query.admission_wait_ms");
  p.Set("engine.admission_wait_p50_ms", wait.Quantile(0.5), "ms");
  p.Set("engine.admission_wait_p90_ms", wait.Quantile(0.9), "ms");
  p.Set("engine.snapshot_pin_ms", Quantile(pin_ms, 0.5), "ms");
  p.Set("subs.reeval_ms",
        MergedHistogram(reports, "engine.subs.reeval_ms")
            .Quantile(0.5),
        "ms");
  p.Set("subs.delivery_ms",
        MergedHistogram(reports, "engine.subs.delivery_ms")
            .Quantile(0.5),
        "ms");

  // Ledger: a query's end-to-end time against the layer times the engine
  // exports for it (admission wait, then the query.run span holding
  // preprocess, search and cover); the rest is unaccounted.
  std::vector<double> e2e, run;
  for (const auto& s : samples) {
    e2e.push_back(s.e2e_ms);
    run.push_back(s.run_ms);
  }
  const double wait_mean = wait.count > 0 ? wait.sum / wait.count : 0.0;
  const double layer_sum = Mean(run) + wait_mean;
  p.Set("ledger.e2e_ms", Mean(e2e), "ms");
  p.Set("ledger.layer_sum_ms", layer_sum, "ms");
  p.Set("query.unaccounted_ms", Mean(e2e) - layer_sum, "ms");
}

}  // namespace perfbench
