// Quickstart: build a small multi-layer graph, stand up an mlcore::Engine
// over it, run all three DCCS algorithms through the service API, and print
// the diversified d-coherent cores they find. The three queries share one
// (d, s) key, so the second and third skip preprocessing via the engine's
// cache; `SolveDccs` remains as the one-shot shorthand.
//
//   ./examples/quickstart [--d=3] [--s=2] [--k=2]

#include <cstdio>

#include "dccs/dccs.h"
#include "graph/graph_builder.h"
#include "util/flags.h"

namespace {

// A miniature instance in the spirit of the paper's Fig 1: one large dense
// group recurring on several layers, one smaller group, background noise.
mlcore::MultiLayerGraph BuildToyGraph() {
  mlcore::GraphBuilder builder(/*num_vertices=*/16, /*num_layers=*/4);
  auto add_dense_group = [&](std::initializer_list<mlcore::VertexId> group,
                             std::initializer_list<mlcore::LayerId> layers) {
    std::vector<mlcore::VertexId> vs(group);
    for (size_t i = 0; i < vs.size(); ++i) {
      for (size_t j = i + 1; j < vs.size(); ++j) {
        for (mlcore::LayerId layer : layers) {
          builder.AddEdge(layer, vs[i], vs[j]);
        }
      }
    }
  };
  // "a..i" of the paper's example: dense on layers 0–3.
  add_dense_group({0, 1, 2, 3, 4, 5, 6, 7, 8}, {0, 1, 2, 3});
  // A second, partially overlapping group on layers 1 and 3.
  add_dense_group({7, 8, 9, 10, 11, 12}, {1, 3});
  // Sparse distractors.
  builder.AddEdge(0, 13, 14);
  builder.AddEdge(2, 14, 15);
  return builder.Build();
}

void PrintResult(const char* name, const mlcore::DccsResult& result) {
  std::printf("%s: |Cov(R)| = %lld, %zu cores, %.3f ms\n", name,
              static_cast<long long>(result.CoverSize()), result.cores.size(),
              result.stats.total_seconds * 1e3);
  for (const auto& core : result.cores) {
    std::printf("  layers {");
    for (size_t i = 0; i < core.layers.size(); ++i) {
      std::printf("%s%d", i ? "," : "", core.layers[i]);
    }
    std::printf("} -> %zu vertices {", core.vertices.size());
    for (size_t i = 0; i < core.vertices.size(); ++i) {
      std::printf("%s%d", i ? "," : "", core.vertices[i]);
    }
    std::printf("}\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  mlcore::Flags flags(argc, argv);
  mlcore::DccsRequest request;
  request.params.d = static_cast<int>(flags.GetInt("d", 3));
  request.params.s = static_cast<int>(flags.GetInt("s", 2));
  request.params.k = static_cast<int>(flags.GetInt("k", 2));

  // The engine owns the graph; queries borrow its cached preprocessing.
  // Holding the snapshot pins the graph no matter what updates later
  // publish.
  mlcore::Engine engine(BuildToyGraph());
  auto snapshot = engine.store()->snapshot();
  const mlcore::MultiLayerGraph& graph = snapshot->graph();
  std::printf("toy graph: %d vertices, %d layers, %lld edges\n",
              graph.NumVertices(), graph.NumLayers(),
              static_cast<long long>(graph.TotalEdges()));
  std::printf("query: d=%d, s=%d, k=%d\n\n", request.params.d,
              request.params.s, request.params.k);

  struct Variant {
    const char* label;
    mlcore::DccsAlgorithm algorithm;
  };
  for (const Variant& variant :
       {Variant{"GD-DCCS (greedy, 1-1/e approx)",
                mlcore::DccsAlgorithm::kGreedy},
        Variant{"BU-DCCS (bottom-up, 1/4 approx)",
                mlcore::DccsAlgorithm::kBottomUp},
        Variant{"TD-DCCS (top-down, 1/4 approx)",
                mlcore::DccsAlgorithm::kTopDown}}) {
    request.algorithm = variant.algorithm;
    mlcore::Expected<mlcore::DccsResult> response = engine.Run(request);
    if (!response.ok()) {  // unreachable here; shown for API shape
      std::fprintf(stderr, "invalid query: %s\n",
                   response.status().message.c_str());
      return 1;
    }
    PrintResult(variant.label, *response);
  }

  const mlcore::EngineCacheStats cache = engine.cache_stats();
  std::printf("\nengine cache: %lld preprocessing hit(s) across the three "
              "queries (the BU/TD runs reused the greedy run's vertex "
              "deletion)\n",
              static_cast<long long>(cache.preprocess_hits));
  request.algorithm = mlcore::DccsAlgorithm::kAuto;
  std::printf(
      "hint: the paper recommends %s for this support threshold "
      "(DccsAlgorithm::kAuto picks it for you).\n",
      mlcore::AlgorithmName(engine.ResolvedAlgorithm(request)).c_str());
  return 0;
}
