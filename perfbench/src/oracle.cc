#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace perfbench {

VertexSet PeelCoherentCore(const MultiLayerGraph& graph,
                           const LayerSet& layers, int d) {
  const size_t n = static_cast<size_t>(graph.NumVertices());
  std::vector<int> degree(n * layers.size());
  std::vector<char> alive(n, 1);
  std::vector<mlcore::VertexId> queue;
  for (size_t v = 0; v < n; ++v) {
    for (size_t pos = 0; pos < layers.size(); ++pos) {
      degree[pos * n + v] =
          static_cast<int>(graph.Neighbors(layers[pos], static_cast<int>(v))
                               .size());
      if (alive[v] && degree[pos * n + v] < d) {
        alive[v] = 0;
        queue.push_back(static_cast<mlcore::VertexId>(v));
      }
    }
  }
  for (size_t head = 0; head < queue.size(); ++head) {
    const mlcore::VertexId v = queue[head];
    for (size_t pos = 0; pos < layers.size(); ++pos) {
      for (mlcore::VertexId u : graph.Neighbors(layers[pos], v)) {
        const size_t ui = static_cast<size_t>(u);
        if (alive[ui] && --degree[pos * n + ui] < d) {
          alive[ui] = 0;
          queue.push_back(u);
        }
      }
    }
  }
  VertexSet core;
  for (size_t v = 0; v < n; ++v) {
    if (alive[v]) core.push_back(static_cast<mlcore::VertexId>(v));
  }
  return core;
}

namespace {

std::string Describe(const LayerSet& layers) {
  std::string out = "{";
  for (size_t i = 0; i < layers.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(layers[i]);
  }
  return out + "}";
}

// True when every vertex of `set` has >= d neighbours inside `set` on every
// layer of `layers`.
bool DenseOn(const MultiLayerGraph& graph, const LayerSet& layers, int d,
             const VertexSet& set) {
  std::vector<char> in(static_cast<size_t>(graph.NumVertices()), 0);
  for (auto v : set) in[static_cast<size_t>(v)] = 1;
  for (auto layer : layers) {
    for (auto v : set) {
      int inside = 0;
      for (auto u : graph.Neighbors(layer, v)) inside += in[static_cast<size_t>(u)];
      if (inside < d) return false;
    }
  }
  return true;
}

}  // namespace

Verdict CheckAnswer(const MultiLayerGraph& graph, const DccsParams& params,
                    const DccsResult& result) {
  Verdict verdict;
  std::string other;  // first violation that is not a non-maximal core
  auto fail = [&other](std::string message) {
    if (other.empty()) other = std::move(message);
  };
  if (static_cast<int>(result.cores.size()) > params.k) {
    fail(std::to_string(result.cores.size()) + " cores returned, k = " +
         std::to_string(params.k));
  }
  std::set<LayerSet> seen;
  std::set<mlcore::VertexId> cover;
  for (const auto& core : result.cores) {
    const std::string name = "core on L=" + Describe(core.layers);
    if (static_cast<int>(core.layers.size()) != params.s) {
      fail(name + ": |L| = " + std::to_string(core.layers.size()) +
           ", s = " + std::to_string(params.s));
      continue;
    }
    bool layers_ok = std::is_sorted(core.layers.begin(), core.layers.end()) &&
                     std::adjacent_find(core.layers.begin(),
                                        core.layers.end()) == core.layers.end();
    for (auto layer : core.layers) {
      layers_ok = layers_ok && layer >= 0 && layer < graph.NumLayers();
    }
    if (!layers_ok) {
      fail(name + ": layer set is not a sorted subset of the layers");
      continue;
    }
    if (!seen.insert(core.layers).second) {
      fail(name + ": layer set returned twice");
    }
    cover.insert(core.vertices.begin(), core.vertices.end());
    const VertexSet expected = PeelCoherentCore(graph, core.layers, params.d);
    if (core.vertices == expected) continue;
    const bool subset =
        std::is_sorted(core.vertices.begin(), core.vertices.end()) &&
        std::includes(expected.begin(), expected.end(), core.vertices.begin(),
                      core.vertices.end());
    const std::string sizes = " (" + std::to_string(core.vertices.size()) +
                              " vertices, C^d_L has " +
                              std::to_string(expected.size()) + ")";
    if (subset && !core.vertices.empty() &&
        DenseOn(graph, core.layers, params.d, core.vertices)) {
      ++verdict.non_maximal_cores;
      if (verdict.error.empty()) {
        verdict.error = name + ": d-dense but not maximal" + sizes;
      }
    } else {
      fail(name + ": vertices differ from C^d_L(G)" + sizes);
    }
  }
  const VertexSet union_set(cover.begin(), cover.end());
  if (result.Cover() != union_set ||
      result.CoverSize() != static_cast<int64_t>(union_set.size())) {
    fail("reported cover differs from the union of the cores");
  }
  verdict.only_non_maximal = other.empty() && verdict.non_maximal_cores > 0;
  if (!other.empty()) verdict.error = other;
  return verdict;
}

std::string CheckApproximation(int64_t cover_greedy, int64_t cover_lattice) {
  if (4 * cover_lattice < cover_greedy) {
    return "4 * cover(BU/TD) = " + std::to_string(4 * cover_lattice) +
           " < cover(GD) = " + std::to_string(cover_greedy);
  }
  const double floor_greedy =
      (1.0 - 1.0 / std::exp(1.0)) * static_cast<double>(cover_lattice);
  if (static_cast<double>(cover_greedy) + 1e-9 < floor_greedy) {
    return "cover(GD) = " + std::to_string(cover_greedy) +
           " < (1 - 1/e) * cover(BU/TD) = " + std::to_string(floor_greedy);
  }
  return "";
}

std::string SelfTest(const MultiLayerGraph& graph, const DccsParams& params,
                     const DccsResult& answer) {
  if (answer.cores.empty() || !CheckAnswer(graph, params, answer).ok()) {
    return "self-test needs a correct, non-empty answer";
  }
  const auto& core = answer.cores.front();
  std::vector<std::pair<std::string, DccsResult>> corrupted;
  {
    DccsResult removed = answer;
    auto& vertices = removed.cores.front().vertices;
    vertices.erase(vertices.begin() + static_cast<long>(vertices.size() / 2));
    corrupted.emplace_back("vertex removed", std::move(removed));
  }
  {
    DccsResult added = answer;
    auto& vertices = added.cores.front().vertices;
    mlcore::VertexId outsider = 0;
    while (std::binary_search(core.vertices.begin(), core.vertices.end(),
                              outsider)) {
      ++outsider;
    }
    vertices.insert(std::lower_bound(vertices.begin(), vertices.end(), outsider),
                    outsider);
    corrupted.emplace_back("vertex added", std::move(added));
  }
  {
    DccsResult wrong_size = answer;
    auto& layers = wrong_size.cores.front().layers;
    if (layers.size() > 1) {
      layers.pop_back();
    } else {
      layers.push_back(layers.front() + 1 < graph.NumLayers()
                           ? layers.front() + 1
                           : layers.front() - 1);
      std::sort(layers.begin(), layers.end());
    }
    corrupted.emplace_back("wrong |L|", std::move(wrong_size));
  }
  for (const auto& [what, result] : corrupted) {
    if (CheckAnswer(graph, params, result).ok()) {
      return "self-test: checker missed a core with " + what;
    }
  }
  return "";
}

}  // namespace perfbench
