#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/dcc.h"
#include "dccs/dccs.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/rng.h"
#include "test_support.h"

namespace mlcore {
namespace {

// Randomized differential torture: many random (graph, d, s, k, flags)
// configurations, each validated against the exact solver and the output
// contract. Catches interaction bugs between preprocessing, pruning and
// the coverage bookkeeping that fixed-scenario tests can miss.
class TortureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TortureTest, RandomConfigurationsStaySound) {
  Rng rng(GetParam() * 2654435761ULL + 7);
  for (int round = 0; round < 6; ++round) {
    PlantedGraphConfig config;
    config.num_vertices = static_cast<int32_t>(rng.Uniform(40, 150));
    config.num_layers = static_cast<int32_t>(rng.Uniform(2, 6));
    config.num_communities = static_cast<int>(rng.Uniform(1, 6));
    config.community_size_min = 6;
    config.community_size_max = static_cast<int>(rng.Uniform(8, 18));
    config.internal_prob_min = 0.6;
    config.internal_prob_max = 0.95;
    config.background_avg_degree = rng.UniformReal() * 2.5;
    config.seed = rng.Uniform(0, 1 << 30);
    MultiLayerGraph graph = GeneratePlanted(config).graph;

    DccsParams params;
    params.d = static_cast<int>(rng.Uniform(1, 4));
    params.s = static_cast<int>(rng.Uniform(1, config.num_layers));
    params.k = static_cast<int>(rng.Uniform(1, 5));
    params.vertex_deletion = rng.Bernoulli(0.7);
    params.sort_layers = rng.Bernoulli(0.7);
    params.init_result = rng.Bernoulli(0.7);
    params.dcc_engine =
        rng.Bernoulli(0.5) ? DccEngine::kQueue : DccEngine::kBins;
    params.use_index_refinec = rng.Bernoulli(0.5);

    DccsResult exact = ExactDccs(graph, params);
    for (DccsAlgorithm algorithm :
         {DccsAlgorithm::kGreedy, DccsAlgorithm::kBottomUp,
          DccsAlgorithm::kTopDown}) {
      DccsResult result = SolveDccs(graph, params, algorithm);
      ASSERT_GE(4 * result.CoverSize(), exact.CoverSize())
          << AlgorithmName(algorithm) << " seed=" << GetParam()
          << " round=" << round << " d=" << params.d << " s=" << params.s
          << " k=" << params.k;
      for (const auto& core : result.cores) {
        ASSERT_EQ(static_cast<int>(core.layers.size()), params.s);
        ASSERT_EQ(core.vertices,
                  CoherentCore(graph, core.layers, params.d))
            << AlgorithmName(algorithm) << " produced a non-d-CC set";
      }
      // Distinctness of the returned layer subsets.
      std::vector<LayerSet> layer_sets;
      for (const auto& core : result.cores) layer_sets.push_back(core.layers);
      std::sort(layer_sets.begin(), layer_sets.end());
      ASSERT_TRUE(std::adjacent_find(layer_sets.begin(), layer_sets.end()) ==
                  layer_sets.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureTest,
                         ::testing::Range<uint64_t>(0, 8));

// Robustness of the binary loader against corrupted and truncated input.
class BinaryIoFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BinaryIoFuzzTest, TruncatedFilesRejectedCleanly) {
  MultiLayerGraph graph = GenerateErdosRenyi(40, 3, 0.1, 77);
  std::string path = UniqueTempPath("fuzz_truncated");
  ASSERT_TRUE(SaveMultiLayerGraphBinary(graph, path).ok);
  auto full_size = std::filesystem::file_size(path);

  // Truncate to GetParam() percent of the original length.
  auto truncated_size = full_size * static_cast<size_t>(GetParam()) / 100;
  std::filesystem::resize_file(path, truncated_size);

  MultiLayerGraph loaded;
  IoStatus status = LoadMultiLayerGraphBinary(path, &loaded);
  if (status.ok) {
    // Only acceptable if truncation happened to land on a valid prefix —
    // which can only be the full file.
    EXPECT_EQ(truncated_size, full_size);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(TruncationPercents, BinaryIoFuzzTest,
                         ::testing::Values(0, 3, 10, 35, 60, 85, 99));

TEST(BinaryIoFuzzTest, BitFlippedHeaderRejected) {
  MultiLayerGraph graph = GenerateErdosRenyi(30, 2, 0.1, 78);
  std::string path = UniqueTempPath("fuzz_header");
  ASSERT_TRUE(SaveMultiLayerGraphBinary(graph, path).ok);
  {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(2);
    file.put('X');  // corrupt the magic
  }
  MultiLayerGraph loaded;
  EXPECT_FALSE(LoadMultiLayerGraphBinary(path, &loaded).ok);
  std::remove(path.c_str());
}

TEST(BinaryIoFuzzTest, NegativeEdgeCountRejected) {
  std::string path = UniqueTempPath("fuzz_negative");
  {
    std::ofstream file(path, std::ios::binary);
    file.write("MLCB1\n", 6);
    int32_t n = 4, l = 1;
    file.write(reinterpret_cast<char*>(&n), sizeof(n));
    file.write(reinterpret_cast<char*>(&l), sizeof(l));
    int64_t bad_count = -5;
    file.write(reinterpret_cast<char*>(&bad_count), sizeof(bad_count));
  }
  MultiLayerGraph loaded;
  EXPECT_FALSE(LoadMultiLayerGraphBinary(path, &loaded).ok);
  std::remove(path.c_str());
}

TEST(BinaryIoFuzzTest, OutOfRangeVertexRejected) {
  std::string path = UniqueTempPath("fuzz_range");
  {
    std::ofstream file(path, std::ios::binary);
    file.write("MLCB1\n", 6);
    int32_t n = 4, l = 1;
    file.write(reinterpret_cast<char*>(&n), sizeof(n));
    file.write(reinterpret_cast<char*>(&l), sizeof(l));
    int64_t count = 1;
    file.write(reinterpret_cast<char*>(&count), sizeof(count));
    VertexId u = 0, v = 99;  // v out of range
    file.write(reinterpret_cast<char*>(&u), sizeof(u));
    file.write(reinterpret_cast<char*>(&v), sizeof(v));
  }
  MultiLayerGraph loaded;
  EXPECT_FALSE(LoadMultiLayerGraphBinary(path, &loaded).ok);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mlcore
