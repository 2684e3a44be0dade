#ifndef MLCORE_TESTS_TEST_SUPPORT_H_
#define MLCORE_TESTS_TEST_SUPPORT_H_

// Helpers shared by several test files: per-test scratch file paths and an
// independent d-CC reference.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <utility>

#include "graph/multilayer_graph.h"

namespace mlcore {

/// A scratch file path unique to the running test and process. ctest runs
/// every test case as its own process, in parallel under `ctest -j`, so a
/// fixed file name shared by two cases lets one case delete or rewrite the
/// file while another reads it.
inline std::string UniqueTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = info == nullptr ? std::string("global")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  std::replace(test.begin(), test.end(), '/', '_');
  return ::testing::TempDir() + "mlcore_" + test + "_" +
         std::to_string(::getpid()) + "_" + name;
}

/// Independent fixpoint reference for the d-CC definition: repeatedly drops
/// every vertex of `scope` with fewer than d neighbours in `scope` on some
/// layer of `layers`. Shares no code with DccSolver.
inline VertexSet NaiveDcc(const MultiLayerGraph& graph, const LayerSet& layers,
                          int d, VertexSet scope) {
  bool changed = true;
  while (changed) {
    changed = false;
    VertexSet next;
    for (VertexId v : scope) {
      bool keep = true;
      for (LayerId layer : layers) {
        int degree = 0;
        for (VertexId u : graph.Neighbors(layer, v)) {
          if (std::binary_search(scope.begin(), scope.end(), u)) ++degree;
        }
        if (degree < d) {
          keep = false;
          break;
        }
      }
      if (keep) {
        next.push_back(v);
      } else {
        changed = true;
      }
    }
    scope = std::move(next);
  }
  return scope;
}

}  // namespace mlcore

#endif  // MLCORE_TESTS_TEST_SUPPORT_H_
