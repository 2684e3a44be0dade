#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Input generation. Every graph a workload reads is written from the run's
// seed into a directory keyed by the full generator configuration and the
// seed, and stored as MLG1, so set-up times the binary format the program
// keeps.
//
//  * rmat-skewed's graph is generated from the seed.
//  * The planted stand-ins of the paper's datasets are fixed graphs, like
//    the datasets they stand in for: they come from the program's dataset
//    table with its own generator seeds, and the run's seed relabels their
//    vertices (and, in churn-subscribe, drives the update schedule); layer
//    ids are kept. Regenerating their community structure per seed
//    would move query cost and cover by 10-50% between seeds and hide the
//    changes the benchmark is there to show.
//  * rmat-skewed's fault graph does not depend on the seed: the known
//    top-down RefineC fault must fail the same way in every run.

#include <cstdint>
#include <string>
#include <vector>


namespace perfbench {

/// One planted stand-in for a dataset of the paper (Fig 12), as the
/// program's dataset table builds it (mlcore::MakeDataset).
struct StandIn {
  const char* name;
  double scale;
  int32_t num_layers;  // as in the paper and the dataset table
};

/// The six paper-mix graphs: ppi and author at full size, the four large
/// stand-ins at 1/4 so that one round of cold and warm queries over all six
/// fits several times into a run.
const std::vector<StandIn>& PaperMixStandIns();

/// Seed-independent R-MAT graph of rmat-skewed's known-fault queries.
inline constexpr uint64_t kFaultGraphSeed = 1;

/// Text naming every generator setting and the seed of `workload`'s
/// inputs; its hash names the input directory.
std::string InputKey(const std::string& workload, uint64_t seed);
std::string FixedInputKey();

/// Stable 64-bit FNV-1a of `text`, as 16 hex digits.
std::string HashHex(const std::string& text);

/// Generates `workload`'s inputs for `seed` into `dir` unless a complete
/// copy is already there. Returns "" or an error message.
std::string EnsureInputs(const std::string& workload, uint64_t seed,
                         const std::string& dir);
std::string EnsureFixedInputs(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
