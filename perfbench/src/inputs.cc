#include "inputs.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <random>

#include "format/generator.h"
#include "format/mlg.h"
#include "graph/datasets.h"
#include "graph/graph_builder.h"

namespace perfbench {
namespace fs = std::filesystem;

namespace {

const std::vector<StandIn> kPaperMix = {
    {"ppi", 1.0, 8},     {"author", 1.0, 10},   {"german", 0.25, 14},
    {"wiki", 0.25, 24},  {"english", 0.25, 15}, {"stack", 0.25, 24},
};
const StandIn kPpi = kPaperMix[0];
const StandIn kAuthor = kPaperMix[1];

uint64_t Fnv(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) h = (h ^ c) * 1099511628211ULL;
  return h;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t DerivedSeed(uint64_t seed, const std::string& what) {
  return SplitMix(seed ^ Fnv(what));
}

// 2^scale vertices and 2^(scale + 3) edge draws per layer on 6 layers,
// scale 13 for both graphs: at scales 14 and 15 the same queries' timings
// moved by 15-25% between runs of one seed as neighbours' memory traffic on
// the shared host came and went.
mlcore::format::MlgGenConfig RmatConfig(uint64_t seed, int scale) {
  mlcore::format::MlgGenConfig config;
  config.num_vertices = 1 << scale;
  config.num_layers = 6;
  config.edges_per_layer = int64_t{1} << (scale + 3);
  config.layer_overlap = 0.3;  // Graph500 quadrants are the defaults
  config.seed = seed;
  return config;
}

std::string Describe(const StandIn& stand_in, uint64_t relabel_seed) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "dataset table %s scale %.3f, vertex relabel seed %llu\n",
                stand_in.name, stand_in.scale,
                static_cast<unsigned long long>(relabel_seed));
  return buf;
}

std::string Describe(const mlcore::format::MlgGenConfig& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "rmat n=%d l=%d edges_per_layer=%lld a=%.3f b=%.3f c=%.3f "
                "overlap=%.3f seed=%llu\n",
                c.num_vertices, c.num_layers,
                static_cast<long long>(c.edges_per_layer), c.rmat_a,
                c.rmat_b, c.rmat_c, c.layer_overlap,
                static_cast<unsigned long long>(c.seed));
  return buf;
}

// Copies `parts` side by side into one graph with its vertex ids permuted
// by `seed` (part i's vertices follow part i-1's before the permutation).
// Layer ids are kept: the searches break ties between equal-sized layers by
// id, so permuting layers would change the lattice order and with it the
// work per query.
mlcore::MultiLayerGraph Relabeled(
    const std::vector<const mlcore::MultiLayerGraph*>& parts, uint64_t seed) {
  int32_t n = 0, l = 0;
  for (const auto* part : parts) {
    n += part->NumVertices();
    l = std::max(l, part->NumLayers());
  }
  std::vector<mlcore::VertexId> vertex(static_cast<size_t>(n));
  std::iota(vertex.begin(), vertex.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(vertex.begin(), vertex.end(), rng);
  mlcore::GraphBuilder builder(n, l);
  int32_t base = 0;
  for (const auto* part : parts) {
    for (mlcore::LayerId j = 0; j < part->NumLayers(); ++j) {
      for (mlcore::VertexId v = 0; v < part->NumVertices(); ++v) {
        for (mlcore::VertexId u : part->Neighbors(j, v)) {
          if (v < u) {
            builder.AddEdge(j, vertex[base + v], vertex[base + u]);
          }
        }
      }
    }
    base += part->NumVertices();
  }
  return builder.Build();
}

std::string WriteStandIns(const std::vector<StandIn>& stand_ins,
                          uint64_t seed, const std::string& path) {
  std::vector<mlcore::Dataset> datasets;
  for (const auto& s : stand_ins) {
    datasets.push_back(mlcore::MakeDataset(s.name, s.scale));
  }
  std::vector<const mlcore::MultiLayerGraph*> parts;
  for (const auto& d : datasets) parts.push_back(&d.graph);
  const auto status =
      mlcore::format::WriteMlgGraph(Relabeled(parts, seed), path);
  return status.ok() ? "" : status.message;
}

// Runs `write` into a scratch directory next to `dir` and renames it into
// place, so an interrupted generation never leaves a directory that looks
// complete.
std::string Materialise(
    const std::string& dir, const std::string& key,
    const std::function<std::string(const fs::path&)>& write) {
  if (fs::exists(fs::path(dir) / "KEY")) return "";
  const fs::path tmp = dir + ".tmp" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  if (ec) return "cannot create " + tmp.string() + ": " + ec.message();
  std::string error = write(tmp);
  if (error.empty()) {
    std::ofstream(tmp / "KEY") << key;
    fs::remove_all(dir, ec);
    fs::rename(tmp, dir, ec);
    if (ec) error = "cannot rename " + tmp.string() + ": " + ec.message();
  }
  fs::remove_all(tmp, ec);
  return error;
}

}  // namespace

const std::vector<StandIn>& PaperMixStandIns() { return kPaperMix; }

std::string HashHex(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Fnv(text)));
  return buf;
}

std::string InputKey(const std::string& workload, uint64_t seed) {
  std::string key =
      "workload " + workload + " seed " + std::to_string(seed) + "\n";
  if (workload == "paper-mix") {
    for (const auto& s : kPaperMix) {
      key += Describe(s, DerivedSeed(seed, s.name));
    }
  } else if (workload == "rmat-skewed") {
    key += Describe(RmatConfig(DerivedSeed(seed, "rmat"), 13));
  } else if (workload == "churn-subscribe") {
    key += Describe(kAuthor, DerivedSeed(seed, "churn"));
  } else if (workload == "service-small") {
    key += "side by side:\n" +
           Describe(kPpi, DerivedSeed(seed, "service")) +
           Describe(kAuthor, DerivedSeed(seed, "service"));
  }
  return key;
}

std::string FixedInputKey() {
  return "rmat-skewed fault graph\n" + Describe(RmatConfig(kFaultGraphSeed, 13));
}

std::string EnsureInputs(const std::string& workload, uint64_t seed,
                         const std::string& dir) {
  return Materialise(dir, InputKey(workload, seed), [&](const fs::path& out) {
    if (workload == "paper-mix") {
      for (const auto& s : kPaperMix) {
        std::string error =
            WriteStandIns({s}, DerivedSeed(seed, s.name),
                          (out / (std::string(s.name) + ".mlg")).string());
        if (!error.empty()) return error;
      }
      return std::string();
    }
    if (workload == "rmat-skewed") {
      const auto status = mlcore::format::GenerateMlg(
          RmatConfig(DerivedSeed(seed, "rmat"), 13), (out / "rmat.mlg").string());
      return status.ok() ? std::string() : status.message;
    }
    if (workload == "churn-subscribe") {
      return WriteStandIns({kAuthor}, DerivedSeed(seed, "churn"),
                           (out / "author.mlg").string());
    }
    if (workload == "service-small") {
      return WriteStandIns({kPpi, kAuthor},
                           DerivedSeed(seed, "service"),
                           (out / "service.mlg").string());
    }
    return "unknown workload " + workload;
  });
}

std::string EnsureFixedInputs(const std::string& dir) {
  return Materialise(dir, FixedInputKey(), [](const fs::path& out) {
    const auto status = mlcore::format::GenerateMlg(
        RmatConfig(kFaultGraphSeed, 13), (out / "rmat_fault.mlg").string());
    return status.ok() ? std::string() : status.message;
  });
}

}  // namespace perfbench
