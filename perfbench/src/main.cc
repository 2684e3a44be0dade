// perfbench: the repository's benchmark binary.
//
//   perfbench gen   --workload W --seed N --root DIR
//   perfbench run   --workload W --seed N --seconds S --trace 0|1 --root DIR
//   perfbench lanes --seed N --root DIR
//
// `gen` writes the workload's input graphs under DIR/.perfbench/inputs
// (kept apart from `run`, so generation is neither timed nor counted in
// peak memory). `run` measures one workload and prints its metrics, ending
// with one JSON line, and exits 1 when any check failed. `lanes` prints the
// BU/TD search-lane reference table of the README.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "dccs/preprocess.h"
#include "dccs/vertex_index.h"
#include "inputs.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

namespace fs = std::filesystem;

std::string InputsRoot(const std::string& root) {
  return root + "/.perfbench/inputs";
}

std::string WorkloadDir(const std::string& root, const std::string& workload,
                        uint64_t seed) {
  return InputsRoot(root) + "/" + workload + "/" +
         HashHex(InputKey(workload, seed));
}

std::string FixedDir(const std::string& root) {
  return InputsRoot(root) + "/fixed/" + HashHex(FixedInputKey());
}

// Generates the inputs of (workload, seed) and drops the workload's inputs
// for other seeds, so the directory holds one seed's graphs at a time.
std::string Generate(const std::string& root, const std::string& workload,
                     uint64_t seed) {
  const std::string dir = WorkloadDir(root, workload, seed);
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(InputsRoot(root) + "/" + workload, ec)) {
    if (entry.path() != fs::path(dir)) fs::remove_all(entry.path(), ec);
  }
  std::string error = EnsureInputs(workload, seed, dir);
  if (error.empty() && workload == "rmat-skewed") {
    error = EnsureFixedInputs(FixedDir(root));
  }
  return error;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out;
}

void Print(const Outcome& out, bool trace) {
  for (const auto& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const auto* list : {&out.end_to_end, &out.per_layer}) {
    for (const auto& m : list->items()) {
      std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("attempted %lld, failed %lld\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed()));
  if (!out.error.empty()) std::printf("error: %s\n", out.error.c_str());
  // The per-layer metrics a workload does not exercise are absent here;
  // run.py fills them in from the manifest.
  const MetricList& shown = trace ? out.per_layer : out.end_to_end;
  std::string json = "{\"correct\": ";
  json += out.error.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : shown.items()) {
    json += (first ? "" : ", ");
    json += '"';
    json += JsonEscape(m.name);
    json += "\": {\"value\": ";
    json += Number(m.value);
    json += ", \"unit\": \"";
    json += JsonEscape(m.unit);
    json += "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// BU and TD at 1, 2 and 4 search lanes on the 24- and 15-layer paper-mix
// graphs, with preprocessing, seeds and index built once and injected.
int Lanes(const std::string& root, uint64_t seed) {
  const std::string dir = WorkloadDir(root, "paper-mix", seed);
  std::printf("%-10s %-4s %2s %2s %10s %10s %10s\n", "graph", "alg", "d", "s",
              "1 lane ms", "2 lanes ms", "4 lanes ms");
  std::vector<Probe> probes;
  std::vector<std::shared_ptr<MultiLayerGraph>> keep;
  for (const char* name : {"stack", "wiki", "english"}) {
    auto graph = std::make_shared<MultiLayerGraph>();
    const auto status =
        mlcore::format::LoadMlgGraph(dir + "/" + name + ".mlg", graph.get());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message.c_str());
      return 1;
    }
    keep.push_back(graph);
    const int l = graph->NumLayers();
    const std::pair<mlcore::DccsAlgorithm, int> cases[] = {
        {mlcore::DccsAlgorithm::kBottomUp, 2},
        {mlcore::DccsAlgorithm::kBottomUp, 3},
        {mlcore::DccsAlgorithm::kTopDown, l - 2},
        {mlcore::DccsAlgorithm::kTopDown, l - 3}};
    for (const auto& [algorithm, s] : cases) {
      DccsParams params;
      params.d = 4;
      params.s = s;
      const auto pre = mlcore::Preprocess(*graph, params.d, s, true);
      mlcore::DccSolver solver(*graph);
      const auto seeds = mlcore::ComputeInitSeeds(*graph, params, pre, solver);
      std::unique_ptr<mlcore::VertexLevelIndex> index;
      if (algorithm == mlcore::DccsAlgorithm::kTopDown) {
        index = std::make_unique<mlcore::VertexLevelIndex>(*graph, params.d,
                                                           pre.active);
      }
      double ms[3];
      DccsResult answer;
      const int lanes[] = {1, 2, 4};
      for (int i = 0; i < 3; ++i) {
        std::vector<double> runs;
        for (int rep = 0; rep < 3; ++rep) {
          mlcore::DccsExecution exec;
          exec.preprocess = &pre;
          exec.seeds = &seeds;
          exec.index = index.get();
          exec.solver = &solver;
          exec.search_threads = lanes[i];
          const double t = Now();
          answer = algorithm == mlcore::DccsAlgorithm::kTopDown
                       ? mlcore::TopDownDccs(*graph, params, exec)
                       : mlcore::BottomUpDccs(*graph, params, exec);
          runs.push_back((Now() - t) * 1e3);
        }
        ms[i] = Quantile(runs, 0.5);
      }
      std::printf("%-10s %-4s %2d %2d %10.2f %10.2f %10.2f\n", name,
                  algorithm == mlcore::DccsAlgorithm::kTopDown ? "TD" : "BU",
                  params.d, s, ms[0], ms[1], ms[2]);
      Probe probe;
      probe.graph = graph.get();
      probe.params = params;
      probe.algorithm = algorithm;
      probe.expected = answer;
      probe.label = name;
      probes.push_back(std::move(probe));
    }
  }
  Outcome out;
  AddSearchLayerMetrics(probes, &out);
  for (const auto& m : out.per_layer.items()) {
    if (m.name.rfind("kernel.", 0) == 0) {
      std::printf("%-28s %14.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  return out.error.empty() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run|lanes --workload W --seed N "
               "[--seconds S] [--trace 0|1] --root DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  RunConfig cfg;
  cfg.workload = flags["workload"];
  cfg.seed = std::stoull(flags.count("seed") ? flags["seed"] : "1");
  cfg.seconds = std::stod(flags.count("seconds") ? flags["seconds"] : "10");
  cfg.trace = flags["trace"] == "1";
  const std::string root = flags.count("root") ? flags["root"] : ".";
  if (mode == "gen") {
    const std::string error = Generate(root, cfg.workload, cfg.seed);
    if (!error.empty()) {
      std::fprintf(stderr, "input generation failed: %s\n", error.c_str());
      return 1;
    }
    return 0;
  }
  if (mode == "lanes") {
    const std::string error = Generate(root, "paper-mix", cfg.seed);
    if (!error.empty()) {
      std::fprintf(stderr, "input generation failed: %s\n", error.c_str());
      return 1;
    }
    return Lanes(root, cfg.seed);
  }
  if (mode != "run") return Usage();
  cfg.input_dir = WorkloadDir(root, cfg.workload, cfg.seed);
  cfg.fixed_input_dir = FixedDir(root);
  if (!std::filesystem::exists(cfg.input_dir + "/KEY")) {
    std::fprintf(stderr, "inputs missing; run `perfbench gen` first\n");
    return 1;
  }
  const Outcome out = RunWorkload(cfg);
  Print(out, cfg.trace);
  std::fflush(stdout);
  return out.error.empty() && out.attempted > 0 ? 0 : 1;
}
