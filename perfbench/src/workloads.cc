#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <unordered_set>

#include "inputs.h"
#include "oracle.h"

namespace perfbench {

using mlcore::DccsAlgorithm;
using mlcore::DccsRequest;
using mlcore::Engine;
using mlcore::GraphStore;
using mlcore::LayerId;
using mlcore::VertexId;

namespace {

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 21;

// Timed engines run each query on the thread that waits for it (no query
// workers, one pool thread, one search lane), except in service-small,
// whose point is the engine's workers and lane budget under concurrent
// clients. On a shared 4-core host, multi-threaded query timings moved by
// 10-20% with other load, and allocations spread over several threads'
// malloc arenas moved peak RSS by up to 30%. Every answer is also computed
// at the other lane count and must match.
constexpr int kServiceLanes = 2;
constexpr int kServiceColdPasses = 9;
constexpr int kCheckLanes = 4;

struct LoadedGraph {
  std::string name;
  std::shared_ptr<const MultiLayerGraph> graph;
  mlcore::format::MlgLoadStats stats;
};

std::string LoadGraph(const std::string& dir, const std::string& name,
                      LoadedGraph* out) {
  auto graph = std::make_shared<MultiLayerGraph>();
  const auto status = mlcore::format::LoadMlgGraph(dir + "/" + name + ".mlg",
                                                   graph.get(), &out->stats);
  if (!status.ok()) return status.message;
  out->name = name;
  out->graph = std::move(graph);
  return "";
}

std::string MakeUp(const LoadedGraph& g) {
  return "graph " + g.name + ": n=" + std::to_string(g.graph->NumVertices()) +
         " l=" + std::to_string(g.graph->NumLayers()) +
         " edges=" + std::to_string(g.graph->TotalEdges());
}

void SleepUntil(double when) {
  const double wait = when - Now();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

// Spins the workload's queries for about a second on freshly set-up
// engines before anything is timed, so that timing starts on a machine
// already running this workload (clocks up, page cache and allocator
// warm). Without it the first timed second of a run reads up to 2x slow.
void WarmUp(const std::function<void()>& run_each_request_once) {
  const double end = Now() + 1.0;
  do {
    run_each_request_once();
  } while (Now() < end);
}

// Keeps the first answer to every distinct request and compares each later
// answer with it, so every answer is checked while the oracle runs once per
// distinct request, after the timed phase. Thread-safe.
class AnswerBook {
 public:
  struct Entry {
    DccsResult first;
  };

  void Record(const std::string& label, const DccsResult& result) {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.try_emplace(label);
    if (inserted) {
      it->second.first.cores = result.cores;
      it->second.first.epoch = result.epoch;
    } else if (result.cores != it->second.first.cores) {
      mismatched_.insert(label);
    }
  }
  const Entry* Find(const std::string& label) const {
    auto it = entries_.find(label);
    return it == entries_.end() ? nullptr : &it->second;
  }
  const std::map<std::string, Entry>& entries() const { return entries_; }
  // Counts each label whose repeats disagreed as a failed operation.
  void ReportMismatches(Outcome* out) const {
    for (const auto& label : mismatched_) {
      out->Fail(label, "answer differs from an earlier answer to the same "
                       "request on the same graph");
    }
  }

 private:
  std::mutex mu_;
  std::map<std::string, Entry> entries_;
  std::set<std::string> mismatched_;
};

const char* ShortName(DccsAlgorithm algorithm) {
  switch (algorithm) {
    case DccsAlgorithm::kGreedy:
      return "gd";
    case DccsAlgorithm::kBottomUp:
      return "bu";
    case DccsAlgorithm::kTopDown:
      return "td";
    case DccsAlgorithm::kAuto:
      break;
  }
  return "auto";
}

DccsAlgorithm Resolve(const DccsRequest& request, int32_t num_layers) {
  return request.algorithm == DccsAlgorithm::kAuto
             ? mlcore::RecommendedAlgorithm(num_layers, request.params.s)
             : request.algorithm;
}

DccsRequest Request(int d, int s, DccsAlgorithm algorithm,
                    bool index_refinec = true) {
  DccsRequest request;
  request.params.d = d;
  request.params.s = s;
  request.params.k = 10;
  request.params.use_index_refinec = index_refinec;
  request.algorithm = algorithm;
  return request;
}

// One distinct request of a static workload.
struct StaticQuery {
  std::string label;
  size_t graph = 0;  // index into the workload's graphs / engines
  DccsRequest request;
  // rmat-skewed's top-down RefineC fault: a non-maximal answer counts as a
  // failed operation instead of a wrong one.
  bool known_fault = false;
};

std::string Label(const std::string& graph, const DccsRequest& request,
                  int32_t num_layers) {
  const auto& p = request.params;
  return graph + " " + ShortName(Resolve(request, num_layers)) +
         (p.use_index_refinec ? "" : "-ref") + " d=" + std::to_string(p.d) +
         " s=" + std::to_string(p.s) + " k=" + std::to_string(p.k);
}

// Submits and waits for one query. Returns false (with *error set) when the
// engine refused or failed it.
bool RunQuery(Engine& engine, const DccsRequest& request, DccsResult* result,
              QuerySample* sample, std::string* error) {
  const double start = Now();
  mlcore::QueryHandle handle = engine.Submit(request);
  const auto& outcome = handle.Wait();
  const double end = Now();
  if (!outcome.ok()) {
    *error = "query failed: " + outcome.status().message;
    return false;
  }
  *result = outcome.value();
  sample->e2e_ms = (end - start) * 1e3;
  sample->run_ms = result->stats.total_seconds * 1e3;
  return true;
}

Engine::Options EngineOptions(int num_threads, int query_workers,
                              int search_threads) {
  Engine::Options options;
  options.num_threads = num_threads;
  options.query_workers = query_workers;
  options.search_threads = search_threads;
  return options;
}

// Timed samples common to every workload.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> load_ms;  // summed over the workload's files, per set-up
  // Cold latencies by (d, s) key: the first query of the key on a fresh or
  // cleared engine.
  std::map<std::string, std::vector<double>> cold_ms;
  std::vector<double> query_ms;
  std::vector<QuerySample> ledger;
  double window_s = 0;
  double peak_rss_mb = 0;
  int64_t cover_vertices = 0;
};

void AddCommonMetrics(const Samples& s, Outcome* out) {
  auto& e = out->end_to_end;
  e.Set("setup_s", Quantile(s.setup_s, 0.5), "s");
  // Each key's median cold latency, combined over keys by geometric mean:
  // keys differ in cost by orders of magnitude, and a median over keys or
  // over all cold samples would jump between two keys' values.
  double log_sum = 0;
  size_t cold_samples = 0;
  for (const auto& [key, ms] : s.cold_ms) {
    log_sum += std::log(std::max(Quantile(ms, 0.5), 1e-6));
    cold_samples += ms.size();
  }
  e.Set("cold_query_p50_ms",
        s.cold_ms.empty() ? 0.0 : std::exp(log_sum / s.cold_ms.size()), "ms");
  e.Set("query_p50_ms", Quantile(s.query_ms, 0.5), "ms");
  e.Set("query_p90_ms", Quantile(s.query_ms, 0.9), "ms");
  e.Set("queries_per_s",
        s.window_s > 0 ? static_cast<double>(s.query_ms.size()) / s.window_s
                       : 0.0,
        "1/s");
  e.Set("cover_vertices", static_cast<double>(s.cover_vertices), "count");
  e.Set("peak_rss_mb", s.peak_rss_mb, "MB");
  out->per_layer.Set("format.load_ms", Quantile(s.load_ms, 0.5), "ms");
  out->per_layer.Set("query.p99_ms", Quantile(s.query_ms, 0.99), "ms");
  out->notes.push_back(
      "queries " + std::to_string(s.query_ms.size()) + " (cold " +
      std::to_string(cold_samples) + ") in " +
      std::to_string(s.window_s) + " s; p99 " +
      std::to_string(Quantile(s.query_ms, 0.99)) + " ms");
}

// Oracle checks of a static workload, after the timed phase: every distinct
// answer against the d-CC definition, GD-vs-lattice cover bounds, identity
// of the answers at one search lane, and the checker's self-test.
void VerifyStatic(const std::vector<LoadedGraph>& graphs,
                  const std::vector<StaticQuery>& queries,
                  const AnswerBook& book, int timed_lanes, Samples* samples,
                  Outcome* out) {
  out->attempted += static_cast<int64_t>(queries.size());
  book.ReportMismatches(out);
  struct CoverPair {
    int64_t greedy = -1;
    std::vector<std::pair<std::string, int64_t>> lattice;  // label, cover
  };
  std::map<std::tuple<size_t, int, int, int>, CoverPair> covers;
  const DccsResult* self_test_answer = nullptr;
  const StaticQuery* self_test_query = nullptr;
  std::vector<std::unique_ptr<Engine>> checkers(graphs.size());
  for (const auto& q : queries) {
    const AnswerBook::Entry* entry = book.Find(q.label);
    if (entry == nullptr) {
      out->Fail(q.label, "never answered");
      continue;
    }
    const MultiLayerGraph& graph = *graphs[q.graph].graph;
    const auto& params = q.request.params;
    const Verdict verdict = CheckAnswer(graph, params, entry->first);
    if (!verdict.ok()) {
      if (q.known_fault && verdict.only_non_maximal) {
        out->KnownFault(q.label, std::to_string(verdict.non_maximal_cores) +
                                     " non-maximal cores (" + verdict.error +
                                     ")");
      } else {
        out->Fail(q.label, verdict.error);
      }
    } else {
      if (!q.known_fault) samples->cover_vertices += entry->first.CoverSize();
      if (self_test_answer == nullptr && !entry->first.cores.empty()) {
        self_test_answer = &entry->first;
        self_test_query = &q;
      }
      auto& pair = covers[{q.graph, params.d, params.s, params.k}];
      if (Resolve(q.request, graph.NumLayers()) == DccsAlgorithm::kGreedy) {
        pair.greedy = entry->first.CoverSize();
      } else {
        pair.lattice.push_back({q.label, entry->first.CoverSize()});
      }
    }
    // The answer must be the same at the other lane count.
    auto& checker = checkers[q.graph];
    if (checker == nullptr) {
      checker = std::make_unique<Engine>(
          graphs[q.graph].graph,
          EngineOptions(1, 0, timed_lanes == 1 ? kCheckLanes : 1));
    }
    auto other = checker->Run(q.request);
    if (!other.ok()) {
      out->Fail(q.label, "run at the other lane count failed: " +
                             other.status().message);
    } else if (other->cores != entry->first.cores) {
      out->Fail(q.label, "answer differs with the search-lane count");
    }
  }
  for (const auto& [key, pair] : covers) {
    if (pair.greedy < 0) continue;
    for (const auto& [label, lattice] : pair.lattice) {
      const std::string error = CheckApproximation(pair.greedy, lattice);
      if (!error.empty()) out->Fail(label, error);
    }
  }
  if (self_test_answer == nullptr) {
    out->FailRun("no correct non-empty answer to run the checker's self-test "
                 "on");
  } else {
    const std::string error =
        SelfTest(*graphs[self_test_query->graph].graph,
                 self_test_query->request.params, *self_test_answer);
    if (!error.empty()) out->FailRun(error);
  }
}

std::vector<Probe> ProbesFor(const std::vector<LoadedGraph>& graphs,
                             const std::vector<StaticQuery>& queries,
                             const AnswerBook& book,
                             const std::set<std::string>& labels) {
  std::vector<Probe> probes;
  for (const auto& q : queries) {
    if (!labels.count(q.label)) continue;
    const AnswerBook::Entry* entry = book.Find(q.label);
    if (entry == nullptr) continue;
    Probe probe;
    probe.graph = graphs[q.graph].graph.get();
    probe.params = q.request.params;
    probe.algorithm = Resolve(q.request, probe.graph->NumLayers());
    probe.expected = entry->first;
    probe.label = q.label;
    probes.push_back(std::move(probe));
  }
  return probes;
}

// ---------------------------------------------------------------------------
// paper-mix and rmat-skewed: one client, whole rounds. The `once` list runs
// once per run, cold and before the timed window, so it adds neither time
// nor repeats to any figure. A round clears every engine's cache and runs
// the main list twice: the first request of each (graph, d, s) key in the
// first pass is the cold query, everything after it is warm.
// ---------------------------------------------------------------------------

struct RoundPlan {
  std::vector<std::string> files;
  std::vector<StaticQuery> passes;
  std::vector<StaticQuery> once;
  // Labels answered again through the layers' own functions when tracing.
  std::set<std::string> probe_labels;
};

Outcome RunRounds(const RunConfig& cfg, const RoundPlan& plan,
                  const std::vector<std::string>& dirs) {
  Outcome out;
  Samples samples;
  std::vector<LoadedGraph> graphs;
  std::vector<std::unique_ptr<Engine>> engines;
  for (int rep = -1; rep < kSetupRepeats; ++rep) {  // rep -1 warms up
    engines.clear();
    graphs.clear();
    const double start = Now();
    double load_ms = 0;
    for (size_t i = 0; i < plan.files.size(); ++i) {
      LoadedGraph g;
      const std::string error = LoadGraph(dirs[i], plan.files[i], &g);
      if (!error.empty()) {
        out.FailRun("load " + plan.files[i] + ": " + error);
        return out;
      }
      load_ms += g.stats.load_ms;
      engines.push_back(std::make_unique<Engine>(
          g.graph, EngineOptions(1, 0, 1)));
      graphs.push_back(std::move(g));
    }
    const double setup_s = Now() - start;
    if (rep < 0) {
      WarmUp([&] {
        for (const auto& q : plan.passes) (void)engines[q.graph]->Run(q.request);
      });
      continue;
    }
    samples.setup_s.push_back(setup_s);
    samples.load_ms.push_back(load_ms);
  }

  for (const auto& g : graphs) out.notes.push_back(MakeUp(g));
  AnswerBook book;
  auto run = [&](const StaticQuery& q, std::set<std::string>* cold_keys) {
    DccsResult result;
    QuerySample sample;
    std::string error;
    if (!RunQuery(*engines[q.graph], q.request, &result, &sample, &error)) {
      out.Fail(q.label, error);
      return;
    }
    book.Record(q.label, result);
    if (q.known_fault) return;  // kept out of the latency figures
    samples.query_ms.push_back(sample.e2e_ms);
    samples.ledger.push_back(sample);
    const std::string key = graphs[q.graph].name + " d=" +
                            std::to_string(q.request.params.d) + " s=" +
                            std::to_string(q.request.params.s);
    if (cold_keys != nullptr && cold_keys->insert(key).second) {
      samples.cold_ms[key].push_back(sample.e2e_ms);
    }
  };
  for (auto& engine : engines) engine->ClearCache();
  for (const auto& q : plan.once) run(q, nullptr);
  const double start = Now();
  while (out.error.empty() && (Now() - start < cfg.seconds)) {
    for (auto& engine : engines) engine->ClearCache();
    std::set<std::string> cold_keys;
    for (const auto& q : plan.passes) run(q, &cold_keys);
    for (const auto& q : plan.passes) run(q, nullptr);
  }
  samples.window_s = Now() - start;
  samples.peak_rss_mb = PeakRssMb();

  std::vector<StaticQuery> all = plan.once;
  all.insert(all.end(), plan.passes.begin(), plan.passes.end());
  VerifyStatic(graphs, all, book, /*timed_lanes=*/1, &samples, &out);
  AddCommonMetrics(samples, &out);
  if (cfg.trace) {
    double mapped = 0;
    for (const auto& g : graphs) mapped += g.stats.mapped_bytes;
    out.per_layer.Set("format.mapped_mb", mapped / (1 << 20), "MB");
    std::vector<const Engine*> views;
    for (const auto& e : engines) views.push_back(e.get());
    AddEngineLayerMetrics(views, samples.ledger, &out);
    AddSearchLayerMetrics(ProbesFor(graphs, all, book, plan.probe_labels),
                          &out);
  }
  return out;
}

Outcome RunPaperMix(const RunConfig& cfg) {
  RoundPlan plan;
  const auto& stand_ins = PaperMixStandIns();
  for (size_t g = 0; g < stand_ins.size(); ++g) {
    const auto& spec = stand_ins[g];
    plan.files.push_back(spec.name);
    const int l = spec.num_layers;
    for (int d : {3, 4}) {
      // Small s resolves to BU and large s to TD under kAuto; GD answers
      // the same keys, since C(l, 2) <= 276 candidates is cheap.
      for (int s : {2, l - 2}) {
        for (auto algorithm : {DccsAlgorithm::kAuto, DccsAlgorithm::kGreedy}) {
          StaticQuery q;
          q.graph = g;
          q.request = Request(d, s, algorithm);
          q.label = Label(spec.name, q.request, l);
          if (d == 4 && (s == 2 || algorithm == DccsAlgorithm::kAuto)) {
            plan.probe_labels.insert(q.label);
          }
          plan.passes.push_back(std::move(q));
        }
      }
    }
  }
  return RunRounds(cfg, plan,
                   std::vector<std::string>(plan.files.size(), cfg.input_dir));
}

Outcome RunRmat(const RunConfig& cfg) {
  RoundPlan plan;
  plan.files = {"rmat", "rmat_fault"};
  for (int d : {4, 6, 8}) {
    // TD runs with the reference RefineC here: the index-based RefineC
    // drops d-CC members on R-MAT graphs at every seed tried, so it is
    // measured only on the fixed fault graph below.
    const DccsRequest requests[] = {
        Request(d, 2, DccsAlgorithm::kBottomUp),
        Request(d, 2, DccsAlgorithm::kGreedy),
        Request(d, 4, DccsAlgorithm::kTopDown, /*index_refinec=*/false),
        Request(d, 4, DccsAlgorithm::kGreedy)};
    for (const auto& request : requests) {
      StaticQuery q;
      q.graph = 0;
      q.request = request;
      q.label = Label("rmat", request, 6);
      if (d == 6) plan.probe_labels.insert(q.label);
      plan.passes.push_back(std::move(q));
    }
  }
  // The known fault: TopDownDccs with the index-based RefineC returns
  // non-maximal cores on this seed-independent graph at d = 8, s = 2 and
  // s = 3 (s = 3 on 6 layers is also what kAuto picks). Each runs once per
  // run, so every run fails exactly these two operations.
  for (int s : {2, 3}) {
    StaticQuery q;
    q.graph = 1;
    q.request = Request(8, s, s == 3 ? DccsAlgorithm::kAuto
                                     : DccsAlgorithm::kTopDown);
    q.label = Label("rmat_fault", q.request, 6);
    q.known_fault = true;
    if (s == 2) plan.probe_labels.insert(q.label);
    plan.once.push_back(std::move(q));
  }
  return RunRounds(cfg, plan, {cfg.input_dir, cfg.fixed_input_dir});
}

// ---------------------------------------------------------------------------
// service-small: closed-loop clients sharing one engine over the ppi +
// author graph; every key is warmed by a cold pass right after set-up.
// ---------------------------------------------------------------------------

Outcome RunService(const RunConfig& cfg) {
  Outcome out;
  Samples samples;
  std::vector<LoadedGraph> graphs(1);
  std::unique_ptr<Engine> engine;
  std::vector<StaticQuery> keys;
  AnswerBook book;
  for (int rep = -1; rep < kSetupRepeats; ++rep) {  // rep -1 warms up
    engine.reset();
    graphs[0] = LoadedGraph();
    const double start = Now();
    const std::string error = LoadGraph(cfg.input_dir, "service", &graphs[0]);
    if (!error.empty()) {
      out.FailRun("load service: " + error);
      return out;
    }
    engine = std::make_unique<Engine>(graphs[0].graph,
                                      EngineOptions(1, 2, kServiceLanes));
    const double setup_s = Now() - start;
    if (keys.empty()) {
      const int32_t l = graphs[0].graph->NumLayers();
      for (int d : {3, 4}) {
        for (int s : {2, 3, 4, 8, 9}) {
          StaticQuery q;
          q.request = Request(d, s, DccsAlgorithm::kAuto);
          q.label = Label("service", q.request, l);
          keys.push_back(std::move(q));
        }
      }
    }
    if (rep < 0) {
      WarmUp([&] {
        for (const auto& q : keys) (void)engine->Run(q.request);
      });
      continue;
    }
    samples.setup_s.push_back(setup_s);
    samples.load_ms.push_back(graphs[0].stats.load_ms);
  }
  // Cold queries on the final engine with its caches cleared, so they pay
  // preprocessing but not the start of fresh worker threads; the last pass
  // leaves every key warm for the clients.
  for (int pass = 0; pass < kServiceColdPasses; ++pass) {
    engine->ClearCache();
    for (const auto& q : keys) {
      DccsResult result;
      QuerySample sample;
      std::string query_error;
      if (!RunQuery(*engine, q.request, &result, &sample, &query_error)) {
        out.attempted = static_cast<int64_t>(keys.size());
        out.Fail(q.label, query_error);
        return out;
      }
      book.Record(q.label, result);
      samples.cold_ms[q.label].push_back(sample.e2e_ms);
    }
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int clients = static_cast<int>(std::min(4u, hw));
  std::vector<std::vector<QuerySample>> per_client(clients);
  // Per client: the label and error of a refused query.
  std::vector<std::pair<std::string, std::string>> errors(clients);
  const double start = Now();
  const double deadline = start + cfg.seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      size_t next = static_cast<size_t>(c) * 3;
      while (Now() < deadline) {
        const StaticQuery& q = keys[next++ % keys.size()];
        DccsResult result;
        QuerySample sample;
        if (!RunQuery(*engine, q.request, &result, &sample,
                      &errors[c].second)) {
          errors[c].first = q.label;
          break;
        }
        book.Record(q.label, result);
        per_client[c].push_back(sample);
      }
    });
  }
  for (auto& t : threads) t.join();
  samples.window_s = Now() - start;
  samples.peak_rss_mb = PeakRssMb();
  for (int c = 0; c < clients; ++c) {
    if (!errors[c].first.empty()) {
      out.Fail(errors[c].first, errors[c].second);
    }
    for (const auto& s : per_client[c]) {
      samples.query_ms.push_back(s.e2e_ms);
      samples.ledger.push_back(s);
    }
  }
  VerifyStatic(graphs, keys, book, kServiceLanes, &samples, &out);
  AddCommonMetrics(samples, &out);
  out.notes.push_back(MakeUp(graphs[0]) + ", clients " +
                      std::to_string(clients));
  if (cfg.trace) {
    out.per_layer.Set("format.mapped_mb",
                      graphs[0].stats.mapped_bytes / double(1 << 20), "MB");
    AddEngineLayerMetrics({engine.get()}, samples.ledger, &out);
    std::set<std::string> labels = {keys[0].label, keys[4].label};
    AddSearchLayerMetrics(ProbesFor(graphs, keys, book, labels), &out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// churn-subscribe: an open-loop writer, standing BU and TD subscriptions and
// one polling client over a GraphStore that tracks d = 4.
// ---------------------------------------------------------------------------

constexpr int kTrackedD = 4;
constexpr double kBatchPeriodS = 0.1;  // one update batch every 100 ms
constexpr int kBackgroundEdges = 32;    // edges per background batch
constexpr int kCoreVertices = 2;  // core members cut out per core batch
constexpr int kKeptCoreEdges = 2;  // edges into the core each of them keeps
constexpr double kPollThinkS = 0.005;

uint64_t EdgeKey(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
}

// The benchmark's own copy of the edge set, one hash set per layer.
struct EdgeSets {
  std::vector<std::unordered_set<uint64_t>> layers;
  std::vector<std::vector<int>> degree;

  explicit EdgeSets(const MultiLayerGraph& graph) {
    layers.resize(static_cast<size_t>(graph.NumLayers()));
    degree.assign(static_cast<size_t>(graph.NumLayers()),
                  std::vector<int>(static_cast<size_t>(graph.NumVertices())));
    for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        degree[layer][v] = static_cast<int>(graph.Neighbors(layer, v).size());
        for (VertexId u : graph.Neighbors(layer, v)) {
          if (v < u) layers[layer].insert(EdgeKey(v, u));
        }
      }
    }
  }
  bool Has(LayerId layer, VertexId u, VertexId v) const {
    return layers[layer].count(EdgeKey(u, v)) > 0;
  }
  void Apply(const mlcore::UpdateBatch& batch) {
    for (const auto& e : batch.remove_edges) {
      layers[e.layer].erase(EdgeKey(e.u, e.v));
      --degree[e.layer][e.u];
      --degree[e.layer][e.v];
    }
    for (const auto& e : batch.insert_edges) {
      layers[e.layer].insert(EdgeKey(e.u, e.v));
      ++degree[e.layer][e.u];
      ++degree[e.layer][e.v];
    }
  }
  bool Matches(const MultiLayerGraph& graph) const {
    if (graph.NumLayers() != static_cast<int32_t>(layers.size())) return false;
    for (LayerId layer = 0; layer < graph.NumLayers(); ++layer) {
      if (graph.NumEdges(layer) !=
          static_cast<int64_t>(layers[layer].size())) {
        return false;
      }
      for (VertexId v = 0; v < graph.NumVertices(); ++v) {
        for (VertexId u : graph.Neighbors(layer, v)) {
          if (v < u && !Has(layer, v, u)) return false;
        }
      }
    }
    return true;
  }
};

// The batch schedule: a repeating cycle of eight batches, six of background
// churn and two of core churn.
//  * Background batches insert edges between vertices outside the layer's
//    initial 4-core whose degree stays <= 3 on that layer (so no d-core can
//    change), and the next batch removes them again.
//  * Core batches cut two members of a layer's initial 4-core down to two
//    edges into that core, so both leave it (and may pull others out), and
//    a later batch restores the edges.
std::vector<mlcore::UpdateBatch> PlanBatches(const MultiLayerGraph& graph,
                                             uint64_t seed, size_t count) {
  const int32_t n = graph.NumVertices();
  const int32_t l = graph.NumLayers();
  std::vector<std::vector<char>> in_core(static_cast<size_t>(l));
  for (LayerId layer = 0; layer < l; ++layer) {
    in_core[layer].assign(static_cast<size_t>(n), 0);
    for (VertexId v : PeelCoherentCore(graph, {layer}, kTrackedD)) {
      in_core[layer][v] = 1;
    }
  }
  EdgeSets edges(graph);
  std::mt19937_64 rng(seed ^ 0x6a09e667f3bcc909ULL);
  auto uniform = [&rng](int32_t bound) {
    return static_cast<int32_t>(rng() % static_cast<uint64_t>(bound));
  };
  static constexpr char kCycle[] = "+-+-C+-R";
  std::vector<mlcore::UpdateBatch> batches;
  mlcore::UpdateBatch last_background, last_core;
  while (batches.size() < count) {
    mlcore::UpdateBatch batch;
    switch (kCycle[batches.size() % 8]) {
      case '+': {
        for (int tries = 0; static_cast<int>(batch.insert_edges.size()) <
                                kBackgroundEdges && tries < 100000;
             ++tries) {
          const LayerId layer = uniform(l);
          const VertexId u = uniform(n), v = uniform(n);
          if (u == v || in_core[layer][u] || in_core[layer][v] ||
              edges.degree[layer][u] > 2 || edges.degree[layer][v] > 2 ||
              edges.Has(layer, u, v)) {
            continue;
          }
          batch.Insert(layer, u, v);
          edges.Apply(mlcore::UpdateBatch().Insert(layer, u, v));
        }
        last_background = batch;
        break;
      }
      case '-':
        for (const auto& e : last_background.insert_edges) {
          batch.Remove(e.layer, e.u, e.v);
        }
        edges.Apply(batch);
        break;
      case 'C': {
        const LayerId layer = uniform(l);
        std::set<uint64_t> taken;
        for (int picked = 0, tries = 0;
             picked < kCoreVertices && tries < 100000; ++tries) {
          const VertexId v = uniform(n);
          if (!in_core[layer][v]) continue;
          int kept = 0, removed = 0;
          for (VertexId u : graph.Neighbors(layer, v)) {
            if (!in_core[layer][u] || !edges.Has(layer, v, u)) continue;
            if (kept < kKeptCoreEdges || !taken.insert(EdgeKey(v, u)).second) {
              ++kept;
              continue;
            }
            batch.Remove(layer, v, u);
            ++removed;
          }
          picked += removed > 0;
        }
        edges.Apply(batch);
        last_core = batch;
        break;
      }
      case 'R':
        for (const auto& e : last_core.remove_edges) {
          batch.Insert(e.layer, e.u, e.v);
        }
        edges.Apply(batch);
        break;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct Delivered {
  uint64_t epoch = 0;
  double at = 0;
  bool unchanged = false;
  DccsResult result;
};

Outcome RunChurn(const RunConfig& cfg) {
  Outcome out;
  Samples samples;
  LoadedGraph base;
  std::shared_ptr<GraphStore> store;
  std::unique_ptr<Engine> engine;
  std::vector<double> store_init_ms;
  const DccsRequest polls[] = {Request(4, 2, DccsAlgorithm::kAuto),
                               Request(4, 9, DccsAlgorithm::kAuto),
                               Request(3, 3, DccsAlgorithm::kAuto)};
  const DccsRequest subs[] = {Request(4, 2, DccsAlgorithm::kAuto),
                              Request(4, 9, DccsAlgorithm::kAuto)};
  AnswerBook book;  // polled answers, keyed by request and epoch
  std::map<std::string, size_t> poll_index;
  auto poll_label = [&poll_index](size_t i, uint64_t epoch) {
    std::string label =
        "poll" + std::to_string(i) + " epoch " + std::to_string(epoch);
    poll_index[label] = i;
    return label;
  };
  for (int rep = -1; rep < kSetupRepeats; ++rep) {  // rep -1 warms up
    engine.reset();
    store.reset();
    base = LoadedGraph();
    const double start = Now();
    const std::string error = LoadGraph(cfg.input_dir, "author", &base);
    if (!error.empty()) {
      out.FailRun("load author: " + error);
      return out;
    }
    GraphStore::Options store_options;
    store_options.tracked_degrees = {kTrackedD};
    const double store_start = Now();
    store = std::make_shared<GraphStore>(base.graph, store_options);
    const double store_ms = (Now() - store_start) * 1e3;
    engine = std::make_unique<Engine>(store, EngineOptions(1, 0, 1));
    const double setup_s = Now() - start;
    if (rep < 0) {
      WarmUp([&] {
        for (const auto& request : polls) (void)engine->Run(request);
      });
      continue;
    }
    samples.setup_s.push_back(setup_s);
    samples.load_ms.push_back(base.stats.load_ms);
    store_init_ms.push_back(store_ms);
    for (size_t i = 0; i < std::size(polls); ++i) {
      DccsResult result;
      QuerySample sample;
      std::string query_error;
      if (!RunQuery(*engine, polls[i], &result, &sample, &query_error)) {
        out.attempted = 1;
        out.Fail(poll_label(i, 0), query_error);
        return out;
      }
      book.Record(poll_label(i, result.epoch), result);
      samples.cold_ms[std::to_string(i)].push_back(sample.e2e_ms);
    }
  }
  const MultiLayerGraph& graph0 = *base.graph;
  out.notes.push_back(MakeUp(base));
  const size_t max_batches =
      static_cast<size_t>(cfg.seconds / kBatchPeriodS) + 1;
  const std::vector<mlcore::UpdateBatch> batches =
      PlanBatches(graph0, cfg.seed, max_batches);

  std::vector<mlcore::Subscription> subscriptions;
  for (const auto& request : subs) {
    auto sub = engine->Subscribe(request);
    if (!sub.ok()) {
      out.FailRun("subscribe: " + sub.status().message);
      return out;
    }
    subscriptions.push_back(std::move(sub).value());
  }
  std::vector<std::vector<Delivered>> delivered(subscriptions.size());
  std::vector<std::thread> readers;
  for (size_t i = 0; i < subscriptions.size(); ++i) {
    readers.emplace_back([&, i] {
      while (auto revision = subscriptions[i].Next()) {
        Delivered d;
        d.at = Now();
        d.epoch = revision->epoch;
        d.unchanged = revision->unchanged;
        d.result.cores = std::move(revision->result.cores);
        delivered[i].push_back(std::move(d));
      }
    });
  }

  // Writer: batch i is due at start + i * period; its latency counts from
  // when it was due, so a stalled writer shows in every later batch. After
  // each batch it checks the published snapshot against the benchmark's own
  // edge set with the batch applied (off the latency path).
  struct Applied {
    double due = 0, began = 0, returned = 0;
    mlcore::UpdateOutcome outcome;
  };
  std::vector<Applied> applied;
  size_t issued = 0;  // batches handed to ApplyUpdate
  std::string writer_op, writer_error;
  const double start = Now();
  const double deadline = start + cfg.seconds;
  std::thread writer([&] {
    EdgeSets expected(graph0);
    for (size_t i = 0; i < batches.size(); ++i) {
      Applied a;
      a.due = start + static_cast<double>(i) * kBatchPeriodS;
      if (a.due >= deadline) break;
      SleepUntil(a.due);
      a.began = Now();
      ++issued;
      auto outcome = engine->ApplyUpdate(batches[i]);
      a.returned = Now();
      writer_op = "batch " + std::to_string(i);
      if (!outcome.ok()) {
        writer_error = "rejected: " + outcome.status().message;
        break;
      }
      a.outcome = outcome.value();
      applied.push_back(a);
      expected.Apply(batches[i]);
      if (!expected.Matches(store->snapshot()->graph())) {
        writer_error = "published epoch " + std::to_string(a.outcome.epoch) +
                       " differs from the benchmark's edge set";
        break;
      }
    }
  });
  std::vector<QuerySample> poll_samples;
  std::string poll_op, poll_error;
  // The poll cycle asks the cheap tracked-d BU request 7 times in 10, the
  // TD request twice and the untracked-d request once, so the median poll
  // sits inside the BU request's distribution and the 90th percentile
  // inside the TD request's, never on the boundary between two requests.
  static constexpr size_t kPollCycle[] = {0, 0, 1, 0, 0, 2, 0, 0, 1, 0};
  for (size_t next = 0; Now() < deadline; ++next) {
    const size_t i = kPollCycle[next % std::size(kPollCycle)];
    DccsResult result;
    QuerySample sample;
    if (!RunQuery(*engine, polls[i], &result, &sample, &poll_error)) {
      poll_op = "poll" + std::to_string(i) + " (refused)";
      break;
    }
    book.Record(poll_label(i, result.epoch), result);
    poll_samples.push_back(sample);
    SleepUntil(Now() + kPollThinkS);
  }
  writer.join();
  samples.window_s = Now() - start;
  samples.peak_rss_mb = PeakRssMb();
  for (auto& sub : subscriptions) sub.Cancel();
  for (auto& t : readers) t.join();

  // Operations: every batch issued, every distinct polled (request, epoch)
  // and every subscription revision.
  out.attempted = static_cast<int64_t>(issued + book.entries().size()) +
                  (poll_op.empty() ? 0 : 1);
  if (!writer_error.empty()) out.Fail(writer_op, writer_error);
  if (!poll_op.empty()) out.Fail(poll_op, poll_error);
  book.ReportMismatches(&out);
  for (const auto& s : poll_samples) {
    samples.query_ms.push_back(s.e2e_ms);
    samples.ledger.push_back(s);
  }

  // The store keeps only its newest epoch, so the checks below rebuild the
  // older ones by replaying the same batches through a fresh store; every
  // replayed epoch is first checked against the benchmark's edge set, which
  // the writer already matched against each epoch the engine served.
  std::map<uint64_t, std::vector<std::pair<size_t, const AnswerBook::Entry*>>>
      polled_at;
  for (const auto& [label, entry] : book.entries()) {
    polled_at[entry.first.epoch].push_back({poll_index.at(label), &entry});
  }
  std::vector<std::map<uint64_t, std::vector<const Delivered*>>> revised_at(
      subscriptions.size());
  auto revision_label = [](size_t s, uint64_t epoch) {
    return "sub" + std::to_string(s) + " epoch " + std::to_string(epoch);
  };
  int64_t revisions = 0, unchanged = 0;
  for (size_t s = 0; s < subscriptions.size(); ++s) {
    for (size_t r = 0; r < delivered[s].size(); ++r) {
      const Delivered& d = delivered[s][r];
      ++revisions;
      unchanged += d.unchanged;
      if (r > 0 && d.epoch <= delivered[s][r - 1].epoch) {
        out.Fail(revision_label(s, d.epoch),
                 "revision did not move forward from epoch " +
                     std::to_string(delivered[s][r - 1].epoch));
      }
      revised_at[s][d.epoch].push_back(&d);
    }
  }
  out.attempted += revisions;
  const DccsResult* self_test_answer = nullptr;
  // Checks one epoch: each polled answer against the d-CC definition, and
  // each revision against a fresh four-lane SolveDccs on a copy of the
  // epoch's graph.
  auto check_epoch = [&](uint64_t epoch, const MultiLayerGraph& graph) {
    for (const auto& [i, entry] : polled_at[epoch]) {
      const Verdict verdict = CheckAnswer(graph, polls[i].params, entry->first);
      if (!verdict.ok()) {
        out.Fail(poll_label(i, epoch), verdict.error);
      } else if (epoch == 0) {
        samples.cover_vertices += entry->first.CoverSize();
        if (self_test_answer == nullptr && !entry->first.cores.empty()) {
          self_test_answer = &entry->first;
          const std::string error =
              SelfTest(graph, polls[i].params, entry->first);
          if (!error.empty()) out.FailRun(error);
        }
      }
    }
    for (size_t s = 0; s < subscriptions.size(); ++s) {
      auto it = revised_at[s].find(epoch);
      if (it == revised_at[s].end()) continue;
      const MultiLayerGraph copy = graph;
      DccsParams params = subs[s].params;
      params.search_threads = kCheckLanes;  // the engine runs one lane
      const DccsResult fresh =
          mlcore::SolveDccs(copy, params, subs[s].algorithm);
      const Verdict verdict = CheckAnswer(copy, subs[s].params, fresh);
      if (!verdict.ok()) {
        out.Fail(revision_label(s, epoch),
                 "fresh SolveDccs on the epoch: " + verdict.error);
      }
      for (const Delivered* d : it->second) {
        if (d->result.cores != fresh.cores) {
          out.Fail(revision_label(s, epoch),
                   "revision differs from a fresh SolveDccs on that epoch");
        }
      }
    }
  };
  check_epoch(0, graph0);
  {
    EdgeSets expected(graph0);
    GraphStore replay(base.graph);
    for (size_t i = 0; i < applied.size(); ++i) {
      expected.Apply(batches[i]);
      auto outcome = replay.ApplyUpdate(batches[i]);
      if (!outcome.ok() || outcome->epoch != applied[i].outcome.epoch ||
          !expected.Matches(replay.snapshot()->graph())) {
        out.Fail("batch " + std::to_string(i),
                 "replaying it did not reproduce epoch " +
                     std::to_string(applied[i].outcome.epoch));
        break;
      }
      check_epoch(outcome->epoch, replay.snapshot()->graph());
    }
  }
  if (self_test_answer == nullptr) {
    out.FailRun("no correct non-empty answer to run the checker's self-test "
                "on");
  }

  // Revision lag: from ApplyUpdate returning epoch e to the first revision
  // of each subscription at an epoch >= e.
  std::vector<double> lag_ms;
  for (size_t s = 0; s < subscriptions.size(); ++s) {
    size_t r = 0;
    for (const auto& a : applied) {
      while (r < delivered[s].size() &&
             delivered[s][r].epoch < a.outcome.epoch) {
        ++r;
      }
      if (r == delivered[s].size()) break;
      lag_ms.push_back(std::max(0.0, delivered[s][r].at - a.returned) * 1e3);
    }
  }

  AddCommonMetrics(samples, &out);
  std::vector<double> update_ms, apply_ms, late_ms;
  int64_t core_changes = 0, incremental = 0, recomputes = 0;
  for (const auto& a : applied) {
    update_ms.push_back((a.returned - a.due) * 1e3);
    apply_ms.push_back((a.returned - a.began) * 1e3);
    late_ms.push_back((a.began - a.due) * 1e3);
    core_changes += a.outcome.core_exits + a.outcome.core_entries;
    incremental += a.outcome.incremental_layer_updates;
    recomputes += a.outcome.full_layer_recomputes;
  }
  out.notes.push_back(
      "batches " + std::to_string(applied.size()) + ", update p50 " +
      std::to_string(Quantile(update_ms, 0.5)) + " ms, p90 " +
      std::to_string(Quantile(update_ms, 0.9)) + " ms, writer late p50 " +
      std::to_string(Quantile(late_ms, 0.5)) + " ms, max " +
      std::to_string(Quantile(late_ms, 1.0)) + " ms");
  out.notes.push_back("revisions " + std::to_string(revisions) +
                      " (unchanged " + std::to_string(unchanged) +
                      "), revision lag p50 " +
                      std::to_string(Quantile(lag_ms, 0.5)) + " ms");
  if (cfg.trace) {
    auto& p = out.per_layer;
    p.Set("format.mapped_mb", base.stats.mapped_bytes / double(1 << 20), "MB");
    p.Set("store.init_ms", Quantile(store_init_ms, 0.5), "ms");
    p.Set("store.apply_p50_ms", Quantile(apply_ms, 0.5), "ms");
    p.Set("store.apply_p90_ms", Quantile(apply_ms, 0.9), "ms");
    p.Set("store.core_changes", static_cast<double>(core_changes), "count");
    p.Set("store.incremental_layers", static_cast<double>(incremental),
          "count");
    p.Set("store.full_recomputes", static_cast<double>(recomputes), "count");
    p.Set("subs.revision_lag_p50_ms", Quantile(lag_ms, 0.5), "ms");
    AddEngineLayerMetrics({engine.get()}, samples.ledger, &out);
    std::vector<Probe> probes;
    for (size_t s = 0; s < std::size(subs); ++s) {
      const AnswerBook::Entry* entry = book.Find(poll_label(s, 0));
      if (entry == nullptr) continue;
      Probe probe;
      probe.graph = &graph0;
      probe.params = subs[s].params;
      probe.algorithm = Resolve(subs[s], graph0.NumLayers());
      probe.expected = entry->first;
      probe.label = poll_label(s, 0);
      probes.push_back(std::move(probe));
    }
    AddSearchLayerMetrics(probes, &out);
  }
  return out;
}

}  // namespace

Outcome RunWorkload(const RunConfig& cfg) {
  Outcome out;
  if (cfg.workload == "paper-mix") {
    out = RunPaperMix(cfg);
  } else if (cfg.workload == "rmat-skewed") {
    out = RunRmat(cfg);
  } else if (cfg.workload == "churn-subscribe") {
    out = RunChurn(cfg);
  } else if (cfg.workload == "service-small") {
    out = RunService(cfg);
  } else {
    out.FailRun("unknown workload " + cfg.workload);
  }
  return out;
}

}  // namespace perfbench
