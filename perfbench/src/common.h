#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Named metrics in print order.
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Item>& items() const { return items_; }

 private:
  std::vector<Item> items_;
};

/// Everything one run reports.
///
/// An operation is one distinct request on one graph state (a query key on
/// a static graph, a polled request at one epoch), one update batch or one
/// subscription revision. Each is checked once against the oracle, and
/// every repeat of a request must equal its checked answer, so `attempted`
/// and `failed` do not grow with the number of repeats a run fits in.
struct Outcome {
  /// First correctness violation; empty when every checked output held.
  std::string error;
  int64_t attempted = 0;
  /// Operations that failed: refused by the program, failed a check, or
  /// hit the known fault. Each is counted once.
  std::set<std::string> failed_ops;
  MetricList end_to_end;
  MetricList per_layer;
  /// Extra human-readable lines printed before the JSON result.
  std::vector<std::string> notes;

  int64_t failed() const { return static_cast<int64_t>(failed_ops.size()); }

  /// Operation `op` was refused or gave a wrong answer.
  void Fail(const std::string& op, const std::string& message) {
    failed_ops.insert(op);
    if (error.empty()) error = op + ": " + message;
  }
  /// The run itself went wrong (missing input, self-test not passed).
  void FailRun(const std::string& message) {
    if (error.empty()) error = message;
  }
  /// Operation `op` hit the known fault: failed, but the run stays correct.
  void KnownFault(const std::string& op, const std::string& note) {
    failed_ops.insert(op);
    notes.push_back("known fault, " + op + ": " + note);
  }
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding this run's generated input files.
  std::string input_dir;
  /// Directory holding the seed-independent input files (rmat-skewed's
  /// fault graph).
  std::string fixed_input_dir;
};

/// VmHWM of this process, in MiB (0 when /proc is unavailable).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
