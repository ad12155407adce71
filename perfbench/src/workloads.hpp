#pragma once
// The three benchmark workloads. Each is a closed loop with one client: the
// next request starts when the previous one has returned. A request's
// verdicts are checked against the workload's oracle; a traced request also
// records spans and the telemetry the library's public calls return, which
// finish_trace() turns into the per-layer metrics.
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Verdicts of one request, checked against the workload's oracle. A
/// request that throws counts every verdict it owed as attempted and wrong.
struct Outcome {
  int attempted = 0;
  int correct = 0;
};

/// Per-layer metrics by name (units are listed in BENCHMARK.json).
using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Verdicts one request owes (what a throwing request counts as failed).
  virtual int verdicts_per_request() const = 0;
  /// Worker threads the workload is configured with.
  virtual std::size_t threads() const = 0;
  /// Run one request; `tracer` is null on untraced requests.
  virtual Outcome request(Tracer* tracer) = 0;
  /// After the traced requests: run the replays and fill every per-layer
  /// metric this workload feeds (metrics it does not feed read 0). Returns
  /// false when a replay disagrees with the traced requests.
  virtual bool finish_trace(Tracer& tracer, Metrics& out) = 0;
  /// One line on the last request's outcome, for the human-readable log.
  virtual std::string detail() const { return {}; }
};

/// "table2" | "sweep" | "clock_tree"; nullptr for an unknown name. `seed`
/// shifts the sweep grid's axis bounds; `reference_objective` is the
/// clock-tree oracle value.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        double reference_objective);

/// linalg kernels at the shapes the workloads load (see linalg_micro.cpp).
void linalg_micro(Metrics& out);

/// Process user+sys CPU seconds so far.
double cpu_seconds();

/// Linearly interpolated quantile q in [0, 1]; 0 for no values.
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
