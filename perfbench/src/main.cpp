// soslock benchmark executable: one workload, one closed-loop client.
//
//   soslock_bench --workload table2|sweep|clock_tree --seconds S [--seed N]
//                 [--trace 0|1] [--reference-objective X] [--trace-out PATH]
//
// Set-up (building the inputs, kernel dispatch and one untimed warm-up
// request) is timed from process entry. Then requests run back to back
// until S seconds have passed (at least one). With --trace 1 untraced and
// traced requests alternate, and afterwards the workload's replays and the
// linalg kernel timings fill the per-layer metrics; the spans go to
// --trace-out as Chrome trace-event JSON. The last stdout line is one JSON
// object of raw results, which perfbench/run.py aggregates.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "linalg/kernels.hpp"
#include "sdp/structure.hpp"
#include "util/cpu.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

const Clock::time_point g_process_start = Clock::now();

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  double reference_objective = std::numeric_limits<double>::quiet_NaN();
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (key == "--reference-objective") {
      args.reference_objective = std::strtod(value, nullptr);
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

/// JSON number; non-finite values become null, which run.py rejects.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

/// Peak resident set size of this process image. Linux carries ru_maxrss
/// across execve, so it would report the launching process's peak when that
/// was larger; VmHWM belongs to this address space alone.
double peak_rss_mb() {
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), status) != nullptr)
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    std::fclose(status);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

namespace perfbench {

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(out,
                 "%s\n{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, "
                 "\"dur\": %.3f, \"pid\": 1, \"tid\": %zu, \"args\": {\"request\": %ld}}",
                 i == 0 ? "" : ",", quoted(s.name).c_str(), quoted(layer).c_str(),
                 1e6 * s.start_s, 1e6 * s.dur_s, s.thread, s.request);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
#if defined(SOSLOCK_SDP_VERIFY) || defined(SOSLOCK_FAULTS)
  std::fprintf(stderr,
               "soslock_bench: refusing to report: the library was built with the "
               "lowering verifier or fault injection compiled in (SDP_VERIFY / "
               "SOSLOCK_FAULTS); configure a Release build without them\n");
  return 3;
#endif
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: soslock_bench --workload table2|sweep|clock_tree --seconds S "
                 "[--seed N] [--trace 0|1] [--reference-objective X] [--trace-out PATH]\n");
    return 2;
  }

  // --- set-up: inputs, kernel dispatch, one untimed warm-up request --------
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, args.reference_objective);
  if (workload == nullptr) {
    std::fprintf(stderr, "soslock_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const soslock::util::SimdIsa isa = soslock::linalg::active_isa();
  int attempted = 0, correct = 0;
  auto run = [&](Tracer* tracer) {
    const Clock::time_point start = Clock::now();
    Outcome outcome;
    try {
      outcome = workload->request(tracer);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "soslock_bench: request threw: %s\n", e.what());
      outcome = Outcome{workload->verdicts_per_request(), 0};
    }
    attempted += outcome.attempted;
    correct += outcome.correct;
    return std::pair<double, int>{seconds_between(start, Clock::now()), outcome.correct};
  };
  run(nullptr);
  const double setup_s = seconds_between(g_process_start, Clock::now());

  std::printf("banner: isa=%s cpu_isa=%s nproc=%zu threads=%zu build=%s workload=%s seed=%llu\n",
              soslock::util::isa_name(isa), soslock::util::isa_name(soslock::util::detected_isa()),
              soslock::util::ThreadPool::hardware_threads(), workload->threads(),
              PERFBENCH_BUILD_TYPE, args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));

  // --- timed phase -----------------------------------------------------------
  Tracer tracer;
  std::vector<double> untraced, traced;
  int timed_correct = 0;
  double traced_cpu = 0.0, traced_wall = 0.0, cache_hits = 0.0, cache_misses = 0.0;
  const double cpu_start = cpu_seconds();
  const Clock::time_point timed_start = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const bool enough = seconds_between(timed_start, Clock::now()) >= args.seconds;
    if (enough && !untraced.empty() && (!args.trace || !traced.empty())) break;
    if (args.trace && k % 2 == 1) {
      tracer.begin_request();
      const auto cache_before = soslock::sdp::StructureCache::global().telemetry();
      const double cpu_before = cpu_seconds();
      Scope request_span(&tracer, "bench.request." + args.workload);
      const auto [wall, ok] = run(&tracer);
      request_span.stop();
      const auto cache_after = soslock::sdp::StructureCache::global().telemetry();
      traced_cpu += cpu_seconds() - cpu_before;
      traced_wall += wall;
      cache_hits += static_cast<double>(cache_after.hits - cache_before.hits);
      cache_misses += static_cast<double>(cache_after.misses - cache_before.misses);
      traced.push_back(wall);
      timed_correct += ok;
    } else {
      const auto [wall, ok] = run(nullptr);
      untraced.push_back(wall);
      timed_correct += ok;
    }
  }
  const double timed_wall = seconds_between(timed_start, Clock::now());
  const double timed_cpu = cpu_seconds() - cpu_start;

  // --- traced run: replays, kernel timings, trace file -----------------------
  Metrics layers;
  bool checks_ok = true;
  if (args.trace) {
    checks_ok = workload->finish_trace(tracer, layers);
    linalg_micro(layers);
    layers["util.cpu_util"] =
        traced_cpu / (traced_wall * static_cast<double>(workload->threads()));
    const double lookups = cache_hits + cache_misses;
    layers["sdp.structure_cache.hit_rate"] = lookups > 0 ? cache_hits / lookups : 0.0;
    layers["trace.request_p50_s"] = percentile(traced, 0.5);
    layers["trace.overhead_s"] = percentile(traced, 0.5) - percentile(untraced, 0.5);
    if (!args.trace_out.empty() && !tracer.write_chrome(args.trace_out)) {
      std::fprintf(stderr, "soslock_bench: cannot write %s\n", args.trace_out.c_str());
      checks_ok = false;
    }
  }
  const std::string detail = workload->detail();
  if (!detail.empty()) std::printf("%s\n", detail.c_str());

  std::string json = "{\"workload\": " + quoted(args.workload);
  json += ", \"setup_s\": " + number(setup_s);
  json += ", \"latencies_s\": [";
  for (std::size_t i = 0; i < untraced.size(); ++i)
    json += (i == 0 ? "" : ", ") + number(untraced[i]);
  json += "], \"timed_wall_s\": " + number(timed_wall);
  json += ", \"timed_cpu_s\": " + number(timed_cpu);
  json += ", \"timed_correct\": " + std::to_string(timed_correct);
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"correct\": " + std::to_string(correct);
  json += ", \"peak_rss_mb\": " + number(peak_rss_mb());
  json += ", \"checks_ok\": " + std::string(checks_ok ? "true" : "false");
  json += ", \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : layers) {
    json += (first ? "" : ", ") + quoted(name) + ": " + number(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
