#!/usr/bin/env python3
"""soslock benchmark: the paper's Table-2 pipeline, the design-space sweep
service and the clock-tree ADMM, one closed-loop client each.

    python3 perfbench/run.py --workload table2|sweep|clock_tree \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call builds perfbench/ (and with it
the library, from the repository's own CMake definition) into .bench_build/.

--trace 0 starts PROCESSES fresh benchmark processes, each timing its own
set-up and then S/PROCESSES seconds of requests, and reports the end-to-end
metrics of BENCHMARK.json: request latency and throughput pooled over the
processes, set-up time and peak RSS as their medians. --trace 1 runs one
process that alternates untraced and traced requests for S seconds, then
replays and times the layers, and reports the per-layer metrics; its Chrome
trace goes to .bench_build/traces/. Every request's verdicts are checked
against the workload's oracle (perfbench/reference.json holds the
clock-tree reference objective). The last stdout line is the JSON result.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "soslock_bench")
PROCESSES = 3
# Every measuring process must have ended this long after the build.
MEASURE_LIMIT_S = 165


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "soslock_bench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_binary(workload, seed, seconds, trace, reference, deadline):
    """One benchmark process, killed at `deadline`; returns its result line."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", "1" if trace else "0",
           "--reference-objective", repr(reference["clock_tree"]["objective"])]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, universal_newlines=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    return json.loads(lines[-1])


def end_to_end(results):
    """Latency and throughput pooled over the processes' timed requests;
    set-up time and peak RSS as the median over the processes."""
    for r in results:
        log("process: %d requests, %d verdicts in %.6g s, %.6g cpu s, setup %.6g s"
            % (len(r["latencies_s"]), r["timed_correct"], r["timed_wall_s"], r["timed_cpu_s"],
               r["setup_s"]))
    verdicts = sum(r["timed_correct"] for r in results)
    return {
        "request_p50_s": statistics.median(x for r in results for x in r["latencies_s"]),
        "verdicts_per_s": verdicts / sum(r["timed_wall_s"] for r in results),
        "cpu_s_per_verdict": sum(r["timed_cpu_s"] for r in results) / max(1, verdicts),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def measure(spec, reference, workload, seed, seconds, trace, processes=PROCESSES):
    """Run one workload; returns (result object, metrics named but not emitted)."""
    deadline = time.monotonic() + MEASURE_LIMIT_S
    if trace:
        results = [run_binary(workload, seed, seconds, True, reference, deadline)]
        layers = results[0]["layers"]
        log("per-layer summary (%s, traced):" % workload)
        for name in sorted(layers):
            log("  %-44s %.6g" % (name, layers[name]))
        log("tracing overhead: traced request_p50_s - untraced = %.6g s"
            % layers.get("trace.overhead_s", float("nan")))
        specs, measured = spec["per_layer"], layers
        # A layer the workload does not load reads 0 (e.g. core.* on sweep).
        missing = [m["name"] for m in specs if m["name"] not in measured]
        values = {m["name"]: measured.get(m["name"], 0.0) for m in specs}
    else:
        share = seconds / processes
        results = [run_binary(workload, seed, share, False, reference, deadline)
                   for _ in range(processes)]
        specs, values = spec["end_to_end"], end_to_end(results)
        missing = [m["name"] for m in specs if m["name"] not in values]
    attempted = sum(r["attempted"] for r in results)
    failed = attempted - sum(r["correct"] for r in results)
    finite = all(isinstance(values.get(m["name"]), (int, float)) and
                 math.isfinite(values[m["name"]]) for m in specs)
    correct = failed == 0 and finite and all(r["checks_ok"] for r in results)
    log("error_rate: %d wrong of %d verdicts attempted = %.6g"
        % (failed, attempted, failed / max(1, attempted)))
    if not trace:
        for m in specs:
            log("  %-40s %14.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in specs},
    }
    return result, missing


def self_test(spec, reference):
    """One request per workload, untraced and traced: every metric named in
    BENCHMARK.json must be emitted with its unit, and every per-layer metric
    must be measured by at least one workload."""
    ok = True
    fed = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result, missing = measure(spec, reference, workload, 1, 0.0, trace, processes=1)
            kind = "per_layer" if trace else "end_to_end"
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()
                   if m["value"] is not None}
            if trace:
                fed.update(name for name in wanted if name not in missing)
            elif missing:
                log("self-test: %s does not emit %s" % (workload, missing))
                ok = False
            if got != wanted or not result["correct"]:
                log("self-test: %s trace=%d: metrics or verdicts wrong" % (workload, trace))
                ok = False
    unfed = sorted(m["name"] for m in spec["per_layer"] if m["name"] not in fed)
    if unfed:
        log("self-test: no workload measures %s" % unfed)
        ok = False
    log("self-test: %s" % ("PASS" if ok else "FAIL"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    build()
    if args.self_test:
        return 0 if self_test(spec, reference) else 1
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    result, _ = measure(spec, reference, args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as error:
        log("run.py: %s" % error)
        sys.exit(1)
