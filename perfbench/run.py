#!/usr/bin/env python3
"""The repo benchmark: builds the simulator from source, times the four
comet_sim workloads and checks their outputs.

    python3 perfbench/run.py --workload chase-flat --seed 42 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --record-reference        # rewrite reference.json

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every output check passed. See README.md in this directory.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DATA = ROOT / ".bench_build" / "data"
REFERENCE = HERE / "reference.json"

WORKLOADS = ["chase-flat", "stream-frfcfs", "tenants-hybrid", "trace-flat"]
REFERENCE_SEED = 42
# Requests per run (per tenant) of the comet_sim cross-check.
CHECK_REQUESTS = 20000
# comet_sim --json fields that describe how a run was invoked, not what
# it simulated.
PROVENANCE_KEYS = {
    "experiment", "config_file", "trace_file", "trace_out", "trace_limit",
    "metrics_interval_ns", "metrics_csv", "telemetry", "timeline", "host",
    "slo",
}
HARNESS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (Release) and builds the benchmark package."""
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read_text():
        raise BenchError(f"{BUILD} is not a Release build; refusing to time it")
    make = ["cmake", "--build", str(BUILD), "-j", "4"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    DATA.mkdir(parents=True, exist_ok=True)


def harness(*args):
    """Runs the harness; returns the JSON object on its last output line."""
    cmd = [str(BUILD / "perfbench"), *map(str, args), "--data-dir", str(DATA)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"harness failed ({proc.returncode}): {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(doc):
    """The single comet_sim --json result, without provenance fields."""
    (result,) = doc["results"]
    return {k: v for k, v in result.items() if k not in PROVENANCE_KEYS}


def differing_keys(got, want):
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def cross_check(workload, seed):
    """The harness's statistics must equal comet_sim's for the same run."""
    mine = harness("stats", "--workload", workload, "--seed", seed,
                   "--requests", CHECK_REQUESTS)
    out = DATA / f"comet_sim-{workload}-{seed}.json"
    cmd = [str(BUILD / "comet_sim"), *mine["comet_sim_args"], "--json", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        return False, f"comet_sim exited {proc.returncode}"
    theirs = json.loads(out.read_text())
    out.unlink()
    diff = differing_keys(record_of(mine["record"]), record_of(theirs))
    return not diff, ", ".join(diff)


def reference_check(workload, result):
    """At the reference seed the statistics must equal the recorded ones."""
    reference = json.loads(REFERENCE.read_text()).get(workload)
    if reference is None:
        return False, "no reference recorded"
    diff = differing_keys(record_of(result["record"]), reference)
    return not diff, ", ".join(diff)


def run_workload(workload, seed, seconds, trace):
    result = harness("run", "--workload", workload, "--seed", seed,
                     "--seconds", seconds, "--trace", trace)
    checks = [(c["name"], c["ok"], c["detail"]) for c in result["checks"]]
    attempted, failed = result["attempted"], result["failed"]

    ok, detail = cross_check(workload, seed)
    checks.append(("comet_sim_cross_check", ok, detail))
    attempted += 1
    failed += 0 if ok else 1

    if seed == REFERENCE_SEED:
        ok, detail = reference_check(workload, result)
        checks.append(("reference_stats", ok, detail))
        if not ok:
            # Every run reproduced the warm-up run's statistics (or failed
            # already), so every run disagrees with the reference.
            failed = attempted
    result.update(attempted=attempted, failed=failed, all_checks=checks)
    return result


def report(result):
    prov = result["provenance"]
    print(f"perfbench {result['workload']}: seed={prov['seed']} "
          f"hw_threads={prov['hw_threads']} run_threads={prov['run_threads']} "
          f"compiler='{prov['compiler']}' build={prov['build_type']} "
          f"requests={prov['requests']} runs={prov['reps']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:>16.6g} {metric['unit']}")
    rates = result["runs_requests_per_s"]
    if len(rates) >= 2:
        q1, q2, q3 = statistics.quantiles(rates, n=4)
        print(f"  requests_per_s over {len(rates)} runs: "
              f"q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g}")
    sim = result["simulated"]
    print(f"  simulated reads: {sim['read_samples']} samples, "
          f"mean {sim['read_mean_ns']:.6g} ns, p50 {sim['read_p50_ns']:.6g} ns, "
          f"p99 {sim['read_p99_ns']:.6g} ns")
    if sim["tenant_breakdown"] is False:
        print("  note: the engine reported no per-tenant breakdown "
              f"(max_slowdown {sim['max_slowdown']:g})")
    for name, ok, detail in result["all_checks"]:
        print(f"  check {name}: {'ok' if ok else 'FAILED ' + detail}")
    print(f"  runs attempted {result['attempted']}, failed {result['failed']}")


def record_reference():
    reference = {}
    for workload in WORKLOADS:
        result = harness("run", "--workload", workload, "--seed",
                         REFERENCE_SEED, "--seconds", 0, "--trace", 0)
        if result["failed"]:
            raise BenchError(f"{workload}: checks failed; not recording")
        reference[workload] = record_of(result["record"])
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    log(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    try:
        build()
        if args.record_reference:
            record_reference()
            return 0
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = [run_workload(w, args.seed, args.seconds, args.trace)
                   for w in names]
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        for trace in DATA.glob("*.nvt"):
            trace.unlink()

    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(ok for r in results
                                  for _, ok, _ in r["all_checks"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
