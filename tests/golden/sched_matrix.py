#!/usr/bin/env python3
"""Golden scheduler matrix: reruns comet_sim over every scheduling
policy x device x queue depth x tenancy cell and requires the --json
records to equal the committed ones exactly.

    sched_matrix.py --comet-sim build/comet_sim             # check
    sched_matrix.py --comet-sim build/comet_sim --record    # rewrite

The devices cover every arbitration input: comet (photonic GST regions),
ddr4 (DRAM row buffer) and epcm.
Queue depth 0 is unbounded; its frfcfs ddr4 cell must queue more reads
than the 256-entry scheduling window, which this check asserts so the
window provably binds. Records drop the fields that describe how a run
was invoked rather than what it simulated. Stdlib only.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "sched_matrix.json"

POLICIES = ["fcfs", "frfcfs", "read-first", "token-budget", "frfcfs-cap"]
# Label -> comet_sim device arguments.
DEVICES = {
    "comet": ["--device", "comet"],
    "ddr4": ["--device", "ddr4"],
    "epcm": ["--device", "epcm"],
}
DEPTHS = [8, 32, 0]
STREAMS = {
    "single": ["--workload", "lbm_like", "--requests", "4000"],
    "tenants": ["--tenants", "a=mcf_like,b=lbm_like", "--requests", "2000"],
}
# Small fairness knobs so token refills and starvation boosts happen
# often within the short runs.
POLICY_KNOBS = {
    "token-budget": ["--tenant-tokens", "8"],
    "frfcfs-cap": ["--starvation-cap", "4"],
}
# Same set perfbench/run.py strips.
PROVENANCE_KEYS = {
    "experiment", "config_file", "trace_file", "trace_out", "trace_limit",
    "metrics_interval_ns", "metrics_csv", "telemetry", "timeline", "host",
    "slo",
}
WINDOW = 256
WINDOW_CELL = "frfcfs/ddr4/q0/single"


def cells():
    for policy in POLICIES:
        for device, device_args in DEVICES.items():
            for depth in DEPTHS:
                for stream, stream_args in STREAMS.items():
                    args = [*device_args, *stream_args, "--schedule", policy,
                            "--read-q", str(depth), "--write-q", str(depth)]
                    if stream == "tenants":
                        args += POLICY_KNOBS.get(policy, [])
                    yield f"{policy}/{device}/q{depth}/{stream}", args


def run_cell(comet_sim, args, scratch):
    out = Path(scratch) / "cell.json"
    cmd = [comet_sim, *args, "--threads", "1", "--json", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"comet_sim failed ({proc.returncode}): {' '.join(cmd)}\n"
                 f"{proc.stderr}")
    (result,) = json.loads(out.read_text())["results"]
    return {k: v for k, v in result.items() if k not in PROVENANCE_KEYS}


def diff_fields(want, got, prefix=""):
    """Dotted paths of every leaf that differs between two records."""
    if isinstance(want, dict) and isinstance(got, dict):
        paths = []
        for key in sorted(set(want) | set(got)):
            paths += diff_fields(want.get(key), got.get(key),
                                 f"{prefix}{key}.")
        return paths
    if isinstance(want, list) and isinstance(got, list) and \
            len(want) == len(got):
        paths = []
        for i, (w, g) in enumerate(zip(want, got)):
            paths += diff_fields(w, g, f"{prefix}{i}.")
        return paths
    return [] if want == got else [prefix.rstrip(".")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--comet-sim", required=True)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the golden file instead of checking")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as scratch:
        records = {name: run_cell(args.comet_sim, cell_args, scratch)
                   for name, cell_args in cells()}

    occupancy = records[WINDOW_CELL]["sched"]["avg_read_queue_occupancy"]
    if occupancy <= WINDOW:
        sys.exit(f"{WINDOW_CELL}: mean read-queue occupancy {occupancy} "
                 f"does not exceed the {WINDOW}-entry scheduling window")

    if args.record:
        GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) +
                          "\n")
        print(f"wrote {GOLDEN} ({len(records)} cells)")
        return 0

    golden = json.loads(GOLDEN.read_text())
    failures = []
    for name in sorted(set(golden) | set(records)):
        if name not in records:
            failures.append(f"{name}: golden cell no longer produced")
        elif name not in golden:
            failures.append(f"{name}: not in the golden file (--record)")
        else:
            fields = diff_fields(golden[name], records[name])
            if fields:
                failures.append(f"{name}: {', '.join(fields[:6])}")
    if failures:
        print(f"FAIL: {len(failures)} of {len(records)} cells differ:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"OK: {len(records)} cells match {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
