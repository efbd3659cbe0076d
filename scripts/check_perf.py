#!/usr/bin/env python3
"""Perf regression gate for the bench_json.hpp schema.

Compares a current bench run against a committed baseline, matching
results by their ``name`` key, and fails (exit 1) when any cell's
``requests_per_s`` dropped by more than the allowed fraction — or when
a baseline cell is missing from the current run (a silently dropped
cell would otherwise read as "no regression"). New cells that only
exist in the current run are reported but never fail: they get gated
once they land in the baseline. Cells that *improved* past the same
threshold are flagged informationally (never failing) — a stale
baseline under-gates every later change, so a refresh is suggested.

Thread-count guard: every bench cell records the host's resolved
hardware thread count under ``config.hw_threads``. A sharded cell
(``config.run_threads`` other than 1) scales with the core count, so
when its baseline was generated on a host with a different thread
count it is warned about and skipped instead of gated. A serial cell
(no ``config.run_threads``, or ``run_threads == 1``) runs on one core
whatever the host has, so it is gated across a thread-count mismatch.
Cells whose baselines predate ``hw_threads`` compare as before.

Report mode (PR 10): ``--report [DIR]`` pairs every
``BASELINE_<x>.json`` with its ``BENCH_<x>.json`` in DIR (default: the
current directory — the layout the CI perf lane creates) and writes a
markdown perf-trajectory table to ``--out`` (default:
``PERF_REPORT.md``). Report mode never fails the build; it is the
visibility artifact, the pairwise gate above is the enforcement.

Usage:
    check_perf.py BASELINE.json CURRENT.json [--max-regression 0.15]
    check_perf.py --report [DIR] [--out PERF_REPORT.md]

Stdlib only, so it runs on any CI image with a bare python3.
"""

import argparse
import glob
import json
import os
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    for key in ("bench", "schema_version", "results"):
        if key not in doc:
            sys.exit(f"{path}: not a bench_json document (missing '{key}')")
    if doc["schema_version"] != 1:
        sys.exit(f"{path}: unsupported schema_version {doc['schema_version']}")
    by_name = {}
    for result in doc["results"]:
        name = result["name"]
        if name in by_name:
            sys.exit(f"{path}: duplicate result name '{name}'")
        by_name[name] = result
    return doc["bench"], by_name


def hw_threads_of(result):
    """The recorded host thread count, or None for cells without one."""
    return result.get("config", {}).get("hw_threads")


def is_serial(result):
    """True for a cell that replays on one thread whatever the host has."""
    return result.get("config", {}).get("run_threads", 1) == 1


def compare_cells(baseline, current, max_regression):
    """Pairs baseline and current cells into comparison rows.

    Each row is a dict with name / base_rps / cur_rps / delta / status,
    where status is one of: ok, regression, improved, missing, new,
    skipped (a sharded cell across an hw_threads mismatch — note
    carries the detail).
    """
    rows = []
    for name in sorted(baseline):
        base = baseline[name]
        row = {"name": name, "base_rps": base["requests_per_s"],
               "cur_rps": None, "delta": None, "status": "missing",
               "note": ""}
        if name in current:
            cur = current[name]
            row["cur_rps"] = cur["requests_per_s"]
            base_hw = hw_threads_of(base)
            cur_hw = hw_threads_of(cur)
            if (base_hw is not None and cur_hw is not None
                    and base_hw != cur_hw
                    and not (is_serial(base) and is_serial(cur))):
                row["status"] = "skipped"
                row["note"] = (f"hw_threads {base_hw} -> {cur_hw}: "
                               "not comparable")
            else:
                base_rps = row["base_rps"]
                delta = ((row["cur_rps"] - base_rps) / base_rps
                         if base_rps > 0 else 0.0)
                row["delta"] = delta
                if delta < -max_regression:
                    row["status"] = "regression"
                elif delta > max_regression:
                    row["status"] = "improved"
                else:
                    row["status"] = "ok"
        rows.append(row)
    for name in sorted(set(current) - set(baseline)):
        rows.append({"name": name, "base_rps": None,
                     "cur_rps": current[name]["requests_per_s"],
                     "delta": None, "status": "new", "note": ""})
    return rows


def run_gate(args):
    bench_base, baseline = load(args.baseline)
    bench_cur, current = load(args.current)
    if bench_base != bench_cur:
        sys.exit(
            f"bench mismatch: baseline is '{bench_base}', "
            f"current is '{bench_cur}'"
        )

    rows = compare_cells(baseline, current, args.max_regression)
    failures = []
    improvements = []
    skips = []
    width = max((len(r["name"]) for r in rows), default=4)
    print(f"perf gate: {bench_base} "
          f"(max regression {args.max_regression:.0%})")
    print(f"{'cell':<{width}}  {'baseline':>12}  {'current':>12}  {'delta':>8}")
    for row in rows:
        name = row["name"]
        if row["status"] == "missing":
            print(f"{name:<{width}}  {row['base_rps']:>12.0f}  {'MISSING':>12}")
            failures.append(f"{name}: missing from current run")
            continue
        if row["status"] == "new":
            print(f"{name:<{width}}  {'(new)':>12}  {row['cur_rps']:>12.0f}")
            continue
        if row["status"] == "skipped":
            print(f"{name:<{width}}  {row['base_rps']:>12.0f}  "
                  f"{row['cur_rps']:>12.0f}  {'skipped':>8}  << {row['note']}")
            skips.append(f"{name}: {row['note']}")
            continue
        flag = ""
        if row["status"] == "regression":
            flag = "  << REGRESSION"
            failures.append(f"{name}: {row['delta']:+.1%} (allowed -"
                            f"{args.max_regression:.0%})")
        elif row["status"] == "improved":
            flag = "  << improved"
            improvements.append(f"{name}: {row['delta']:+.1%}")
        print(f"{name:<{width}}  {row['base_rps']:>12.0f}  "
              f"{row['cur_rps']:>12.0f}  {row['delta']:>+7.1%}{flag}")

    if skips:
        print(f"\nwarning: {len(skips)} sharded cell(s) skipped — the "
              "baseline was recorded on a host with a different hardware "
              "thread count, so its throughput does not gate this run:")
        for skip in skips:
            print(f"  ~ {skip}")
    if improvements:
        # Informational only: a much-faster cell means the committed
        # baseline is stale, and a stale baseline masks future
        # regressions of the same size.
        print(f"\nnote: {len(improvements)} cell(s) improved past "
              f"{args.max_regression:.0%} — consider refreshing the baseline:")
        for improvement in improvements:
            print(f"  + {improvement}")

    if failures:
        print(f"\nFAIL: {len(failures)} cell(s) regressed past the gate:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nOK: no cell regressed past the gate")
    return 0


def markdown_rps(value):
    return f"{value:,.0f}" if value is not None else "—"


STATUS_NOTES = {
    "ok": "",
    "regression": "**regression**",
    "improved": "improved",
    "missing": "**missing from current run**",
    "new": "new cell (ungated until committed)",
}


def run_report(args):
    report_dir = args.report_dir or "."
    pairs = []
    for base_path in sorted(glob.glob(os.path.join(report_dir,
                                                   "BASELINE_*.json"))):
        suffix = os.path.basename(base_path)[len("BASELINE_"):]
        cur_path = os.path.join(report_dir, "BENCH_" + suffix)
        if os.path.exists(cur_path):
            pairs.append((base_path, cur_path))
        else:
            print(f"note: {base_path} has no matching BENCH_{suffix}",
                  file=sys.stderr)
    if not pairs:
        sys.exit(f"{report_dir}: no BASELINE_*.json / BENCH_*.json pairs "
                 "(the CI perf lane renames committed baselines to "
                 "BASELINE_<x>.json before rerunning the benches)")

    lines = ["# COMET perf trajectory", "",
             f"Per-cell replay throughput vs the committed baseline "
             f"(gate threshold {args.max_regression:.0%}; sharded rows "
             "whose baseline host had a different `hw_threads` are "
             "skipped, not gated).", ""]
    for base_path, cur_path in pairs:
        bench_base, baseline = load(base_path)
        bench_cur, current = load(cur_path)
        if bench_base != bench_cur:
            sys.exit(f"bench mismatch: {base_path} is '{bench_base}', "
                     f"{cur_path} is '{bench_cur}'")
        rows = compare_cells(baseline, current, args.max_regression)
        lines.append(f"## {bench_base}")
        lines.append("")
        lines.append("| cell | baseline req/s | current req/s | delta "
                     "| note |")
        lines.append("|---|---:|---:|---:|---|")
        for row in rows:
            delta = (f"{row['delta']:+.1%}" if row["delta"] is not None
                     else "—")
            note = row["note"] or STATUS_NOTES.get(row["status"], "")
            lines.append(f"| {row['name']} | {markdown_rps(row['base_rps'])} "
                         f"| {markdown_rps(row['cur_rps'])} | {delta} "
                         f"| {note} |")
        lines.append("")

    with open(args.out, "w") as f:
        f.write("\n".join(lines))
    print(f"wrote {args.out} ({len(pairs)} bench pair(s))")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="perf regression gate / report (see module docstring)")
    parser.add_argument("baseline", nargs="?",
                        help="baseline bench_json (gate mode)")
    parser.add_argument("current", nargs="?",
                        help="current bench_json (gate mode)")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.15,
        help="max allowed fractional throughput drop per cell "
        "(default: 0.15 = 15%%)",
    )
    parser.add_argument(
        "--report", nargs="?", const=".", default=None, metavar="DIR",
        dest="report_dir",
        help="aggregate BASELINE_*.json / BENCH_*.json pairs in DIR "
        "(default: .) into a markdown trajectory table instead of gating")
    parser.add_argument(
        "--out", default="PERF_REPORT.md",
        help="markdown output path for --report (default: PERF_REPORT.md)")
    args = parser.parse_args()

    if args.report_dir is not None:
        if args.baseline or args.current:
            parser.error("--report takes a directory, not baseline/current "
                         "files")
        return run_report(args)
    if not args.baseline or not args.current:
        parser.error("gate mode needs BASELINE.json and CURRENT.json "
                     "(or use --report)")
    return run_gate(args)


if __name__ == "__main__":
    sys.exit(main())
