#!/usr/bin/env python3
"""COMET invariant linter: mechanical enforcement of the repo's laws.

Every PR so far has defended a handful of cross-cutting invariants by
convention only — determinism of the engine layers (the bit-identity
test contract), thread containment (all threading lives in
memsim/sharded.cpp and the progress heartbeat), console-silent library
code, the PR 6 std::deque ban on hot-path layers, header hygiene, and
the CMake layer DAG. This linter turns each of those conventions into
a machine-checked rule with file:line diagnostics, so a violation fails
CI instead of waiting for a reviewer to notice.

Rules (select a subset with --rules, list them with --list-rules):

  thread-containment  std::thread / std::jthread / std::async only in
                      memsim/sharded.cpp (the replay threads and the
                      for_each_index loop) and prof/heartbeat.cpp.
  determinism         no rand()/srand()/std::random_device and no
                      wall-clock (system_clock, time(NULL), ...) inside
                      the engine layers (everything under src/ except
                      driver/): runs must be bit-identical across
                      machines and reruns.
  no-console-io       no std::cout/cerr/clog, printf, puts or
                      fprintf(stdout/stderr) outside src/driver/ —
                      library layers report through return values,
                      SimStats and exceptions, never the console.
  no-deque            no std::deque in the hot-path layers (util,
                      memsim, sched, hybrid, telemetry); PR 6 replaced
                      it with util::RingQueue for a reason.
  pragma-once         every header starts with #pragma once (first
                      non-comment, non-blank line).
  self-include        src/X/foo.cpp includes its own header "X/foo.hpp"
                      first, keeping headers self-contained (the header
                      must compile from what it includes itself).
  layering            #include edges between src/ layers must follow
                      the CMake link DAG (e.g. memsim/sched/hybrid
                      never include driver/).

A finding on one specific line can be waived — with a justification —
by a trailing marker comment on that same line:

    #include <deque>  // comet-lint: allow(no-deque) bounded at 4, cold

Exit status: 0 when clean, 1 when any rule fired, 2 on usage errors.
Stdlib only, so it runs on any CI image with a bare python3.

Usage:
    lint_comet.py                      # lint <repo>/src
    lint_comet.py --root tests/lint_fixture
    lint_comet.py --rules no-deque,layering
"""

import argparse
import os
import re
import sys

# --- The src/ layer DAG, mirroring the comet_layer() calls in
# --- CMakeLists.txt (direct dependencies; the checker takes the
# --- transitive closure, since static-library includes do).
LAYER_DEPS = {
    "util": [],
    "telemetry": ["util"],
    "prof": ["util"],
    "memsim": ["util", "telemetry", "prof"],
    "materials": ["util"],
    "photonics": ["materials"],
    "core": ["photonics", "memsim"],
    "cosmos": ["core"],
    "dram": ["memsim"],
    "sched": ["memsim"],
    "hybrid": ["memsim", "sched"],
    "config": ["memsim", "sched", "hybrid", "prof"],
    "tenant": ["memsim", "sched", "config"],
    "accel": ["memsim"],
    "driver": ["core", "cosmos", "dram", "sched", "hybrid", "config",
               "tenant", "accel"],
}

# Files allowed to spawn threads: the two sanctioned pools plus the
# progress-heartbeat thread (PR 10), which only ever reads atomics.
THREAD_ALLOWLIST = {"memsim/sharded.cpp", "prof/heartbeat.cpp"}

# Layers where std::deque is banned (PR 6: RingQueue on the hot path).
DEQUE_BANNED_LAYERS = {"util", "memsim", "sched", "hybrid", "telemetry"}

# The one layer allowed to talk to the console and the wall clock.
FRONTEND_LAYER = "driver"

WAIVER_RE = re.compile(r"//\s*comet-lint:\s*allow\(([a-z0-9-]+)\)")

# `hardware_concurrency` is a pure query, not a thread spawn; strip it
# before matching so resolve_run_threads() stays legal everywhere.
THREAD_RE = re.compile(
    r"std::(thread|jthread|async)\b(?!::hardware_concurrency)")

DETERMINISM_RES = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "chrono::system_clock"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
     "wall-clock syscall"),
]

CONSOLE_RES = [
    (re.compile(r"\bstd::(cout|cerr|clog)\b"), "std::{}"),
    (re.compile(r"(?<![\w:.])printf\s*\("), "printf"),
    (re.compile(r"\bfprintf\s*\(\s*std(out|err)\b"), "fprintf(std{})"),
    (re.compile(r"(?<![\w:.])puts\s*\("), "puts"),
]

DEQUE_RE = re.compile(r"std::deque\b|#\s*include\s*<deque>")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# Lines that are entirely comment (the pragma-once scanner skips them).
LINE_COMMENT_RE = re.compile(r"^\s*(//|$)")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def transitive_deps():
    closed = {}

    def close(layer):
        if layer not in closed:
            deps = set(LAYER_DEPS[layer])
            for dep in LAYER_DEPS[layer]:
                deps |= close(dep)
            closed[layer] = deps
        return closed[layer]

    for layer in LAYER_DEPS:
        close(layer)
    return closed


ALLOWED_INCLUDES = transitive_deps()


def waived(line, rule):
    return any(m.group(1) == rule for m in WAIVER_RE.finditer(line))


def strip_line_comment(line):
    """Drops a trailing // comment (good enough: the tree holds no
    string literals containing '//' on rule-relevant lines)."""
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def relpath_in_src(path, src_root):
    return os.path.relpath(path, src_root).replace(os.sep, "/")


def layer_of(rel):
    head = rel.split("/", 1)[0]
    return head if head in LAYER_DEPS else None


def scan_file(path, src_root, rules, out):
    rel = relpath_in_src(path, src_root)
    layer = layer_of(rel)
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()

    def hit(lineno, rule, message):
        if rule in rules and not waived(lines[lineno - 1], rule):
            out.append(Finding(path, lineno, rule, message))

    first_include = None
    for i, raw in enumerate(lines, start=1):
        code = strip_line_comment(raw)
        if not code.strip():
            continue

        if rel not in THREAD_ALLOWLIST and THREAD_RE.search(code):
            hit(i, "thread-containment",
                "thread primitive outside the replay threads "
                "(memsim/sharded.cpp) and the progress heartbeat "
                "(prof/heartbeat.cpp)")

        if layer != FRONTEND_LAYER:
            for pattern, what in DETERMINISM_RES:
                m = pattern.search(code)
                if m:
                    hit(i, "determinism",
                        f"{what.format(*m.groups('') )} in engine layer "
                        f"'{layer}': engine runs must be bit-identical "
                        "(seeded util::Rng, simulated clocks only)")
            for pattern, what in CONSOLE_RES:
                m = pattern.search(code)
                if m:
                    hit(i, "no-console-io",
                        f"{what.format(*m.groups(''))} in library layer "
                        f"'{layer}' (console output belongs to driver/, "
                        "bench/ and examples/)")

        if layer in DEQUE_BANNED_LAYERS and DEQUE_RE.search(code):
            hit(i, "no-deque",
                f"std::deque in hot-path layer '{layer}' "
                "(use util::RingQueue; see util/ring.hpp)")

        if layer is not None:
            m = INCLUDE_RE.match(code)
            if m:
                target = m.group(1)
                if first_include is None:
                    first_include = (i, target)
                target_layer = layer_of(target)
                if (target_layer is not None and target_layer != layer
                        and target_layer not in ALLOWED_INCLUDES[layer]):
                    hit(i, "layering",
                        f"layer '{layer}' must not include "
                        f"'{target_layer}/' (CMake DAG: {layer} -> "
                        f"{{{', '.join(sorted(ALLOWED_INCLUDES[layer])) or 'nothing'}}})")

    if path.endswith(".hpp") and "pragma-once" in rules:
        lineno, found = pragma_once_line(lines)
        if not found:
            out.append(Finding(path, lineno, "pragma-once",
                               "header must open with #pragma once"))

    if (path.endswith(".cpp") and layer is not None
            and "self-include" in rules):
        own = rel[:-len(".cpp")] + ".hpp"
        if os.path.exists(os.path.join(src_root, own)):
            if first_include is None or first_include[1] != own:
                out.append(Finding(
                    path, first_include[0] if first_include else 1,
                    "self-include",
                    f'first include must be its own header "{own}" '
                    "(keeps headers self-contained)"))


def pragma_once_line(lines):
    """Returns (line_number, ok) for the first non-comment line."""
    in_block = False
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if in_block:
            if "*/" in line:
                line = line.split("*/", 1)[1].strip()
                in_block = False
            else:
                continue
        if line.startswith("/*"):
            in_block = "*/" not in line
            continue
        if LINE_COMMENT_RE.match(line):
            continue
        return i, line.startswith("#pragma once")
    return 1, False


RULES = ["thread-containment", "determinism", "no-console-io", "no-deque",
         "pragma-once", "self-include", "layering"]


def main():
    parser = argparse.ArgumentParser(
        description="COMET invariant linter (see module docstring)")
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repo root containing src/ (default: the checkout this "
        "script lives in)")
    parser.add_argument(
        "--rules",
        help="comma-separated subset of rules to run (default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    rules = set(RULES)
    if args.rules:
        rules = set(args.rules.split(","))
        unknown = rules - set(RULES)
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(sorted(unknown))} "
                         f"(use --list-rules)")

    src_root = os.path.join(args.root, "src")
    if not os.path.isdir(src_root):
        parser.error(f"{src_root}: no src/ directory under --root")

    findings = []
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".cpp", ".hpp", ".h", ".cc")):
                scan_file(os.path.join(dirpath, name), src_root, rules,
                          findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_comet: {len(findings)} finding(s) across "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
