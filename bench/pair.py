#!/usr/bin/env python3
"""Paired end-to-end performance gate over two simmr_bench_e2e binaries.

    python3 bench/pair.py BASE CANDIDATE

BASE and CANDIDATE are simmr_bench_e2e binaries, say one built at a merge
base and one at the head of a change. The workloads, the end-to-end metrics
and whether lower or higher is better come from BENCHMARK.json. For each
workload the two binaries run alternately, PAIRS pairs of RUN_SECONDS runs
on one seed, each in its own work directory; the side that goes first
switches on every pair, so a drift in host speed reaches both sides alike.

Each pair gives every metric a ratio oriented so that above 1 is worse:
candidate / base where lower is better, base / candidate where higher is.
A metric regresses on a workload when it is worse in at least MIN_WORSE of
the PAIRS pairs and its median ratio exceeds 1 + MARGIN.

Prints one row per workload and metric. Exits 0 when nothing regressed, 4
on a regression, 1 when a run fails, prints "correct":false or lacks a
metric, 2 on a bad command line.
"""
import collections
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 42
PAIRS = 10
MIN_WORSE = 9
# Fixed by calibration on a shared 4-vCPU host (docs/OBSERVABILITY.md): the
# same binary on both sides stays clean, and a build whose every op takes a
# quarter longer regresses op_p50_ms on every workload. MARGIN stays below
# BENCHMARK.json's bound of 0.25.
RUN_SECONDS = 8
MARGIN = 0.10
RUN_TIMEOUT_S = 600

Verdict = collections.namedtuple("Verdict", "code rows errors")
Row = collections.namedtuple(
    "Row", "workload metric base candidate worse median_ratio regressed")


def structural_error(result, names):
    """What makes one run's result unusable, or None."""
    if result is None:
        return "the run failed"
    if result.get("correct") is not True:
        return "the run printed \"correct\":false"
    metrics = result.get("metrics", {})
    missing = [n for n in names if "value" not in metrics.get(n, {})]
    if missing:
        return "no value for " + ", ".join(missing)
    return None


def worse_ratio(base, candidate, better):
    """The pair's ratio, oriented so that above 1 is worse."""
    num, den = (candidate, base) if better == "lower" else (base, candidate)
    if num == den:
        return 1.0
    return num / den if den > 0 else float("inf")


def judge(results, end_to_end):
    """The verdict on `results`, {workload: [(base, candidate), ...]} of
    parsed result lines (None for a run that failed), under BENCHMARK.json's
    `end_to_end` metric list."""
    names = [m["name"] for m in end_to_end]
    errors = []
    for workload, pairs in results.items():
        for i, pair in enumerate(pairs):
            for side, result in zip(("base", "candidate"), pair):
                error = structural_error(result, names)
                if error:
                    errors.append(f"{workload} pair {i + 1} {side}: {error}")
    if errors:
        return Verdict(1, [], errors)
    rows = []
    for workload, pairs in results.items():
        for metric in end_to_end:
            name = metric["name"]
            values = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                      for b, c in pairs]
            ratios = [worse_ratio(b, c, metric["better"]) for b, c in values]
            worse = sum(r > 1.0 for r in ratios)
            median = statistics.median(ratios)
            rows.append(Row(workload, name,
                            statistics.median(b for b, _ in values),
                            statistics.median(c for _, c in values),
                            worse, median,
                            worse >= MIN_WORSE and median > 1.0 + MARGIN))
    return Verdict(4 if any(r.regressed for r in rows) else 0, rows, [])


def run(binary, workload, work_dir):
    """One run of `binary`: its parsed result line, or None on a failure."""
    cmd = [str(binary), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(RUN_SECONDS), "--work-dir", str(work_dir)]
    try:
        out = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: {workload}: {binary}: {e}", file=sys.stderr)
        return None
    if out.returncode != 0:
        print(f"error: {workload}: {binary}: exit {out.returncode}: "
              f"{out.stderr.strip()}", file=sys.stderr)
        return None
    try:
        return json.loads(out.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        print(f"error: {workload}: {binary}: no result line", file=sys.stderr)
        return None


def print_table(verdict):
    print(f"{'workload':<16} {'metric':<14} {'base':>12} {'candidate':>12} "
          f"{'worse':>6} {'median':>8}  verdict")
    for r in verdict.rows:
        print(f"{r.workload:<16} {r.metric:<14} {r.base:>12.6g} "
              f"{r.candidate:>12.6g} {r.worse:>3}/{PAIRS:<2} "
              f"{100.0 * (r.median_ratio - 1.0):>+7.1f}%  "
              f"{'REGRESSED' if r.regressed else 'ok'}")
    regressed = sum(r.regressed for r in verdict.rows)
    print(f"{regressed} regressed of {len(verdict.rows)} "
          f"(worse in >= {MIN_WORSE} of {PAIRS} pairs of {RUN_SECONDS} s and "
          f"median worse by > {100 * MARGIN:.0f}%)")


def main(argv):
    if len(argv) != 3:
        print("usage: " + __doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    base, candidate = (pathlib.Path(p).resolve() for p in argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    results = {}
    with tempfile.TemporaryDirectory(prefix="simmr-pair-") as scratch:
        for workload in (w["name"] for w in spec["workloads"]):
            results[workload] = []
            for i in range(PAIRS):
                sides = {}
                order = ("base", "candidate") if i % 2 == 0 else \
                    ("candidate", "base")
                for side in order:
                    binary = base if side == "base" else candidate
                    sides[side] = run(binary, workload,
                                      pathlib.Path(scratch) / side)
                    error = structural_error(sides[side], names)
                    if error:
                        print(f"error: {workload} pair {i + 1} {side}: "
                              f"{error}", file=sys.stderr)
                        return 1
                results[workload].append((sides["base"], sides["candidate"]))
    verdict = judge(results, spec["end_to_end"])
    for error in verdict.errors:
        print(f"error: {error}", file=sys.stderr)
    print_table(verdict)
    return verdict.code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
