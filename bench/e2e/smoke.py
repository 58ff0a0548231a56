#!/usr/bin/env python3
"""Smoke test and determinism gate of the end-to-end benchmark binary.

    python3 bench/e2e/smoke.py <simmr_bench_e2e> <scratch dir> [seed]

Runs every workload for one round with tracing on and once with tracing
off, and checks:
  - the output schema: `name workload value unit` lines, then one JSON line
    with correct/attempted/failed/metrics naming exactly the metrics that
    BENCHMARK.json lists (per_layer traced, end_to_end untraced);
  - that the output checks passed (correct, no failed op);
  - that spans nest: each child lies inside its parent, on its thread,
    with its op id;
  - that the traced and untraced runs print the same result digest.
The eight runs go side by side on up to four processes. Registered as the
bench_e2e_smoke ctest by e2e.cmake. Exits 1 and names each problem on
failure.
"""
import concurrent.futures
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ["whatif_backlog", "sweep_paced", "record_paced", "validate"]


def run(binary, workload, seed, trace, scratch):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--max-rounds", "1", "--setups", "1", "--trace", str(trace),
           "--work-dir", str(scratch / f"work-{workload}-{trace}")]
    spans = scratch / f"spans-{workload}.json"
    if trace:
        cmd += ["--trace-out", str(spans)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise AssertionError(f"{workload}: exit {out.returncode}: "
                             f"{out.stderr.strip()}")
    return out.stdout.splitlines(), spans


def check_output(workload, lines, expected):
    problems = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"checks failed: {result['failed']} ops")
    if result["attempted"] < 1:
        problems.append("no op attempted")
    if list(result["metrics"]) != list(expected):
        problems.append("metrics differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"] or \
                metric["unit"] != expected.get(name):
            problems.append(f"metric {name}: {metric}")
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[1] == workload:
            printed[fields[0]] = (float(fields[2]), fields[3])
    for name, unit in expected.items():
        if printed.get(name, (None, None))[1] != unit:
            problems.append(f"no `{name} {workload} <value> {unit}` line")
    digest = [l.split()[2] for l in lines if l.startswith("digest ")]
    return problems, digest


def check_spans(path):
    problems = []
    events = [e for e in json.loads(path.read_text())["traceEvents"]
              if e["ph"] == "X"]
    by_index = {e["args"]["span"]: e for e in events}
    if not any(e["args"]["op"] >= 0 for e in events):
        problems.append("no op spans recorded")
    for e in events:
        parent = e["args"]["parent"]
        if parent < 0:
            continue
        p = by_index[parent]
        inside = (p["ts"] <= e["ts"] and
                  e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3)
        if not inside or p["args"]["op"] != e["args"]["op"] or \
                p["tid"] != e["tid"]:
            problems.append(f"span {e['name']} escapes parent {p['name']}")
    return problems


def main():
    binary, scratch = sys.argv[1], pathlib.Path(sys.argv[2])
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 42
    scratch.mkdir(parents=True, exist_ok=True)
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    # The eight runs are independent processes; run them side by side.
    with concurrent.futures.ThreadPoolExecutor(min(4, os.cpu_count() or 1)) \
            as pool:
        runs = {(w, t): pool.submit(run, binary, w, seed, t, scratch)
                for w in WORKLOADS for t in (1, 0)}
    problems = []
    for workload in WORKLOADS:
        try:
            traced, spans = runs[workload, 1].result()
            untraced, _ = runs[workload, 0].result()
            p1, d1 = check_output(workload, traced, per_layer)
            p2, d2 = check_output(workload, untraced, end_to_end)
            found = p1 + p2 + check_spans(spans)
            if not d1 or d1 != d2:
                found.append(f"digests differ: traced {d1}, untraced {d2}")
        except (AssertionError, ValueError, KeyError, IndexError,
                subprocess.TimeoutExpired) as e:
            found = [str(e)]
        problems += [f"{workload}: {p}" for p in found]
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
