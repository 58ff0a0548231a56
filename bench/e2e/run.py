#!/usr/bin/env python3
"""Builds the end-to-end benchmark binary from this checkout, then runs one
workload in its own process.

    python3 bench/e2e/run.py --workload whatif_backlog --seed 42 \
        --seconds 20 --trace 0

Run from the repository root. The root CMake project is configured as a
Release build in $CARGO_TARGET_DIR/e2e when that variable is set, else in
.bench_build/e2e, with e2e.cmake adding the simmr_bench_e2e target to it;
only that target and the libraries it links are built. Generated inputs and
outputs live in <build>/bench-e2e/ and are removed when the binary exits.
With --trace 1 the spans are kept in <build>/bench-e2e/spans-<workload>.json
for Perfetto. The binary's output is passed through: metric lines, then one
JSON line. Build output goes to stderr. Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "e2e"


def build(out_dir):
    """Configures once and builds incrementally; returns the binary's path."""
    log = sys.stderr
    if not (out_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT), "-B", str(out_dir),
               "-DCMAKE_BUILD_TYPE=Release",
               f"-DCMAKE_PROJECT_simmr_INCLUDE={HERE / 'e2e.cmake'}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out_dir), "--target",
                    "simmr_bench_e2e", "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return out_dir / "bench-e2e" / "simmr_bench_e2e"


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1
    run_dir = binary.parent
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(run_dir / f"work-{args.workload}"),
           "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", str(run_dir / f"spans-{args.workload}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
