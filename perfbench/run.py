#!/usr/bin/env python3
"""Run one workload of the squeezefn benchmark from the root of a checkout.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The workload runs in a fresh interpreter (perfbench/worker.py) that imports
squeezefn from src/; nothing is installed.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  The exit code is 0 only when every oracle check passed and
the metric names and units match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("grid", "deep", "blocks", "cli")   # as in workloads.py, which imports squeezefn
DEFAULT_SEED = 1
WORKER_LIMIT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(argv: list[str]) -> subprocess.CompletedProcess:
    """Run the worker in its own session so that a time-out stops it and
    every command it started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print(out, end="", file=sys.stderr)
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def declared(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[section]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="feed the oracle checks wrong values and compare metric "
                             "names with BENCHMARK.json")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "squeezefn" / "__init__.py").is_file():
        return fail(f"no squeezefn sources under {ROOT / 'src'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail("BENCHMARK.json is missing")

    argv = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.self_test:
        argv.append("--self-test")
    else:
        argv += ["--workload", args.workload]
    try:
        proc = run_worker(argv)
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {WORKER_LIMIT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="", file=sys.stderr)
        return fail(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    if args.self_test:
        print("\n".join(lines[:-1]))
        names_ok = True
        for section in ("end_to_end", "per_layer"):
            if result[section] != declared(section):
                names_ok = False
                print(f"self-test FAIL {section} names or units differ from BENCHMARK.json")
        print(f"self-test {'passed' if result['self_test'] and names_ok else 'FAILED'}")
        return 0 if result["self_test"] and names_ok else 1

    units = {k: v["unit"] for k, v in result["metrics"].items()}
    expected = declared("per_layer" if args.trace else "end_to_end")
    if units != expected:
        print("\n".join(lines[:-1]), file=sys.stderr)
        return fail(f"metrics {sorted(units.items())} do not match BENCHMARK.json "
                    f"{sorted(expected.items())}")
    print("\n".join(lines))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
