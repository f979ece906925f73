"""Benchmark worker: runs in a fresh interpreter started by run.py, with
squeezefn importable from src/, and prints its result as the last line.

Untraced (--trace 0): measures set-up in fresh interpreters, repeats whole
rounds of one workload until --seconds have passed, then checks every
distinct output against the oracles and reports the end-to-end metrics.

Traced (--trace 1): runs one round of every workload with a span around
each call into squeezefn, replays each op's examined prefix through the
domain and kernel functions, runs the known-defect probes and reports the
per-layer metrics.  It covers all four workloads whatever --workload names,
so that every traced run measures every layer.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import dataclasses
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
from squeezefn import parse_domain_spec
from squeezefn.cli import GridJob, run_grid

import workloads as wl
from tracing import NO_PARENT, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s",
              "op_p50_ms": "ms", "op_p90_ms": "ms"}

PER_LAYER = {
    "cli.start_ms": "ms",
    "cli.import_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.grid_overhead_share": "1",
    "cli.grid_jobs2_speedup": "1",
    "cli.unexpected_exits": "count",
    "cli.grid_crashes": "count",
    "domains.parse_ms": "ms",
    "domains.puncture_ns": "ns",
    "domains.block_ns": "ns",
    "domains.punctures_needed.grid": "count",
    "domains.punctures_needed.deep": "count",
    "domains.prefix_reuse_ratio.grid": "1",
    "domains.prefix_reuse_ratio.deep": "1",
    "hyperbolic.rho_ns": "ns",
    "hyperbolic.rho_max_ns": "ns",
    "hyperbolic.kernel_calls.grid": "count",
    "hyperbolic.kernel_calls.deep": "count",
    "invariants.truncation_ns_per_puncture.grid": "ns",
    "invariants.truncation_ns_per_puncture.deep": "ns",
    "invariants.truncation_index_p50.grid": "count",
    "invariants.truncation_index_p50.deep": "count",
    "invariants.truncation_index_max.grid": "count",
    "invariants.truncation_index_max.deep": "count",
    "invariants.loop_overhead_share.grid": "1",
    "invariants.loop_overhead_share.deep": "1",
    "invariants.certificate_ms": "ms",
    "invariants.block_eval_ms.polydisk_n2": "ms",
    "invariants.block_eval_ms.polydisk_n3": "ms",
    "invariants.block_eval_ms.ball_n2": "ms",
    "invariants.block_eval_ms.ball_n3": "ms",
    "invariants.mesh_error_max": "1",
    "invariants.cap_hits.sequence": "count",
    "invariants.cap_hits.refinement": "count",
    "verification.suite_s.paper-claims": "s",
    "verification.suite_s.invariance": "s",
    "verification.suite_s.truncation": "s",
    "verification.suite_s.boundary-oracle": "s",
    "verification.check_s": "s",
    "bench.trace_overhead_share": "1",
}

SETUP_REPEATS = 7


def calibration_loop() -> None:
    """Fixed pure-Python complex arithmetic, like the program's kernel but
    independent of it."""
    z, acc = 0.3 + 0.4j, 0.0
    for k in range(1, 5001):
        w = cmath.exp(1j * k) * (1.0 - 0.5 / k)
        acc += abs((w - z) / (1.0 - z.conjugate() * w))


def numpy_start() -> None:
    """A fresh interpreter that imports numpy and nothing of squeezefn."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Speed:
    """A reference probe timed between ops, which no change to squeezefn can
    move, and the factor that scales a time to the reference speed.

    The shared host's speed drifts by about 10 % over minutes, and a run's
    raw times drift with it; the ratio of an op's time to the probe's time,
    taken near the same moment, drifts by 1 to 3 %.  In-process workloads
    use the calibration loop; CLI commands and set-up use an interpreter
    start that imports numpy, which follows process start-up and imports
    rather than arithmetic."""

    def __init__(self, probe, nominal_ms: float, every_s: float):
        self.probe, self.nominal_ms, self.every_s = probe, nominal_ms, every_s
        self.at_ns: list[int] = []
        self.ms: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter_ns()
        if force or not self.at_ns or now - self.at_ns[-1] >= self.every_s * 1e9:
            self.probe()
            self.at_ns.append(now)
            self.ms.append((time.perf_counter_ns() - now) / 1e6)

    def factor(self, at_ns: int, k: int = 4) -> float:
        """nominal / median of the 2k probe times nearest to ``at_ns``."""
        i = bisect.bisect_left(self.at_ns, at_ns)
        return self.nominal_ms / statistics.median(self.ms[max(0, i - k):i + k])


def calibration() -> Speed:
    return Speed(calibration_loop, nominal_ms=3.0, every_s=0.1)


def startup() -> Speed:
    return Speed(numpy_start, nominal_ms=200.0, every_s=1.0)


SETUP_SNIPPET = ("import json, sys\n"
                 "import squeezefn\n"
                 "for doc in json.loads(sys.argv[1]):\n"
                 "    squeezefn.parse_domain_spec(doc)\n")


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def fresh_interpreter_s(code: str, *args: str, speed: Speed | None = None) -> tuple[float, float]:
    """Median wall time of a fresh interpreter running ``code``, scaled by a
    probe of ``speed`` taken just before each run, and unscaled.  One
    unmeasured run first fills the bytecode and file caches."""
    cmd = [sys.executable, "-c", code, *args]
    subprocess.run(cmd, check=True)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        if speed is not None:
            speed.sample(force=True)
        t0 = time.perf_counter_ns()
        subprocess.run(cmd, check=True)
        raw.append((time.perf_counter_ns() - t0) / 1e9)
        scaled.append(raw[-1] * (speed.factor(t0, k=1) if speed is not None else 1.0))
    return statistics.median(scaled), statistics.median(raw)


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": seed}


class Ledger:
    """Executions of ops: the first result of each distinct input is kept for
    the oracle check, later ones must repeat its fingerprint."""

    def __init__(self):
        self.first: dict[str, tuple] = {}        # id -> (op, result, fingerprint)
        self.runs: dict[str, int] = {}
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []
        self.check_s = 0.0

    @staticmethod
    def ident(op) -> str:
        return f"{op.name}|{op.key}"

    def record(self, op, result) -> None:
        self.attempted += 1
        ident = self.ident(op)
        self.runs[ident] = self.runs.get(ident, 0) + 1
        fp = op.fingerprint(result)
        if ident not in self.first:
            self.first[ident] = (op, result, fp)
        elif fp != self.first[ident][2]:
            self.failed += 1
            self.problems.append(f"{ident}: result differs from its first run")

    def error(self, op, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{self.ident(op)}: {type(exc).__name__}: {exc}")

    def check(self) -> None:
        """Run the oracle checks; a failed check fails every run of that input."""
        t0 = time.perf_counter()
        for ident, (op, result, _) in self.first.items():
            problems = op.check(result)
            if problems:
                self.failed += self.runs[ident]
                self.problems += [f"{ident}: {p}" for p in problems]
        self.check_s += time.perf_counter() - t0


def run_rounds(w, rng: random.Random, seconds: float, ledger: Ledger,
               speed: Speed | None = None) -> dict[str, list]:
    """Closed loop over whole rounds until ``seconds`` have passed.  Returns
    (start ns, latency ns) of every run of each distinct op, failed ones
    included."""
    runs: dict[str, list] = {}
    start = time.perf_counter()
    while True:
        ops = list(w.ops)
        if w.shuffle:
            rng.shuffle(ops)
        for op in ops:
            if speed is not None:
                speed.sample()
            t0 = time.perf_counter_ns()
            try:
                result = op.call()
            except Exception as exc:  # a failed op is counted, never fatal
                runs.setdefault(Ledger.ident(op), []).append((t0, time.perf_counter_ns() - t0))
                ledger.error(op, exc)
                continue
            runs.setdefault(Ledger.ident(op), []).append((t0, time.perf_counter_ns() - t0))
            ledger.record(op, result)
        if time.perf_counter() - start >= seconds:
            return runs


def untraced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, Ledger]:
    """End-to-end metrics.  Each run of an op is scaled to the reference
    speed by the probe times around it (see Speed); an op's time is the
    median over its runs; throughput and percentiles are taken over one
    round's op list, so every op counts as often as the round lists it.
    The unscaled values are printed too."""
    w = wl.build(workload, seed, parse_domain_spec, workdir)
    start_probe = startup()
    setup_s, raw_setup_s = fresh_interpreter_s(SETUP_SNIPPET, json.dumps(list(w.docs.values())),
                                               speed=start_probe)
    speed = start_probe if workload == "cli" else calibration()
    ledger = Ledger()
    runs = run_rounds(w, random.Random(f"order-{seed}"), seconds, ledger, speed)
    ledger.check()
    op_ms = [statistics.median(ns * speed.factor(t0) for t0, ns in runs[Ledger.ident(op)]) / 1e6
             for op in w.ops]
    raw_ms = [statistics.median(ns for _, ns in runs[Ledger.ident(op)]) / 1e6 for op in w.ops]
    items = sum(op.items for op in w.ops)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "items_per_s": items / (sum(op_ms) / 1e3),
        "op_p50_ms": percentile(op_ms, 0.5),
        "op_p90_ms": percentile(op_ms, 0.9),
    }
    rounds = len(runs[Ledger.ident(w.ops[0])]) // w.ops.count(w.ops[0])
    print(f"{workload}: {rounds} rounds of {len(w.ops)} ops ({ledger.attempted} runs), "
          f"{len(runs)} distinct inputs; oracle checks took {ledger.check_s:.2f} s")
    print(f"reference probe {speed.probe.__name__}: median {statistics.median(speed.ms):.4f} ms "
          f"over {len(speed.ms)} samples, nominal {speed.nominal_ms} ms; unscaled "
          f"setup_s={raw_setup_s:.6g} items_per_s={items / (sum(raw_ms) / 1e3):.6g} "
          f"op_p50_ms={percentile(raw_ms, 0.5):.6g} op_p90_ms={percentile(raw_ms, 0.9):.6g}")
    return metrics, ledger


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _ids(meta, workload: str, label: str | None = None) -> set:
    return {i for i, m in enumerate(meta)
            if m["workload"] == workload and (label is None or m["label"] == label)}


def _ratio(num: float, den: float, what: str) -> float:
    if den <= 0:
        raise RuntimeError(f"no measurements for {what}")
    return num / den


def _per_call_ns(tracer: Tracer, name: str) -> float:
    ns, calls, _ = tracer.totals(name)
    return _ratio(ns, calls, name)


def _mean_ms(tracer: Tracer, name: str, ops) -> float:
    ns, _, spans = tracer.totals(name, ops)
    return _ratio(ns / 1e6, spans, name)


def traced(seed: int, workdir: Path) -> tuple[dict, Ledger, Tracer, list]:
    tracer = Tracer()

    def parse(doc):
        span = tracer.begin("parse_domain_spec", NO_PARENT)
        domain = parse_domain_spec(doc)
        tracer.finish(span)
        return domain

    built = {name: wl.build(name, seed, parse, workdir) for name in wl.WORKLOADS}
    parse_ns, _, _ = tracer.totals("parse_domain_spec")

    # untraced pass over the in-process rounds, the base of the tracing overhead
    base_ns = 0
    for name in ("grid", "deep", "blocks"):
        for op in built[name].ops:
            t0 = time.perf_counter_ns()
            try:
                op.call()
            except Exception:  # counted when the traced pass repeats it
                pass
            base_ns += time.perf_counter_ns() - t0

    ledger, meta = Ledger(), []
    traced_ns = 0
    for name, w in built.items():
        for op in w.ops:
            op_id = len(meta)
            meta.append({"workload": name, "name": op.name, "key": op.key,
                         "label": op.label, "domain": op.domain, "indices": [],
                         "mesh_error": 0.0})
            span = tracer.begin(op.name, op_id)
            try:
                result = op.call()
            except Exception as exc:
                tracer.finish(span)
                ledger.error(op, exc)
                continue
            tracer.finish(span)
            if name != "cli":
                traced_ns += tracer.end[span] - tracer.start[span]
            ledger.record(op, result)
            meta[op_id]["mesh_error"] = getattr(result, "mesh_error", 0.0)
            if op.replay is not None:
                root = tracer.begin("replay", op_id)
                meta[op_id]["indices"] = op.replay(tracer, op_id, root, result)
                tracer.finish(root)
    ledger.check()

    counts = {"invariants.cap_hits.sequence": 0, "invariants.cap_hits.refinement": 0,
              "cli.unexpected_exits": 0, "cli.grid_crashes": 0}
    for w in built.values():
        for probe in w.probes:
            try:
                probe.call()
            except Exception as exc:  # the defect is still there
                for c in probe.counters:
                    counts[c] += 1
                print(f"known defect present: {probe.name}: {probe.defect} "
                      f"[{type(exc).__name__}]")
            else:
                print(f"known defect fixed: {probe.name}")

    start_s = fresh_interpreter_s("pass")[1]
    import_s = fresh_interpreter_s("import squeezefn")[1]
    numpy_s = fresh_interpreter_s("import numpy")[1]

    radial = GridJob(domain=parse_domain_spec(wl.RADIAL_Q05), rect=wl.GRID_RECT,
                     resolution=wl.GRID_RES, invariant="squeezing")
    for _ in range(3):
        for jobs in (1, 2):
            span = tracer.begin(f"run_grid.jobs{jobs}", NO_PARENT)
            run_grid(radial, jobs=jobs)
            tracer.finish(span)
    jobs1 = statistics.median(tracer.durations("run_grid.jobs1"))
    jobs2 = statistics.median(tracer.durations("run_grid.jobs2"))

    m = {}
    grid_ops, deep_ops = _ids(meta, "grid"), _ids(meta, "deep")
    grid_ns = tracer.totals("run_grid", grid_ops)[0]
    cells_ns = (tracer.totals("squeezing_punctured_disk", grid_ops)[0]
                + tracer.totals("annulus_squeezing", grid_ops)[0])
    m["cli.start_ms"] = start_s * 1e3
    m["cli.import_ms"] = (import_s - start_s) * 1e3
    m["cli.numpy_import_ms"] = (numpy_s - start_s) * 1e3
    m["cli.grid_overhead_share"] = 1.0 - _ratio(cells_ns, grid_ns, "run_grid")
    m["cli.grid_jobs2_speedup"] = _ratio(jobs1, jobs2, "run_grid jobs=2")
    m.update(counts)
    m["domains.parse_ms"] = parse_ns / 1e6
    m["domains.puncture_ns"] = _per_call_ns(tracer, "puncture")
    m["domains.block_ns"] = _per_call_ns(tracer, "block")
    m["hyperbolic.rho_ns"] = _per_call_ns(tracer, "rho")
    m["hyperbolic.rho_max_ns"] = _per_call_ns(tracer, "rho_max")
    evaluators = {"grid": ("squeezing_punctured_disk",),
                  "deep": ("squeezing_punctured_disk", "polydisk_squeezing_punctured")}
    for name, ops in (("grid", grid_ops), ("deep", deep_ops)):
        indices = [n for i in ops for n in meta[i]["indices"]]
        per_domain = {}
        for i in ops:
            if meta[i]["indices"]:
                d = meta[i]["domain"]
                per_domain[d] = max(per_domain.get(d, 0), max(meta[i]["indices"]))
        seq = _ids(meta, name, "sequence")
        eval_ns = sum(tracer.totals(e, seq)[0] for e in evaluators[name])
        replay_ns = sum(tracer.totals(k, seq)[0] for k in ("puncture", "rho", "rho_max"))
        m[f"domains.punctures_needed.{name}"] = sum(indices)
        m[f"domains.prefix_reuse_ratio.{name}"] = _ratio(sum(indices), sum(per_domain.values()),
                                                         f"{name} prefixes")
        m[f"hyperbolic.kernel_calls.{name}"] = (tracer.totals("rho", ops)[1]
                                                + tracer.totals("rho_max", ops)[1])
        m[f"invariants.truncation_ns_per_puncture.{name}"] = _ratio(eval_ns, sum(indices),
                                                                    f"{name} truncation")
        m[f"invariants.truncation_index_p50.{name}"] = statistics.median(indices)
        m[f"invariants.truncation_index_max.{name}"] = max(indices)
        m[f"invariants.loop_overhead_share.{name}"] = 1.0 - _ratio(replay_ns, eval_ns,
                                                                   f"{name} loop")
    m["invariants.certificate_ms"] = _mean_ms(tracer, "lower_bound_certificate", deep_ops)
    for label in ("polydisk_n2", "polydisk_n3", "ball_n2", "ball_n3"):
        m[f"invariants.block_eval_ms.{label}"] = _mean_ms(
            tracer, "polydisk_squeezing_removed_blocks", _ids(meta, "blocks", label))
    m["invariants.mesh_error_max"] = max(meta[i]["mesh_error"] for i in _ids(meta, "blocks"))
    for suite in wl.SUITES:
        m[f"verification.suite_s.{suite}"] = tracer.totals(f"run_suite.{suite}")[0] / 1e9
    m["verification.check_s"] = ledger.check_s
    m["bench.trace_overhead_share"] = _ratio(traced_ns, base_ns, "tracing overhead") - 1.0
    return m, ledger, tracer, meta


# ---------------------------------------------------------------------------
# self-test: wrong values must count as failed ops
# ---------------------------------------------------------------------------


def _bump(res):
    return dataclasses.replace(res, value=math.nextafter(res.value, 2.0))


def _corrupt_csv(csv_text: str) -> str:
    lines = csv_text.split("\n")
    for i, line in enumerate(lines[1:], 1):
        re, im, value, index, certified = line.split(",")
        if certified == "true":
            lines[i] = ",".join((re, im, repr(math.nextafter(float(value), 2.0)), index, certified))
            return "\n".join(lines)
    raise RuntimeError("no certified cell to corrupt")


def _corrupt_cli(result):
    return result._replace(stdout=result.stdout.replace("value 0.", "value 1.", 1))


def self_test(seed: int, workdir: Path) -> bool:
    cases = {
        ("deep", "squeezing_punctured_disk", "orbit_c05_p1/ref-0.999"): _bump,
        ("deep", "fridman_caratheodory_punctured_disk", "radial_q099/ring-0"): _bump,
        ("deep", "lower_bound_certificate", "listed_tail099/ref"):
            lambda out: dataclasses.replace(out, passed=False),
        ("deep", "polydisk_squeezing_punctured", "poly_radial_n3/ref"): _bump,
        ("blocks", "polydisk_squeezing_removed_blocks", "origin_polydisk_n2/ref"):
            lambda res: dataclasses.replace(res, value=res.value + 1e-3),
        ("blocks", "polydisk_squeezing_removed_blocks", "family_ball_n3/ref"):
            lambda res: dataclasses.replace(res, value=res.value + 0.1),
        ("grid", "run_grid", "grid/finite_pair"): _corrupt_csv,
        ("grid", "run_grid", "grid/orbit_c05_p1"): _corrupt_csv,
        ("grid", "run_grid", "grid/annulus_quarter"): _corrupt_csv,
        ("cli", "cli.eval", None): _corrupt_cli,
    }
    built = {name: wl.build(name, seed, parse_domain_spec, workdir) for name in wl.WORKLOADS}
    ok = True
    for (workload, name, key), corrupt in cases.items():
        op = next(o for o in built[workload].ops if o.name == name and key in (None, o.key))
        wrong = dataclasses.replace(op, call=lambda op=op, corrupt=corrupt: corrupt(op.call()))
        for candidate, expect_failed in ((op, 0), (wrong, 1)):
            ledger = Ledger()
            run_rounds(wl.Workload(workload, {}, [candidate]), random.Random(0), 0.0, ledger)
            ledger.check()
            good = ledger.attempted == 1 and ledger.failed == expect_failed
            ok &= good
            print(f"self-test {'ok  ' if good else 'FAIL'} {workload} {name} {op.key} "
                  f"({'wrong value' if expect_failed else 'true value'}): "
                  f"attempted {ledger.attempted}, failed {ledger.failed}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        if args.self_test:
            ok = self_test(args.seed, workdir)
            print(json.dumps({"self_test": ok, "end_to_end": END_TO_END, "per_layer": PER_LAYER}))
            return 0 if ok else 1
        env = environment(args.seed)
        if args.trace:
            metrics, ledger, tracer, meta = traced(args.seed, workdir)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
            tracer.write(path, meta, env)
            print(f"spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
            units = PER_LAYER
        else:
            metrics, ledger = untraced(args.workload, args.seed, args.seconds, workdir)
            units = END_TO_END
        grid_digests = {op.key: fp for op, _, fp in ledger.first.values() if op.name == "run_grid"}
        print("env " + json.dumps(env))
        if grid_digests:
            print("grid digests (recorded, not gated) " + json.dumps(grid_digests))
        for problem in ledger.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        result = {"correct": not ledger.problems, "attempted": ledger.attempted,
                  "failed": ledger.failed,
                  "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
