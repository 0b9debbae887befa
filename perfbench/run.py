"""dtlsim benchmark.

    python3 perfbench/run.py --workload dc_sweeps --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.
One closed-loop client in this process runs the workload's operations one
at a time (one dtlsim child process at a time on ``cli``) until
``--seconds`` have passed, always finishing the pass it is in. Inputs
come from ``--seed``; every operation checks its output against an
independent oracle.

Every time reported is host-normalized: a fixed reference kernel is timed
between consecutive measurements and each time is scaled to a host on
which that kernel takes 10 ms (see hostclock.py for why). Raw times are
in the report. The benchmark pins itself, its probes and its dtlsim
children to one CPU, because the CPUs of a shared host slow down
independently of each other.

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer metrics of a separate traced run, whose passes alternate with
untraced passes of the same inputs to measure the tracing overhead. The
last line of standard output is the result JSON; the line before it is a
report with the environment, every pass and operation time and the
simulated results. Both, and the spans of a traced run, are also written
under ``perfbench/out/``. ``--smoke`` runs every workload at minimal
size, traced and untraced, and checks the metrics against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from hostclock import HostClock
from tracing import delta

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5       # fresh interpreters per untraced run
IMPORT_PROBES = 3      # fresh interpreters per traced run
TAIL_BEYOND = 10       # samples beyond the tail percentile


def probe(workload, seed, small, scratch, import_only):
    """Time ``import dtlsim`` (plus set-up) in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
           "--seed", str(seed), "--scratch", str(scratch)]
    cmd += ["--small"] if small else []
    cmd += ["--import-only"] if import_only else []
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment(seed):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "seed": seed}


def tail(latencies):
    """Highest percentile with TAIL_BEYOND samples beyond it; the median
    when there are too few samples for that."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Runner:
    """Executes operations, times them and keeps every figure."""

    def __init__(self, failures):
        self.failures = failures  # exception types counted as failed ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.results: dict = {}
        self.op_deltas: dict = {}

    def op(self, op, t):
        """Run one operation; returns its latency in seconds."""
        if t.enabled:
            t.op = op.label
            before = t.snapshot()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = op.run(t)
        except self.failures as exc:
            res = None
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        if res is not None:
            self.results.setdefault(op.label, res)
        if t.enabled:
            self.op_deltas.setdefault(op.label, delta(t.snapshot(), before))
        return dt


def layer_metrics(d):
    """Per-layer figures from a difference of tracer snapshots."""
    g = d.get
    iters = g("total.solver.newton_iters", 0.0)
    facts = g("calls.solver.lu_factor", 0.0)
    return {
        "solver.newton_iters": iters,
        "solver.fallback_points": g("calls.solver.fallback_points", 0.0),
        "solver.assemblies": g("total.solver.assemblies", 0.0),
        "solver.factorizations": facts,
        "solver.useful_iter_ratio": iters / facts if facts else 0.0,
        "solver.self_s": g("self_s.solver", 0.0),
        "solver.lu_s": g("self_s.solver.lu_factor", 0.0) + g("self_s.solver.lu_solve", 0.0),
        "devices.stamp_s": g("self_s.devices.stamp", 0.0),
        "devices.model_s": g("self_s.devices.model", 0.0),
        "devices.model_calls": g("calls.devices.model", 0.0),
        "cells.build_s": g("self_s.cells.build", 0.0),
        "cells.analysis_s": g("self_s.cells.analysis", 0.0),
        "imaging.gen_s": g("self_s.imaging.gen", 0.0),
        "imaging.pgm_p5_s": g("self_s.imaging.pgm_p5", 0.0),
        "imaging.pgm_p2_s": g("self_s.imaging.pgm_p2", 0.0),
        "imaging.pgm_bytes": g("total.imaging.pgm_p5.bytes", 0.0) + g("total.imaging.pgm_p2.bytes", 0.0),
        "imaging.apply_s": g("self_s.imaging.apply", 0.0),
        "imaging.ring_s": g("self_s.imaging.ring", 0.0),
        "dendrite.calibrate_s": g("self_s.dendrite.calibrate", 0.0),
        "dendrite.combos": g("total.dendrite.calibrate.combos", 0.0),
    }


COUNTS = ("solver.newton_iters", "solver.fallback_points", "solver.assemblies",
          "solver.factorizations", "solver.useful_iter_ratio",
          "devices.model_calls", "imaging.pgm_bytes", "dendrite.combos")


def baseline_problems(runner, baseline):
    """The unchanged items must reproduce the ROADMAP work counters."""
    problems = []
    for label, (n, iters, assemblies) in baseline.items():
        res, d = runner.results.get(label), runner.op_deltas.get(label)
        if res is None or d is None:
            continue
        got = (res.get("points", res.get("steps")), res["newton_iters"],
               d.get("total.solver.assemblies", 0.0))
        if got != (n, iters, assemblies):
            problems.append(f"{label}: points/iterations/assemblies {got}, "
                            f"baseline {(n, iters, assemblies)}")
    return problems


def run(name, seed, seconds, trace, small=False):
    """One benchmark run; returns (report, result line)."""
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        return _run(name, seed, seconds, trace, small, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(name, seed, seconds, trace, small, scratch):
    import workloads  # imports dtlsim, so only once src/ is on the path
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "small": small, "env": environment(seed)}
    # the first probe compiles bytecode and fills the page cache
    nprobe = 1 if small else (IMPORT_PROBES if trace else SETUP_PROBES)
    probes = [probe(name, seed, small, scratch, bool(trace))
              for _ in range(nprobe + 1)][1:]
    null = tracing.NullTracer()
    tracer = tracing.Tracer() if trace else null
    runner = Runner(workloads.FAILURES)
    cls = workloads.WORKLOADS[name]
    if trace:
        clock = HostClock()
        with tracer:
            t0 = time.perf_counter()
            wl = cls(seed, small, tracer, str(scratch))
            raw = time.perf_counter() - t0
        setup_delta = _scaled(tracer.snapshot(), clock.scale(raw) / raw)
    else:
        wl = cls(seed, small, null, str(scratch))
    Runner(workloads.FAILURES).op(wl.ops(0)[0], null)  # warm-up, not counted

    passes = []
    clock = HostClock()
    start = time.perf_counter()
    k = 0
    while True:
        if trace:
            passes.append(_traced_pair(k, wl, runner, tracer, null, clock))
        else:
            ops = wl.ops(k)
            raw, lat = [], []
            for op in ops:
                raw.append(runner.op(op, null))
                lat.append(clock.scale(raw[-1]))
            passes.append({"wall_s": sum(lat), "raw_wall_s": sum(raw),
                           "work": sum(op.work for op in ops),
                           "ops": lat, "raw_ops": raw})
        k += 1
        if time.perf_counter() - start >= seconds:
            break

    problems = wl.cross_check(runner.results)
    if trace:
        problems += baseline_problems(runner, workloads.BASELINE)
        metrics = _per_layer(passes, setup_delta, probes, runner)
        report["op_counters"] = runner.op_deltas
        tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics, extra = _end_to_end(name, wl, passes, probes, runner)
        report.update(extra)
    correct = runner.failed == 0 and not problems
    report.update({"correct": correct, "attempted": runner.attempted,
                   "failed": runner.failed, "errors": runner.errors,
                   "problems": problems, "probes": probes, "passes": passes,
                   "reference_s": clock.samples, "results": runner.results,
                   "metrics": metrics})
    line = {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}
    with open(OUT / f"report-{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return report, line


def _scaled(snapshot, factor):
    """Apply a host-speed factor to the seconds in a tracer snapshot."""
    return {k: v * factor if k.startswith("self_s.") else v
            for k, v in snapshot.items()}


def _traced_pair(k, wl, runner, tracer, null, clock):
    """The pass's library operations untraced and traced, in alternating
    order; on cli the dtlsim processes run first."""
    pair = {"pass": k}
    if hasattr(wl, "library_ops"):
        pair["process_s"] = sum(clock.scale(runner.op(op, null))
                                for op in wl.ops(k))
        ops = wl.library_ops(k)
    else:
        ops = wl.ops(k)
    for traced in ((False, True) if k % 2 == 0 else (True, False)):
        before = tracer.snapshot()
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            for op in ops:
                runner.op(op, tracer if traced else null)
            raw = time.perf_counter() - t0
        scaled = clock.scale(raw)
        if traced:
            pair["traced_s"] = scaled
            pair["delta"] = _scaled(delta(tracer.snapshot(), before), scaled / raw)
        else:
            pair["untraced_s"] = scaled
    return pair


def _unit(metric):
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _per_layer(pairs, setup_delta, probes, runner):
    """Counts come from pass 0, whose inputs are the same on every seed's
    first pass; seconds are medians over the traced passes. Both include
    the set-up."""
    def with_setup(d):
        return layer_metrics({k: d.get(k, 0.0) + setup_delta.get(k, 0.0)
                              for k in set(d) | set(setup_delta)})
    per_pass = [with_setup(p["delta"]) for p in pairs]
    values = {}
    for key in per_pass[0]:
        values[key] = (per_pass[0][key] if key in COUNTS
                       else statistics.median(p[key] for p in per_pass))
    values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
    values["cli.overhead_s"] = statistics.median(
        p["process_s"] - p["untraced_s"] if "process_s" in p else 0.0
        for p in pairs)
    values["cli.stdout_bytes"] = float(sum(
        r.get("stdout_bytes", 0) for r in runner.results.values()))
    values["trace.overhead_ratio"] = statistics.median(
        p["traced_s"] / p["untraced_s"] for p in pairs)
    values["fail_ratio"] = runner.failed / runner.attempted
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


def _end_to_end(name, wl, passes, probes, runner):
    latencies = [x for p in passes for x in p["ops"]]
    tail_s, tail_pct = tail(latencies)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    # pass time and throughput from totals over the run: with the four or
    # five passes a run of cli or segment_images holds, the mean is steadier
    # than the median pass
    total_s = sum(p["wall_s"] for p in passes)
    rate = sum(p["work"] for p in passes) / total_s
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "wall_s": (total_s / len(passes), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "items_per_s": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - runner.failed / runner.attempted, "ratio"),
    }
    raw = [x for p in passes for x in p["raw_ops"]]
    extra = {"op_samples": len(latencies), "op_tail_pct": tail_pct,
             "fail_ratio": runner.failed / runner.attempted,
             f"{wl.item}_per_s": rate,
             "raw": {"setup_s": statistics.median(p["raw_setup_s"] for p in probes),
                     "wall_s": sum(p["raw_wall_s"] for p in passes) / len(passes),
                     "op_p50_ms": 1e3 * statistics.median(raw),
                     "op_tail_ms": 1e3 * tail(raw)[0]}}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, extra


def smoke():
    """Every workload at minimal size, untraced and traced: every metric
    of BENCHMARK.json is reported with its unit and nothing fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.perf_counter()
            report, line = run(w["name"], 1, 0, trace, small=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            problems = report["errors"] + report["problems"]
            if got != want:
                problems.append(f"metrics {sorted(got.items())} != {sorted(want.items())}")
            values = {k: m["value"] for k, m in line["metrics"].items()}
            if (line["failed"] or values.get("fail_ratio", 0.0) != 0.0
                    or values.get("ok_ratio", 1.0) != 1.0 or not line["correct"]):
                problems.append(f"{line['failed']} of {line['attempted']} "
                                f"operations failed, correct {line['correct']}")
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'PASS'} {w['name']} trace={trace} "
                  f"{line['attempted']} ops {time.perf_counter() - t0:.1f} s"
                  + "".join(f"\n  {p}" for p in problems))
    return 1 if failures else 0


def main(argv=None):
    p = argparse.ArgumentParser(description="dtlsim benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at minimal size and self-test")
    args = p.parse_args(argv)
    if not (SRC / "dtlsim" / "__init__.py").is_file():
        print(f"perfbench: no dtlsim sources at {SRC / 'dtlsim'}; "
              f"run from the root of a dtlsim checkout", file=sys.stderr)
        return 2
    # one CPU for this process, its probes and its dtlsim children, so the
    # reference kernel times the CPU the measured work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    report, line = run(args.workload, args.seed, args.seconds, args.trace)
    for message in report["errors"] + report["problems"]:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
