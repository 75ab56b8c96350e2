"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload web-hashtable --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` measures the per-layer metrics: it alternates a fixed number
of traced units (spans around the public function of every layer, see
``tracing.py``) with as many untraced ones, and reports the ratio of the
two walls as ``trace.overhead_ratio``.  The spans and per-layer
aggregates are written to ``.perfbench_out/trace-<workload>-seed<n>.json``.

Every metric is printed with its unit and sample count; the last line of
standard output is the JSON result.  The run exits non-zero without a
result when the ``repro`` sources are missing.

End-to-end timings are CPU seconds scaled to a reference host speed, not
wall seconds: see ``hostspeed.py`` for why and how.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process, children included: set before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-ups timed per run (median reported), five to ten
#: seconds of probing per workload: the cheap set-ups are the noisy ones.
SETUP_PROBES = {"web-hashtable": 7, "sparse-vectorized": 15, "serve-mixed": 15}
#: CLI subprocess calls per run (median reported).
CLI_CALLS = 15
#: Seconds of work one traced unit stands for, per workload: the traced
#: run does one warm-up unit, then ``max(1, round(seconds / UNIT_SECONDS))``
#: units traced and as many untraced, so its totals compare across runs.
UNIT_SECONDS = {"web-hashtable": 6.0, "sparse-vectorized": 2.0, "serve-mixed": 15.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "detect_edges_per_s": "edges/s",
    "modeled_gpu_s": "s",
    "modularity": "Q",
    "cli_detect_s": "s",
    "job_p50_ms": "ms",
    "epoch_p50_ms": "ms",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test and set-up-probe switches (see selftest.py).
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--inject", choices=("permuted-label", "stale-snapshot"),
                   default=None, help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Make ``repro`` importable from this checkout or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(src))


def _median(values):
    return statistics.median(values) if values else math.nan


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else math.nan


def _chunked_pct(s, q):
    """Median over the run's lookup chunks of each one's scaled ``q``-th percentile, in us.

    A chunk's speed factor is the mean of the call-kernel times right
    before and right after it, over their reference time.
    """
    from hostspeed import CALL_NOMINAL_NS
    from workloads import QUERY_CHUNK

    values = []
    for lat, marks in s.query:
        for j, i in enumerate(range(0, lat.shape[0], QUERY_CHUNK)):
            factor = (marks[j] + marks[j + 1]) / 2 / CALL_NOMINAL_NS
            values.append(_pct(lat[i:i + QUERY_CHUNK], q) / 1e3 / factor)
    return _median(values)


def _scaled(s, cpu_s):
    """CPU seconds scaled to the reference host by the run's speed factor."""
    factor = s.speed.factor()
    return [t / factor for t in cpu_s]


def _python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _setup_probe(args, s, out_dir: Path, index: int) -> tuple:
    """One fresh interpreter importing and setting up: (child CPU s, wall s)."""
    from hostspeed import child_cpu_s

    work = out_dir / f"probe-{index}"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    s.probe()
    w0, c0 = time.perf_counter(), child_cpu_s()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    w1, c1 = time.perf_counter(), child_cpu_s()
    s.probe()
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return c1 - c0, w1 - w0


def _import_probes(count: int) -> list[float]:
    """In-process import time of the CLI module in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_python_env(),
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip()))
    return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(correct: bool, attempted: int, failed: int, metrics: dict, counts: dict,
          extra: dict) -> None:
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']:8s} "
              f"samples={counts.get(name, 1)}")
    for name, (value, unit, n) in extra.items():
        print(f"{name:34s} {value:>16.6g} {unit:8s} samples={n} (printed, not gated)")
    print(f"error_rate                         {failed / max(attempted, 1):>16.6g} ratio    "
          f"failed={failed} attempted={attempted}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_untraced(args, workloads, out_dir: Path, work: Path):
    wl = workloads.make(args.workload, args.seed, work, ROOT, smoke=args.smoke)
    s = workloads.Samples(inject=args.inject)
    calls = 1 if args.smoke else CLI_CALLS
    probes = 1 if args.smoke else SETUP_PROBES[args.workload]
    setup_cpu_s: list[float] = []
    try:
        # CLI calls and set-up probes are spread evenly over the run,
        # between units, so every metric samples the same stretch of time
        # on a shared machine.  Probe time does not count against the
        # measured seconds.
        start = time.perf_counter()
        index = cli_done = 0
        paused = 0.0
        while True:
            elapsed = time.perf_counter() - start - paused
            if len(setup_cpu_s) < probes and elapsed >= len(setup_cpu_s) * args.seconds / probes:
                cpu_s, wall_s = _setup_probe(args, s, out_dir, len(setup_cpu_s))
                setup_cpu_s.append(cpu_s)
                paused += wall_s
            elif cli_done < calls and elapsed >= cli_done * args.seconds / calls:
                wl.cli_call(s)
                cli_done += 1
            elif index < wl.min_units or elapsed < args.seconds:
                wl.run_unit(s, index)
                index += 1
                if index == wl.min_units:
                    # After a fixed amount of work, so it does not grow
                    # with the number of units a run fits in.
                    peak_rss_mb = _peak_rss_mb()
            else:
                break
        wl.finish(s)
    finally:
        wl.close()

    chunks = sum(len(marks) - 1 for _lat, marks in s.query)
    # One pass over the inputs at each one's median time.
    detect_s = sum(_median(_scaled(s, spans)) for spans in s.detect.values())
    job_ms = [t * 1e3 for t in _scaled(s, s.job)]
    epoch_ms = [t * 1e3 for t in _scaled(s, s.epoch)]
    measured = {
        "setup_s": (_median(_scaled(s, setup_cpu_s)), len(setup_cpu_s)),
        # Edges over the detections alone: the rounds' nu_lpa calls
        # (web/sparse) or the service steps that ran the one-shot jobs
        # (serve), not the epochs, publishes or lookups around them.
        "detect_edges_per_s": (sum(s.detect_edges.values()) / detect_s if detect_s else math.nan,
                               sum(map(len, s.detect.values()))),
        "modeled_gpu_s": (s.modeled_gpu_s, 1),
        "modularity": (s.modularity, 1),
        "cli_detect_s": (_median(_scaled(s, s.cli)), len(s.cli)),
        "job_p50_ms": (_pct(job_ms, 50), len(job_ms)),
        "epoch_p50_ms": (_pct(epoch_ms, 50), len(epoch_ms)),
        "query_p50_us": (_chunked_pct(s, 50), chunks),
        "query_p99_us": (_chunked_pct(s, 99), chunks),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    values = {name: (v, END_TO_END_UNITS[name], n) for name, (v, n) in measured.items()}
    # Printed, not gated: a detect-workload run has ~12 jobs, too few for
    # a steady 90th percentile on a shared host.
    s.extra = {"job_p90_ms": (_pct(job_ms, 90), "ms", len(job_ms)),
               "epoch_p90_ms": (_pct(epoch_ms, 90), "ms", len(epoch_ms))}
    # How far the host was from the reference speed, and how much it moved.
    factors = s.speed.factors
    for q in (10, 50, 90):
        s.extra[f"host_speed_factor_p{q}"] = (_pct(factors, q), "ratio", len(factors))
    loop = sum(s.leg_s.values())
    for leg, seconds in s.leg_s.items():
        s.extra[f"share.{leg}"] = (seconds / loop, "ratio", 1)
    return s, values


def run_traced(args, workloads, out_dir: Path, work: Path):
    import tracing
    import layers

    import_times = _import_probes(1 if args.smoke else 3)
    rec = tracing.SpanRecorder()
    rec.install()
    probe = layers.Probe(rec)
    units = 1 if args.smoke else max(1, round(args.seconds / UNIT_SECONDS[args.workload]))
    try:
        rec.enabled = True
        rec.op = "setup"
        wl = workloads.make(args.workload, args.seed, work, ROOT, smoke=args.smoke)
        rec.enabled = False
        s = workloads.Samples(inject=args.inject)
        try:
            # One warm-up unit, then traced and untraced units alternate so
            # drift in the host's speed lands on both walls alike.
            wl.run_unit(s, 0)
            untraced = traced = 0.0
            for i in range(1, 2 * units + 1):
                on = i % 2 == 0
                if on:
                    probe.begin(wl, s)
                    rec.enabled = True
                t0 = time.perf_counter()
                wl.run_unit(s, i, tracer=rec if on else None)
                elapsed = time.perf_counter() - t0
                if on:
                    rec.enabled = False
                    probe.end(wl, s)
                    traced += elapsed
                else:
                    untraced += elapsed
            rec.enabled = True
            rec.op = "cli"
            wl.cli_in_process(s)
            rec.enabled = False
            wl.finish(s)
        finally:
            wl.close()
    finally:
        rec.enabled = False
        rec.uninstall()

    wrapped = len(tracing.TRACED) - len(rec.missing)
    print(f"trace: wrapped {wrapped} of {len(tracing.TRACED)} targets; not wrapped: "
          f"{', '.join(rec.missing) or 'none'}")
    values = probe.metrics(import_times=import_times, units=units,
                           overhead=traced / untraced, wrapped=wrapped)
    dump = rec.dump()
    dump.update({"workload": args.workload, "seed": args.seed, "units": units,
                 "untraced_wall_s": untraced, "traced_wall_s": traced,
                 "metrics": {k: v for k, (v, _u, _n) in values.items()}})
    trace_path = out_dir.parent / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps(dump))
    print(f"trace written to {trace_path.relative_to(ROOT)}")
    return s, values


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        args.setup_probe.mkdir(parents=True, exist_ok=True)
        workloads.make(args.workload, args.seed, args.setup_probe, ROOT,
                       smoke=args.smoke).close()
        return 0

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work = out_dir / "work"
    shutil.rmtree(out_dir, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            s, values = run_traced(args, workloads, out_dir, work)
        else:
            s, values = run_untraced(args, workloads, out_dir, work)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics, counts = {}, {}
    failed, attempted = s.failed, s.attempted
    for name, (value, unit, n) in values.items():
        if value is None or not math.isfinite(value):
            failed += 1  # a metric with no samples is a failed output
            attempted += 1
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
        counts[name] = n
    attempted = max(attempted, 1)
    for what in s.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    _emit(failed == 0, attempted, failed, metrics, counts, s.extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
