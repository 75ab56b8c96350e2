"""The benchmark's three workloads.

Every workload is one closed-loop client in one process, built from the
run's ``--seed`` and measured in whole *units*:

* ``web-hashtable`` / ``sparse-vectorized`` — a unit is one round: a
  *job* (every graph of the workload detected back to back through
  ``nu_lpa``, the first graph's labels published as a query snapshot),
  three *epochs* (each one pre-generated 10-op delta batch applied to the
  first graph and re-detected warm from the job's labels with
  ``nu_lpa_incremental``, labels published); after each of the four
  publishes, zipfian ``membership`` lookups on the snapshot just published.
* ``serve-mixed`` — a unit is one episode: a new subscription on a
  com-LiveJournal stand-in in a journaled ``DetectionService``, then
  ``ROUNDS`` rounds of (append a batch + ``advance_subscription``; submit
  a one-shot job; ``drain()``; refresh the ``QueryEngine``; lookups).
  Episodes replay the same batches, so the epoch-latency ramp has the
  same shape however many episodes fit in the run.

Each workload also has a CLI leg (``python -m repro detect`` as a
subprocess on a graph it wrote as ``.mtx``).  Outputs are checked as the
workload runs; every failed check is counted against ``attempted``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from deltas import delta_batches
from hostspeed import HostSpeed, child_cpu_s
from repro import metrics as _metrics
from repro.core import incremental as _incremental
from repro.core import lpa as _lpa
from repro.core.config import LPAConfig
from repro.graph import datasets as _datasets
from repro.graph.io import write_matrix_market
from repro.perf.model import estimate_gpu_seconds
from repro.service import read as _read
from repro.stream import epoch as _epoch

#: Seed of every generated graph.  The run's ``--seed`` drives what varies
#: from run to run — delta batches, lookup keys, job order — while the
#: graphs stay fixed: across graph seeds the heavy-tailed stand-ins alone
#: move |E| by about 6 % and modularity by about 10 %, more than the
#: bounds this benchmark holds other changes to.
GRAPH_SEED = 42
#: Lookups timed in each detect-workload round (split evenly after its
#: job and epoch publishes), and after each of the far shorter serve rounds.
LOOKUPS = 20000
SERVE_LOOKUPS = 4000
#: Zipf exponent of the lookup keys.  The distribution is the one the
#: read-path benchmark (benchmarks/bench_query.py) already models: a zipf
#: law truncated to the graph's vertices, vertex ``i`` of rank ``i + 1``.
#: It is repeated here, not imported, so this benchmark's inputs stay put
#: when that one changes.
ZIPF_S = 1.1
#: Lookups per chunk: each chunk is calibrated on its own (see hostspeed.py).
QUERY_CHUNK = 1000


def _mark() -> tuple[float, float]:
    """A (wall, CPU) instant."""
    return time.perf_counter(), time.process_time()


def _cpu_s(start: tuple[float, float], end: tuple[float, float]) -> float:
    """CPU seconds between two marks."""
    return end[1] - start[1]


@dataclass
class Samples:
    """Everything one run measures, plus its output-check tally.

    Timed samples are kept raw, in CPU seconds; ``query`` holds
    ``(per-lookup wall ns, call-kernel ns)`` bursts, one kernel time before
    the first chunk and one after every chunk.  ``speed`` scales them to the
    reference host afterwards (see ``hostspeed.py``).  Callers probe it
    between samples, never inside one.
    """

    job: list = field(default_factory=list)
    epoch: list = field(default_factory=list)
    query: list = field(default_factory=list)
    cli: list = field(default_factory=list)
    #: One-shot detections: input key -> CPU seconds, and the key's edge count.
    detect: dict = field(default_factory=dict)
    detect_edges: dict = field(default_factory=dict)
    speed: HostSpeed = field(default_factory=HostSpeed)
    epochs: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    modeled_gpu_s: float | None = None
    modularity: float | None = None
    #: Wall seconds per leg of the loop (job, epochs, reads...), printed
    #: as shares so the mix of work a workload does stays visible.
    leg_s: dict = field(default_factory=dict)
    #: Printed-only figures: name -> (value, unit, samples).
    extra: dict = field(default_factory=dict)
    #: Fault injection for the self-test: "permuted-label" or "stale-snapshot".
    inject: str | None = None
    injected: bool = False

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def probe(self) -> None:
        self.speed.probe()

    def detected(self, key: str, edges: int, cpu_s: float) -> None:
        self.detect.setdefault(key, []).append(cpu_s)
        self.detect_edges[key] = edges

    def leg(self, name: str, seconds: float) -> None:
        self.leg_s[name] = self.leg_s.get(name, 0.0) + seconds

    def corrupt(self, labels: np.ndarray) -> np.ndarray:
        """Swap one pair of differing labels once, when injection asks."""
        if self.inject != "permuted-label" or self.injected:
            return labels
        labels = labels.copy()
        j = int(np.flatnonzero(labels != labels[0])[0]) if np.any(labels != labels[0]) else 0
        labels[0], labels[j] = labels[j], labels[0]
        self.injected = True
        return labels

    def stale(self) -> bool:
        """True exactly once when the self-test asks for a stale refresh."""
        if self.inject != "stale-snapshot" or self.injected:
            return False
        self.injected = True
        return True


def _zipf_keys(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_S
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(count)).astype(np.int64)


def _valid_labels(s: Samples, graph, labels, what: str) -> bool:
    labels = np.asarray(labels)
    n = graph.num_vertices
    return s.check(
        labels.shape == (n,) and (n == 0 or (labels.min() >= 0 and labels.max() < n)),
        f"{what}: labels not length |V| or out of range",
    )


def _modularity(s: Samples, graph, labels, what: str) -> float:
    q = float(_metrics.modularity(graph, labels))
    s.check(math.isfinite(q) and -0.5 <= q <= 1.0, f"{what}: modularity {q} out of range")
    return q


def _lookups(s: Samples, engine, job_id: str, keys: np.ndarray,
             expect: np.ndarray, what: str) -> None:
    """Time ``membership`` per op and check every answer.

    A lookup is far shorter than a probe, so it is timed in wall
    nanoseconds, and the call kernel is timed around every chunk.
    """
    pc = time.perf_counter_ns
    membership = engine.membership
    kernel = s.speed.call_kernel_ns
    n = keys.shape[0]
    vertices = keys.tolist()
    got = np.empty(n, dtype=np.int64)
    lat = np.empty(n, dtype=np.int64)
    s.probe()
    gc.disable()
    try:
        marks = [kernel()]
        for start in range(0, n, QUERY_CHUNK):
            for i in range(start, min(n, start + QUERY_CHUNK)):
                v = vertices[i]
                t = pc()
                got[i] = membership(job_id, v)
                lat[i] = pc() - t
            marks.append(kernel())
    finally:
        gc.enable()
    s.query.append((lat, marks))
    s.probe()
    s.check(bool(np.array_equal(got, expect[keys])), f"{what}: lookup answers differ from the snapshot")


def _cli_detect(s: Samples, root: Path, argv: list, out: Path, graph,
                expect: np.ndarray) -> None:
    """One ``repro detect`` subprocess, process start to labels written.

    Timed as the child's CPU seconds.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    out.unlink(missing_ok=True)
    s.probe()
    c0 = child_cpu_s()
    proc = subprocess.run([sys.executable, "-m", "repro", *argv], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    c1 = child_cpu_s()
    s.probe()
    if not s.check(proc.returncode == 0 and out.exists(),
                   f"cli: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"):
        return
    s.cli.append(c1 - c0)
    labels = np.loadtxt(out, dtype=np.int64, ndmin=1)
    _valid_labels(s, graph, labels, "cli")
    s.check(bool(np.array_equal(labels, expect)), "cli: labels differ from the library run")
    printed = [ln for ln in proc.stdout.splitlines() if ln.startswith("modularity:")]
    q = float(_metrics.modularity(graph, labels))
    s.check(bool(printed) and abs(float(printed[-1].split()[1]) - q) <= 6e-5,
            "cli: printed modularity differs from the recomputed one")


class _Workload:
    """The CLI leg and reader shared by every workload."""

    cli_engine = "vectorized"

    def _write_cli_input(self, graph) -> None:
        self.cli_graph = graph
        self.cli_mtx = self.work / "cli-input.mtx"
        write_matrix_market(graph, self.cli_mtx)

    def _cli_argv(self, out: Path) -> list:
        return ["detect", "--input", str(self.cli_mtx), "--engine", self.cli_engine,
                "--output", str(out)]

    def cli_call(self, s: Samples) -> None:
        """One CLI subprocess, checked against the library's labels."""
        if getattr(self, "_cli_expect", None) is None:
            self._cli_expect = _lpa.nu_lpa(self.cli_graph, self.config,
                                           engine=self.cli_engine,
                                           warn_on_no_convergence=False).labels
        out = self.work / "cli-labels.txt"
        _cli_detect(s, self.root, self._cli_argv(out), out, self.cli_graph, self._cli_expect)

    def cli_in_process(self, s: Samples) -> None:
        """The same CLI call through ``repro.cli.main`` (so it can be traced)."""
        from repro import cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._cli_argv(self.work / "cli-labels.txt"))
        s.check(code == 0, f"in-process cli: exit {code}")

    def close(self) -> None:
        self.query.close()


# ---------------------------------------------------------------------- #
# Detect workloads
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class DetectSpec:
    graphs: tuple  # ((dataset, scale), ...); the first one also streams
    engine: str
    cli_graph: tuple  # (dataset, scale)
    #: Delta batches per run, and epochs (one batch each) per round.
    batches: int = 24
    epochs_per_round: int = 3


DETECT = {
    "web-hashtable": DetectSpec(
        graphs=(("it-2004", 1.0), ("com-Orkut", 1.0)),
        engine="hashtable",
        cli_graph=("com-Orkut", 0.25),
    ),
    "sparse-vectorized": DetectSpec(
        graphs=(("europe_osm", 4.0), ("kmer_A2a", 2.0)),
        engine="vectorized",
        cli_graph=("europe_osm", 1.0),
    ),
}


class DetectWorkload(_Workload):
    """Library-path detection on large stand-ins (see module docstring)."""

    def __init__(self, name: str, seed: int, work: Path, root: Path, *,
                 smoke: bool = False) -> None:
        spec = DETECT[name]
        self.spec, self.root, self.work = spec, root, work
        shrink = 0.05 if smoke else 1.0
        self.config = LPAConfig()
        self.graphs = [
            _datasets.generate_standin(ds, scale=sc * shrink, seed=GRAPH_SEED)
            for ds, sc in spec.graphs
        ]
        self.names = [ds for ds, _ in spec.graphs]
        rng = np.random.default_rng(seed)
        self.batches = delta_batches(self.graphs[0], rng, num_batches=spec.batches)
        #: Every batch runs at least once, so per-run totals are complete.
        self.min_units = spec.batches // spec.epochs_per_round
        self.keys = _zipf_keys(self.graphs[0].num_vertices, LOOKUPS * self.min_units, rng)
        ds, sc = spec.cli_graph
        self.cli_engine = spec.engine
        self._write_cli_input(
            _datasets.generate_standin(ds, scale=sc * shrink, seed=GRAPH_SEED))
        self.catalog = _read.SnapshotCatalog(work / "snapshots", keep=4)
        self.query = _read.QueryEngine(self.catalog)
        self.job_id = name
        self._job_labels: list | None = None
        self._epoch_labels: dict[int, np.ndarray] = {}
        self._bursts = 0

    def run_unit(self, s: Samples, index: int, tracer=None) -> None:
        engine = self.spec.engine
        op = f"round-{index}"

        # Job: every graph detected back to back, the first one published.
        if tracer is not None:
            tracer.op = op + "/job"
        s.probe()
        m0 = _mark()
        results = [
            _lpa.nu_lpa(g, self.config, engine=engine, warn_on_no_convergence=False)
            for g in self.graphs
        ]
        detected = _mark()
        path = self.catalog.publish(self.job_id, results[0].labels, source="job")
        m_job = _mark()
        s.probe()
        s.job.append(_cpu_s(m0, m_job))
        s.detected("round", sum(g.num_edges for g in self.graphs), _cpu_s(m0, detected))
        s.leg("job", m_job[0] - m0[0])
        self._check_job(s, index, results)
        self._reads(s, f"{op}/job", path, results[0].labels, tracer)

        # Epochs: one delta batch each on the first graph, re-detected warm
        # from the job's labels and published.
        for e in range(self.spec.epochs_per_round):
            k = (index * self.spec.epochs_per_round + e) % len(self.batches)
            if tracer is not None:
                tracer.op = f"{op}/epoch-{k + 1}"
            s.probe()
            m1 = _mark()
            applied = _epoch.apply_batch(self.graphs[0], self.batches[k])
            inc = _incremental.nu_lpa_incremental(
                applied.graph, results[0].labels, applied.touched,
                config=self.config, engine=engine,
            )
            path = self.catalog.publish(self.job_id, inc.labels, source="epoch", epoch=k + 1)
            m2 = _mark()
            s.probe()
            s.epoch.append(_cpu_s(m1, m2))
            s.leg("epochs", m2[0] - m1[0])
            s.epochs += 1
            self._check_epoch(s, index, k, applied.graph, inc)
            self._reads(s, f"{op}/epoch-{k + 1}", path, inc.labels, tracer)

    def _reads(self, s: Samples, op: str, path, labels, tracer) -> None:
        """Refresh onto the snapshot just published, then zipfian lookups.

        A round's lookups follow each of its publishes, so the reads sample
        the run at many moments, not one per round.
        """
        if tracer is not None:
            tracer.op = op + "/query"
        t = time.perf_counter()
        if self._bursts == 0 or not s.stale():
            self.query.refresh(self.job_id)
        snap = self.query.snapshot_for(self.job_id)
        s.check(snap.snapshot_version == self.catalog.version_of(path),
                f"{op}: query engine serves a stale snapshot")
        burst = LOOKUPS // (1 + self.spec.epochs_per_round)
        base = (self._bursts * burst) % self.keys.shape[0]
        _lookups(s, self.query, self.job_id, self.keys[base:base + burst],
                 np.asarray(labels), op)
        self._bursts += 1
        s.leg("reads", time.perf_counter() - t)

    def _check_job(self, s: Samples, index: int, results) -> None:
        """Valid labels; identical repeats (the engines are deterministic)."""
        labels = [np.asarray(r.labels) for r in results]
        if self._job_labels is None:
            self._job_labels = labels
            qs = []
            for name, g, r in zip(self.names, self.graphs, results):
                _valid_labels(s, g, r.labels, name)
                qs.append(_modularity(s, g, r.labels, name))
            s.modularity = float(np.mean(qs))
            s.modeled_gpu_s = float(sum(estimate_gpu_seconds(r.total_counters)
                                        for r in results))
            return
        for name, ref, got in zip(self.names, self._job_labels, labels):
            s.check(bool(np.array_equal(ref, s.corrupt(got))),
                    f"round {index}: {name} labels differ from round 0")

    def _check_epoch(self, s: Samples, index: int, k: int, graph, inc) -> None:
        prev = self._epoch_labels.get(k)
        if prev is None:
            self._epoch_labels[k] = np.asarray(inc.labels)
            _valid_labels(s, graph, inc.labels, f"epoch {k + 1}")
            s.modeled_gpu_s += estimate_gpu_seconds(inc.total_counters)
        else:
            s.check(bool(np.array_equal(prev, inc.labels)),
                    f"round {index}: epoch {k + 1} labels differ from its first run")

    def finish(self, s: Samples) -> None:
        """Every output was checked as the rounds ran."""


# ---------------------------------------------------------------------- #
# serve-mixed
# ---------------------------------------------------------------------- #

#: Subscription base graph.
SUB_GRAPH = ("com-LiveJournal", 0.1)
#: One-shot jobs rotate through these small stand-ins.
ROTATION = (("asia_osm", 0.5), ("com-LiveJournal", 0.05),
            ("kmer_A2a", 0.05), ("uk-2002", 0.05))
#: Rounds per episode (a multiple of len(ROTATION)).
ROUNDS = 24


class ServeWorkload(_Workload):
    """One closed-loop client driving a journaled ``DetectionService``."""

    min_units = 1

    def __init__(self, name: str, seed: int, work: Path, root: Path, *,
                 smoke: bool = False) -> None:
        from repro.service import DetectionService, JobSpec, ServiceConfig
        from repro.service.job import GraphRef

        self.root, self.work = root, work
        self.JobSpec = JobSpec
        shrink = 0.2 if smoke else 1.0
        self.rounds = 4 if smoke else ROUNDS
        self.sub_ref = GraphRef(kind="dataset", name=SUB_GRAPH[0],
                                scale=SUB_GRAPH[1] * shrink, seed=GRAPH_SEED)
        rng = np.random.default_rng(seed)
        self.rotation = [(ROTATION[i][0], ROTATION[i][1] * shrink)
                         for i in rng.permutation(len(ROTATION))]
        self.base = self.sub_ref.load()
        self.rotation_graphs = [
            _datasets.generate_standin(ds, scale=sc, seed=GRAPH_SEED)
            for ds, sc in self.rotation
        ]
        self.batches = delta_batches(self.base, rng, num_batches=self.rounds)
        self.keys = _zipf_keys(self.base.num_vertices, SERVE_LOOKUPS * self.rounds, rng)
        self.config = LPAConfig()
        self.service = DetectionService(ServiceConfig(
            journal_dir=work / "journal",
            snapshot_dir=work / "snapshots",
            snapshot_keep=4,
            workers=2,
            memory_budget_bytes=self.config.device.global_memory_bytes,
        ))
        self.query = _read.QueryEngine(self.service.read_catalog)
        # Record when each job's newest snapshot became readable: the
        # catalog publish is the last step before a reader can see it.
        self.published: dict[str, tuple[tuple[float, float], Path]] = {}
        publish = self.service.read_catalog.publish

        def timed_publish(job_id, labels, **kwargs):
            path = publish(job_id, labels, **kwargs)
            self.published[job_id] = (_mark(), path)
            return path

        self.service.read_catalog.publish = timed_publish
        # And how long the step that executed each job took: a one-shot
        # job's detection time, without the subscription epoch that the
        # same drain() may run before it.
        self.step_cpu_s: dict[str, float] = {}
        step = self.service.step

        def timed_step():
            m = _mark()
            record = step()
            if record is not None:
                self.step_cpu_s[record.job_id] = _cpu_s(m, _mark())
            return record

        self.service.step = timed_step
        self._write_cli_input(self.rotation_graphs[0])
        self._final_labels: list[np.ndarray] = []
        self._job_labels: dict[int, np.ndarray] = {}
        self._first_clock: float | None = None

    def run_unit(self, s: Samples, index: int, tracer=None) -> None:
        from repro.stream.log import DeltaLog

        svc = self.service
        sub = f"sub-{index}"
        stream_dir = self.work / "streams" / sub
        if tracer is not None:
            tracer.op = f"episode-{index}/subscribe"
        clock0 = svc.clock_s
        svc.submit(self.JobSpec(job_id=sub, graph=self.sub_ref, kind="subscription",
                                stream_dir=str(stream_dir)))
        svc.drain()
        log = DeltaLog(stream_dir)
        for r in range(self.rounds):
            op = f"episode-{index}/round-{r}"
            if tracer is not None:
                tracer.op = op
            ds, sc = self.rotation[r % len(self.rotation)]
            job = f"job-{index}-{r}"
            # The epoch runs inside drain(), after the submit: no probe
            # between m0 and m2.
            s.probe()
            m0 = _mark()
            log.append(self.batches[r])
            svc.advance_subscription(sub)
            m1 = _mark()
            svc.submit(self.JobSpec.dataset(job, ds, scale=sc, seed=GRAPH_SEED))
            svc.drain()
            m2 = _mark()
            if r == 0 or not s.stale():
                self.query.refresh(sub)
            snap = self.query.snapshot_for(sub)
            expect = svc.result(sub).outcome.labels
            base = r * SERVE_LOOKUPS
            _lookups(s, self.query, sub, self.keys[base:base + SERVE_LOOKUPS],
                     np.asarray(expect), op)
            s.leg("advance", m1[0] - m0[0])
            s.leg("job+drain", m2[0] - m1[0])
            s.leg("reads", time.perf_counter() - m2[0])

            m_sub, sub_path = self.published.get(sub, (None, None))
            m_job = self.published.get(job, (None, None))[0]
            s.check(snap.epoch == r + 1 and sub_path is not None
                    and snap.snapshot_version == svc.read_catalog.version_of(sub_path),
                    f"{op}: query engine serves a stale snapshot")
            record = svc.result(job)
            if s.check(record.outcome is not None and record.outcome.rung == "full"
                       and m_job is not None and job in self.step_cpu_s,
                       f"{op}: job {job} did not finish on rung full"):
                s.job.append(_cpu_s(m1, m_job))
                s.detected(ds, self.rotation_graphs[r % len(self.rotation)].num_edges,
                           self.step_cpu_s[job])
                self._check_job(s, r, record.outcome.labels)
            if s.check(m_sub is not None and m_sub[0] >= m0[0],
                       f"{op}: epoch {r + 1} was not published"):
                s.epoch.append(_cpu_s(m0, m_sub))
                s.epochs += 1
        self._final_labels.append(np.asarray(svc.result(sub).outcome.labels))
        if self._first_clock is None:
            self._first_clock = svc.clock_s - clock0

    def _check_job(self, s: Samples, r: int, labels) -> None:
        slot = r % len(self.rotation)
        what = f"job on {self.rotation[slot][0]}"
        prev = self._job_labels.get(slot)
        if prev is None:
            self._job_labels[slot] = np.asarray(labels)
            _valid_labels(s, self.rotation_graphs[slot], labels, what)
        else:
            s.check(bool(np.array_equal(prev, labels)), f"{what}: labels differ from its first run")

    def finish(self, s: Samples) -> None:
        """Final subscription labels must equal a direct replay."""
        from repro.stream.log import DeltaLog
        from repro.stream.processor import StreamProcessor

        ref_dir = self.work / "reference"
        shutil.rmtree(ref_dir, ignore_errors=True)
        log = DeltaLog(ref_dir / "log")
        for batch in self.batches:
            log.append(batch)
        proc = StreamProcessor(self.base, log, ref_dir / "epochs", config=self.config)
        proc.run_to_head()
        for i, labels in enumerate(self._final_labels):
            s.check(bool(np.array_equal(s.corrupt(labels), proc.labels)),
                    f"episode {i}: subscription labels differ from a direct replay")
        qs = [_modularity(s, g, self._job_labels[i], f"job on {self.rotation[i][0]}")
              for i, g in enumerate(self.rotation_graphs) if i in self._job_labels]
        qs.append(_modularity(s, proc.graph, proc.labels, "subscription"))
        s.modularity = float(np.mean(qs))
        s.modeled_gpu_s = self._first_clock


def make(name: str, seed: int, work: Path, root: Path, *, smoke: bool = False):
    if name in DETECT:
        return DetectWorkload(name, seed, work, root, smoke=smoke)
    if name == "serve-mixed":
        return ServeWorkload(name, seed, work, root, smoke=smoke)
    raise SystemExit(f"unknown workload {name!r}; choose from "
                     f"{sorted([*DETECT, 'serve-mixed'])}")


WORKLOADS = [*DETECT, "serve-mixed"]
