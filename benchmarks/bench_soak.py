"""Soak suite: every robustness leg of :mod:`repro.soak` at full size.

One parametrised case per leg (select one with ``-k chaos``, ``-k
service``, ``-k stream``, ``-k integrity`` or ``-k memory``).  Each runs
the leg's seeded attacks — 25 chaos schedules, 10 service and 20 stream
kill/restart schedules, 20 integrity and 20 memory schedules by default;
``REPRO_SOAK_SEEDS`` overrides the count — and asserts, for every leg:

* the attacks were exercised (the leg's own gate: crashes fired, deaths
  injected, corruptions detected, OOMs raised);
* zero ``silent/wrong`` verdicts — the one hard gate every leg goes
  through;
* every seed ended in a verdict its leg accepts, inside the leg's bounds.

The stream leg also times one crash-free stream (deltas and epochs per
second, mean warm-start frontier, speedup over from-scratch detection),
and the service leg keeps its clean-run ``DetectionService.stats()``
snapshot; both land in the report's ``details``.

Writes one ``repro.observe/soak`` report per leg to
``BENCH_<leg>_soak.json`` (``REPRO_SOAK_OUT`` overrides the path; a
``{leg}`` in it is replaced by the leg name) for the CI artifact.  Graph
size scales with ``REPRO_BENCH_SCALE``; seeds derive from
``REPRO_BENCH_SEED``, so a failing seed replays in isolation.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import LPAConfig
from repro.core.lpa import nu_lpa
from repro.graph.datasets import generate_standin
from repro.graph.generators import web_graph
from repro.observe.schema import validate_soak
from repro.observe.trace import Tracer
from repro.service import JobSpec, ServiceConfig
from repro.soak import (
    ChaosLeg,
    IntegrityLeg,
    MemoryLeg,
    ServiceLeg,
    StreamLeg,
    run_soak,
)
from repro.stream import DeltaLog, StreamProcessor, random_delta_batches

#: The service workload every schedule replays: mixed datasets and
#: engines, big enough that runs span several checkpoint generations.
WORKLOAD = [
    JobSpec.dataset("svc-0", "asia_osm", scale=0.05, max_iterations=12,
                    engine="vectorized"),
    JobSpec.dataset("svc-1", "europe_osm", scale=0.05, max_iterations=12,
                    engine="hashtable"),
    JobSpec.dataset("svc-2", "kmer_V1r", scale=0.05, max_iterations=12,
                    engine="vectorized"),
    JobSpec.dataset("svc-3", "asia_osm", scale=0.08, seed=7,
                    max_iterations=12, engine="hashtable"),
]

#: The stream throughput run uses a larger stand-in than the soak: at
#: soak scale the per-batch churn touches over half the graph, which
#: hides the warm-start win.
THROUGHPUT_SCALE = 0.2


def _legs(scale: float, seed: int) -> dict:
    config = LPAConfig(max_iterations=15)
    return {
        # ~1200 vertices at the default 0.25 scale: large enough that runs
        # span several checkpoint generations, small enough for CI minutes.
        "chaos": lambda: ChaosLeg(
            web_graph(max(200, int(4800 * scale)), seed=seed), config, seed=seed
        ),
        "service": lambda: ServiceLeg(WORKLOAD, ServiceConfig(workers=2), seed=seed),
        "stream": lambda: StreamLeg(seed=seed),
        # ~750 vertices at 0.25: several checkpoint generations, snapshot
        # versions, hashtable regions and arena waves per schedule.
        "integrity": lambda: IntegrityLeg(
            web_graph(max(150, int(3000 * scale)), seed=seed), config, seed=seed
        ),
        "memory": lambda: MemoryLeg(
            web_graph(max(150, int(3000 * scale)), seed=seed), config, seed=seed
        ),
    }


def _throughput(leg: StreamLeg, seed: int, workdir: Path) -> dict:
    """Time one crash-free stream; returns the ``rates`` block."""
    rng = np.random.default_rng([seed, leg.num_batches])
    base = generate_standin(leg.dataset, scale=THROUGHPUT_SCALE, seed=seed)
    batches = random_delta_batches(
        base, rng, num_batches=leg.num_batches, batch_size=leg.batch_size,
        grow_every=max(2, leg.num_batches // 2),
    )
    log = DeltaLog(workdir / "wal")
    for batch in batches:
        log.append(batch)
    tracer = Tracer()
    processor = StreamProcessor(
        base, log, workdir / "epochs", hops=leg.hops, tracer=tracer,
    )
    processor.recover()
    t0 = time.perf_counter()
    epochs = processor.run_to_head()
    incremental_s = max(time.perf_counter() - t0, 1e-9)

    events = [e for e in tracer if e.kind == "epoch"]
    deltas = sum(e.added + e.removed + e.updated for e in events)
    frontier_mean = (
        float(np.mean([e.frontier_fraction for e in events])) if events else 0.0
    )

    # From-scratch comparison: re-detect the *final* graph once per epoch,
    # which is what a pipeline without warm starts would have to do.
    t0 = time.perf_counter()
    for _ in range(max(epochs, 1)):
        nu_lpa(processor.graph, processor.config, warn_on_no_convergence=False)
    scratch_s = max(time.perf_counter() - t0, 1e-9)

    return {
        "deltas_per_second": deltas / incremental_s,
        "epochs_per_second": epochs / incremental_s,
        "frontier_fraction_mean": frontier_mean,
        "speedup_vs_scratch": scratch_s / incremental_s,
    }


def _soak(name: str, scale: float, seed: int, seeds: int | None, workdir: Path):
    leg = _legs(scale, seed)[name]()
    report = run_soak(leg, workdir / "soak", seeds=seeds)
    doc = report.as_dict()
    doc["details"].update(bench_scale=scale, bench_seed=seed)
    if name == "stream":
        doc["details"]["rates"] = _throughput(leg, seed, workdir / "throughput")
    return leg, report, validate_soak(doc)


@pytest.mark.parametrize("name", ["chaos", "service", "stream", "integrity", "memory"])
def test_soak(benchmark, bench_scale, bench_seed, tmp_path, name):
    env_seeds = os.environ.get("REPRO_SOAK_SEEDS")
    seeds = int(env_seeds) if env_seeds else None
    leg, report, doc = benchmark.pedantic(
        _soak,
        args=(name, bench_scale, bench_seed, seeds, tmp_path),
        rounds=1,
        iterations=1,
    )

    out = Path(os.environ.get("REPRO_SOAK_OUT", "BENCH_{leg}_soak.json")
               .replace("{leg}", name))
    out.write_text(json.dumps(doc, indent=2) + "\n")

    print()
    for r in doc["records"]:
        verdicts = " ".join(f"{k}={v}" for k, v in r["verdicts"].items())
        print(f"{r['seed']:6d} {'ok' if r['ok'] else 'FAIL':4s} {verdicts} "
              f"{'; '.join(r['failures'])}")
    if "rates" in doc["details"]:
        rates = doc["details"]["rates"]
        print(f"throughput: {rates['deltas_per_second']:.0f} deltas/s, "
              f"{rates['epochs_per_second']:.1f} epochs/s, "
              f"frontier {rates['frontier_fraction_mean']:.3f}, "
              f"speedup vs scratch {rates['speedup_vs_scratch']:.1f}x")
    print(doc["summary"])
    print(f"report written to {out}")

    assert doc["num_seeds"] == (leg.default_seeds if seeds is None else seeds)
    unexercised = leg.unexercised(report.records)
    assert unexercised is None, unexercised
    # The contract, one gate for every leg: no silent wrong answer.
    assert doc["silent"] == 0, doc["summary"]
    failed = [r for r in doc["records"] if not r["ok"]]
    assert not failed, f"{len(failed)} seed(s) failed: " + "; ".join(
        f"{r['seed']}: {', '.join(r['failures'])}" for r in failed
    )
    assert doc["ok"]
