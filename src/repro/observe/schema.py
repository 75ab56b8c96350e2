"""Versioned JSON schemas for profiles, traces, and benchmark baselines.

Two document families:

* ``repro.observe/profile`` — one run's :class:`~repro.observe.profile.
  RunProfile` (optionally bundled with its raw trace by ``--trace-out``);
* ``repro.observe/bench`` — the regression baseline ``BENCH_lpa.json``
  written by ``benchmarks/bench_profile_trajectory.py``: one record per
  Table-1 stand-in graph, carrying modelled seconds, summed counters, and
  iteration counts for later PRs to diff against.

Validation is hand-rolled (the toolchain has no ``jsonschema``): each
validator walks the document and raises
:class:`~repro.errors.SchemaValidationError` naming the offending path, so
CI failures point at the broken field rather than a generic mismatch.
"""

from __future__ import annotations

import numbers

from repro.errors import SchemaValidationError

__all__ = [
    "PROFILE_SCHEMA",
    "PROFILE_SCHEMA_VERSION",
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "SERVICE_SCHEMA",
    "SERVICE_SCHEMA_VERSION",
    "QUERY_BENCH_SCHEMA",
    "QUERY_BENCH_SCHEMA_VERSION",
    "SOAK_SCHEMA",
    "SOAK_SCHEMA_VERSION",
    "SOAK_VERDICTS",
    "validate_profile",
    "validate_bench",
    "validate_service_stats",
    "validate_query_bench",
    "validate_soak",
]

PROFILE_SCHEMA = "repro.observe/profile"
PROFILE_SCHEMA_VERSION = 1

BENCH_SCHEMA = "repro.observe/bench"
#: v2 adds the perf-gate fields: per-graph measured ``wall_seconds``
#: (vectorized engine) and a document-level ``calibration_seconds`` that
#: normalises wall clocks across machines.  v3 adds per-graph
#: ``wall_seconds_hashtable`` (the ν-LPA hashtable engine's wall clock)
#: so the clean-tables-sweep/compact-layout hot path is gated alongside the
#: vectorized engine.
BENCH_SCHEMA_VERSION = 3

#: ``repro.observe/service`` — a :class:`~repro.service.service.
#: DetectionService` health snapshot (``service.stats()`` / ``repro serve
#: --stats-out``): queue depth and rejections, job-state counts,
#: degradation-rung counts, breaker states, and modelled-clock latency
#: percentiles.  The CI soak job's service leg uploads one of these.
SERVICE_SCHEMA = "repro.observe/service"
#: v2 adds the required ``batching`` section (wave-batching counters:
#: batches formed, jobs coalesced, launch-overhead seconds amortised).
#: v3 adds the required ``memory`` section (device-memory admission:
#: effective budget, combined in-flight footprint estimate and its
#: high-water mark, typed-rejection / serialisation / degradation
#: counters).
SERVICE_SCHEMA_VERSION = 3

#: ``repro.observe/query-bench`` — the read-path latency report written
#: by ``benchmarks/bench_query.py``: per-graph p50/p99 latencies of the
#: zipfian membership/roster/diff load, the membership p99 SLO verdict,
#: and the O(1) flatness check across two graph sizes.  ``BENCH_query.
#: json`` at the repo root is the committed baseline the CI query-bench
#: job gates against.
QUERY_BENCH_SCHEMA = "repro.observe/query-bench"
QUERY_BENCH_SCHEMA_VERSION = 1

#: ``repro.observe/soak`` — one leg's report from
#: ``benchmarks/bench_soak.py`` (:func:`repro.soak.run_soak`): per-seed
#: verdicts, failures and the leg's own fields, plus leg-level details
#: (the stream leg adds its throughput ``rates``, the service leg its
#: clean-run ``stats`` snapshot).  The CI ``soak`` job uploads one per
#: leg; ``silent`` must be 0.
SOAK_SCHEMA = "repro.observe/soak"
SOAK_SCHEMA_VERSION = 1
#: The four outcomes of an attack (:class:`repro.soak.Verdict`), in
#: order; the last is the silent wrong answer every soak must not give.
SOAK_VERDICTS = (
    "absorbed-identical", "absorbed-valid", "typed-error", "silent/wrong",
)


def _fail(path: str, message: str):
    raise SchemaValidationError(f"{path}: {message}")


def _require(doc: dict, path: str, key: str, types, *, allow_none: bool = False):
    if not isinstance(doc, dict):
        _fail(path, f"expected object, got {type(doc).__name__}")
    if key not in doc:
        _fail(f"{path}.{key}", "missing required field")
    value = doc[key]
    if value is None and allow_none:
        return value
    # bool is an int subclass; reject it where a number is expected.
    if isinstance(value, bool) and types is not bool and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        _fail(f"{path}.{key}", "expected number, got bool")
    if not isinstance(value, types):
        expected = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        _fail(f"{path}.{key}", f"expected {expected}, got {type(value).__name__}")
    return value


def _check_header(doc: dict, path: str, schema: str, version: int) -> None:
    got_schema = _require(doc, path, "schema", str)
    if got_schema != schema:
        _fail(f"{path}.schema", f"expected {schema!r}, got {got_schema!r}")
    got_version = _require(doc, path, "version", int)
    if got_version != version:
        _fail(f"{path}.version", f"unsupported version {got_version} (want {version})")


def _check_counters(counters: dict, path: str) -> None:
    from repro.gpu.metrics import KernelCounters

    expected = set(KernelCounters().as_dict())
    if set(counters) != expected:
        missing = expected - set(counters)
        extra = set(counters) - expected
        _fail(path, f"counter keys mismatch (missing {sorted(missing)}, "
                    f"unexpected {sorted(extra)})")
    for key, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, int):
            _fail(f"{path}.{key}", f"expected int, got {type(value).__name__}")
        if value < 0:
            _fail(f"{path}.{key}", f"negative counter {value}")


def validate_profile(doc: dict) -> dict:
    """Validate a serialised :class:`RunProfile`; returns ``doc``."""
    path = "profile"
    _check_header(doc, path, PROFILE_SCHEMA, PROFILE_SCHEMA_VERSION)
    _require(doc, path, "algorithm", str)
    device = _require(doc, path, "device", dict)
    _require(device, f"{path}.device", "name", str)
    sector = _require(device, f"{path}.device", "sector_bytes", int)
    if sector <= 0:
        _fail(f"{path}.device.sector_bytes", f"must be positive, got {sector}")
    _require(doc, path, "converged", bool)
    total = _require(doc, path, "modeled_seconds", numbers.Real)
    if total < 0:
        _fail(f"{path}.modeled_seconds", f"negative time {total}")
    _require(doc, path, "bytes_moved", int)
    _check_counters(_require(doc, path, "counters", dict), f"{path}.counters")

    iterations = _require(doc, path, "iterations", list)
    for i, it in enumerate(iterations):
        ipath = f"{path}.iterations[{i}]"
        _require(it, ipath, "iteration", int)
        _require(it, ipath, "changed", int)
        _require(it, ipath, "processed", int)
        _require(it, ipath, "pick_less", bool)
        _require(it, ipath, "cross_check", bool)
        _require(it, ipath, "reverted", int)
        _require(it, ipath, "modeled_seconds", numbers.Real)
        _check_counters(_require(it, ipath, "counters", dict), f"{ipath}.counters")

    kernels = _require(doc, path, "kernels", list)
    for i, k in enumerate(kernels):
        kpath = f"{path}.kernels[{i}]"
        _require(k, kpath, "kernel", str)
        _require(k, kpath, "launches", int)
        _require(k, kpath, "waves", int)
        _require(k, kpath, "modeled_seconds", numbers.Real)
        _check_counters(_require(k, kpath, "counters", dict), f"{kpath}.counters")

    histograms = _require(doc, path, "histograms", dict)
    for name in ("probes_per_edge", "warp_serial_per_edge"):
        hist = _require(histograms, f"{path}.histograms", name, dict)
        hpath = f"{path}.histograms.{name}"
        edges = _require(hist, hpath, "bin_edges", list)
        counts = _require(hist, hpath, "counts", list)
        if len(edges) != len(counts) + 1:
            _fail(hpath, f"{len(edges)} bin edges for {len(counts)} counts")

    rates = _require(doc, path, "rates", dict)
    for name in ("atomic_conflict_rate", "probes_per_edge", "avg_waves_per_launch"):
        _require(rates, f"{path}.rates", name, numbers.Real)

    _require(doc, path, "fault_rungs", dict)
    return doc


def validate_service_stats(doc: dict) -> dict:
    """Validate a ``DetectionService.stats()`` snapshot; returns ``doc``."""
    path = "service"
    _check_header(doc, path, SERVICE_SCHEMA, SERVICE_SCHEMA_VERSION)
    for key in ("clock_s", "wall_seconds"):
        value = _require(doc, path, key, numbers.Real)
        if value < 0:
            _fail(f"{path}.{key}", f"negative time {value}")
    workers = _require(doc, path, "workers", int)
    if workers < 1:
        _fail(f"{path}.workers", f"must be >= 1, got {workers}")

    queue = _require(doc, path, "queue", dict)
    qpath = f"{path}.queue"
    for key in ("depth", "capacity", "rejected_queue_full", "rejected_tenant_cap"):
        value = _require(queue, qpath, key, int)
        if value < 0:
            _fail(f"{qpath}.{key}", f"negative count {value}")
    if queue["depth"] > queue["capacity"]:
        _fail(f"{qpath}.depth",
              f"depth {queue['depth']} exceeds capacity {queue['capacity']}")
    tenants = _require(queue, qpath, "tenants", dict)
    for tenant, load in tenants.items():
        if isinstance(load, bool) or not isinstance(load, int) or load < 0:
            _fail(f"{qpath}.tenants.{tenant}", f"expected count, got {load!r}")

    jobs = _require(doc, path, "jobs", dict)
    jpath = f"{path}.jobs"
    for key in (
        "submitted", "rejected", "recovered", "retries", "reroutes",
        "pending", "running", "completed", "failed", "degraded",
    ):
        value = _require(jobs, jpath, key, int)
        if value < 0:
            _fail(f"{jpath}.{key}", f"negative count {value}")
    if jobs["degraded"] > jobs["completed"]:
        _fail(f"{jpath}.degraded",
              f"degraded {jobs['degraded']} exceeds completed "
              f"{jobs['completed']}")

    from repro.service.job import RUNGS

    rungs = _require(doc, path, "rungs", dict)
    for rung in RUNGS:
        value = _require(rungs, f"{path}.rungs", rung, int)
        if value < 0:
            _fail(f"{path}.rungs.{rung}", f"negative count {value}")

    breakers = _require(doc, path, "breakers", list)
    for i, b in enumerate(breakers):
        bpath = f"{path}.breakers[{i}]"
        _require(b, bpath, "engine", str)
        state = _require(b, bpath, "state", str)
        if state not in ("closed", "open", "half-open"):
            _fail(f"{bpath}.state", f"unknown breaker state {state!r}")
        rate = _require(b, bpath, "failure_rate", numbers.Real)
        if not 0.0 <= rate <= 1.0:
            _fail(f"{bpath}.failure_rate", f"rate {rate} outside [0, 1]")
        for key in ("calls_in_window", "opened_count"):
            value = _require(b, bpath, key, int)
            if value < 0:
                _fail(f"{bpath}.{key}", f"negative count {value}")

    latency = _require(doc, path, "latency", dict)
    lpath = f"{path}.latency"
    count = _require(latency, lpath, "count", int)
    if count < 0:
        _fail(f"{lpath}.count", f"negative count {count}")
    for key in ("p50_modeled_s", "p95_modeled_s", "p50_wall_s", "p95_wall_s"):
        value = _require(latency, lpath, key, numbers.Real)
        if value < 0:
            _fail(f"{lpath}.{key}", f"negative time {value}")
    if latency["p95_modeled_s"] < latency["p50_modeled_s"]:
        _fail(f"{lpath}.p95_modeled_s", "p95 below p50")

    totals = _require(doc, path, "totals", dict)
    for key in ("modeled_seconds", "wall_spent_s"):
        value = _require(totals, f"{path}.totals", key, numbers.Real)
        if value < 0:
            _fail(f"{path}.totals.{key}", f"negative time {value}")

    batching = _require(doc, path, "batching", dict)
    bpath = f"{path}.batching"
    _require(batching, bpath, "enabled", bool)
    for key in ("batches", "batched_jobs"):
        value = _require(batching, bpath, key, int)
        if value < 0:
            _fail(f"{bpath}.{key}", f"negative count {value}")
    saved = _require(batching, bpath, "launch_seconds_saved", numbers.Real)
    if saved < 0:
        _fail(f"{bpath}.launch_seconds_saved", f"negative time {saved}")
    if batching["batched_jobs"] < 2 * batching["batches"]:
        _fail(f"{bpath}.batched_jobs",
              f"{batching['batched_jobs']} jobs across "
              f"{batching['batches']} batches (a batch has >= 2 jobs)")

    memory = _require(doc, path, "memory", dict)
    mpath = f"{path}.memory"
    _require(memory, mpath, "enabled", bool)
    for key in (
        "budget_bytes", "in_flight_bytes", "high_water_bytes",
        "rejections", "serialized", "degradations",
    ):
        value = _require(memory, mpath, key, int)
        if value < 0:
            _fail(f"{mpath}.{key}", f"negative count {value}")
    if memory["in_flight_bytes"] > memory["high_water_bytes"]:
        _fail(f"{mpath}.in_flight_bytes",
              f"{memory['in_flight_bytes']} exceeds high-water mark "
              f"{memory['high_water_bytes']}")
    if memory["enabled"] and memory["budget_bytes"] < 1:
        _fail(f"{mpath}.budget_bytes",
              "memory admission enabled with a zero budget")
    return doc


def validate_soak(doc: dict) -> dict:
    """Validate a ``BENCH_<leg>_soak.json`` document; returns ``doc``.

    Beyond types, the counts must agree with the records: ``silent`` with
    the ``silent/wrong`` verdicts, ``ok`` with the verdicts and failures.
    """
    path = "soak"
    _check_header(doc, path, SOAK_SCHEMA, SOAK_SCHEMA_VERSION)
    _require(doc, path, "leg", str)
    _require(doc, path, "summary", str)
    num_seeds = _require(doc, path, "num_seeds", int)
    records = _require(doc, path, "records", list)
    if len(records) != num_seeds:
        _fail(f"{path}.records",
              f"{len(records)} entries for num_seeds {num_seeds}")
    counts = dict.fromkeys(SOAK_VERDICTS, 0)
    for i, r in enumerate(records):
        rpath = f"{path}.records[{i}]"
        _require(r, rpath, "seed", int)
        _require(r, rpath, "details", dict)
        failures = _require(r, rpath, "failures", list)
        verdicts = _require(r, rpath, "verdicts", dict)
        for attack, verdict in verdicts.items():
            if verdict not in counts:
                _fail(f"{rpath}.verdicts.{attack}", f"unknown verdict {verdict!r}")
            counts[verdict] += 1
        wrong = sum(v == SOAK_VERDICTS[-1] for v in verdicts.values())
        if _require(r, rpath, "silent", int) != wrong:
            _fail(f"{rpath}.silent",
                  f"{r['silent']} for {wrong} {SOAK_VERDICTS[-1]} verdict(s)")
        if _require(r, rpath, "ok", bool) != (wrong == 0 and not failures):
            _fail(f"{rpath}.ok", "inconsistent with the verdicts and failures")
    if _require(doc, path, "verdicts", dict) != counts:
        _fail(f"{path}.verdicts", f"counts {doc['verdicts']} != records {counts}")
    if _require(doc, path, "silent", int) != counts[SOAK_VERDICTS[-1]]:
        _fail(f"{path}.silent", "disagrees with the records")
    ok = bool(records) and all(r["ok"] for r in records)
    if _require(doc, path, "ok", bool) != ok:
        _fail(f"{path}.ok", "inconsistent with the records")

    details = _require(doc, path, "details", dict)
    if "rates" in details:
        rates = _require(details, f"{path}.details", "rates", dict)
        rpath = f"{path}.details.rates"
        for key in ("deltas_per_second", "epochs_per_second", "speedup_vs_scratch"):
            value = _require(rates, rpath, key, numbers.Real)
            if value <= 0:
                _fail(f"{rpath}.{key}", f"must be positive, got {value}")
        frontier = _require(rates, rpath, "frontier_fraction_mean", numbers.Real)
        if not 0.0 <= frontier <= 1.0:
            _fail(f"{rpath}.frontier_fraction_mean",
                  f"fraction {frontier} outside [0, 1]")
    if "stats" in details:
        validate_service_stats(details["stats"])
    return doc


def validate_query_bench(doc: dict) -> dict:
    """Validate a ``BENCH_query.json`` document; returns ``doc``."""
    path = "query_bench"
    _check_header(doc, path, QUERY_BENCH_SCHEMA, QUERY_BENCH_SCHEMA_VERSION)
    _require(doc, path, "seed", int)
    lookups = _require(doc, path, "lookups", int)
    if lookups <= 0:
        _fail(f"{path}.lookups", f"must be positive, got {lookups}")
    readers = _require(doc, path, "readers", int)
    if readers < 1:
        _fail(f"{path}.readers", f"must be >= 1, got {readers}")
    zipf_s = _require(doc, path, "zipf_s", numbers.Real)
    if zipf_s <= 1.0:
        _fail(f"{path}.zipf_s", f"zipf exponent must be > 1, got {zipf_s}")

    mix = _require(doc, path, "op_mix", dict)
    total_mix = 0.0
    for op in ("membership", "roster", "diff"):
        frac = _require(mix, f"{path}.op_mix", op, numbers.Real)
        if not 0.0 <= frac <= 1.0:
            _fail(f"{path}.op_mix.{op}", f"fraction {frac} outside [0, 1]")
        total_mix += frac
    if abs(total_mix - 1.0) > 1e-9:
        _fail(f"{path}.op_mix", f"fractions sum to {total_mix}, want 1.0")

    graphs = _require(doc, path, "graphs", list)
    if len(graphs) < 2:
        _fail(f"{path}.graphs", "need at least two graph sizes (O(1) check)")
    seen = set()
    op_count_total = 0
    for i, g in enumerate(graphs):
        gpath = f"{path}.graphs[{i}]"
        name = _require(g, gpath, "name", str)
        if name in seen:
            _fail(f"{gpath}.name", f"duplicate graph {name!r}")
        seen.add(name)
        for key in ("num_vertices", "num_communities", "snapshot_bytes",
                    "versions"):
            value = _require(g, gpath, key, int)
            if value < 0:
                _fail(f"{gpath}.{key}", f"negative value {value}")
        ops = _require(g, gpath, "ops", dict)
        for op in ("membership", "roster", "diff"):
            o = _require(ops, f"{gpath}.ops", op, dict)
            opath = f"{gpath}.ops.{op}"
            count = _require(o, opath, "count", int)
            if count < 0:
                _fail(f"{opath}.count", f"negative count {count}")
            op_count_total += count
            for key in ("p50_us", "p99_us", "mean_us"):
                value = _require(o, opath, key, numbers.Real)
                if value < 0:
                    _fail(f"{opath}.{key}", f"negative latency {value}")
            if o["p99_us"] < o["p50_us"]:
                _fail(f"{opath}.p99_us", "p99 below p50")
    if op_count_total != lookups:
        _fail(f"{path}.lookups",
              f"{lookups} declared but per-op counts sum to {op_count_total}")

    slo = _require(doc, path, "slo", dict)
    spath = f"{path}.slo"
    budget = _require(slo, spath, "membership_p99_us", numbers.Real)
    if budget <= 0:
        _fail(f"{spath}.membership_p99_us", f"must be positive, got {budget}")
    worst = _require(slo, spath, "worst_membership_p99_us", numbers.Real)
    if worst < 0:
        _fail(f"{spath}.worst_membership_p99_us", f"negative latency {worst}")
    met = _require(slo, spath, "met", bool)
    if met != (worst <= budget):
        _fail(f"{spath}.met",
              f"verdict {met} inconsistent with worst p99 {worst} vs "
              f"budget {budget}")

    flat = _require(doc, path, "flatness", dict)
    fpath = f"{path}.flatness"
    _require(flat, fpath, "small_graph", str)
    _require(flat, fpath, "large_graph", str)
    ratio = _require(flat, fpath, "vertex_ratio", numbers.Real)
    if ratio < 10.0:
        _fail(f"{fpath}.vertex_ratio",
              f"graph sizes must be >= 10x apart, got {ratio}")
    p50_ratio = _require(flat, fpath, "membership_p50_ratio", numbers.Real)
    if p50_ratio <= 0:
        _fail(f"{fpath}.membership_p50_ratio",
              f"must be positive, got {p50_ratio}")
    bound = _require(flat, fpath, "bound", numbers.Real)
    if bound <= 1.0:
        _fail(f"{fpath}.bound", f"must exceed 1.0, got {bound}")
    _require(flat, fpath, "met", bool)
    return doc


def validate_bench(doc: dict) -> dict:
    """Validate a ``BENCH_lpa.json`` document; returns ``doc``."""
    path = "bench"
    _check_header(doc, path, BENCH_SCHEMA, BENCH_SCHEMA_VERSION)
    scale = _require(doc, path, "scale", numbers.Real)
    if scale <= 0:
        _fail(f"{path}.scale", f"must be positive, got {scale}")
    _require(doc, path, "seed", int)
    _require(doc, path, "engine", str)
    calibration = _require(doc, path, "calibration_seconds", numbers.Real)
    if calibration <= 0:
        _fail(f"{path}.calibration_seconds", f"must be positive, got {calibration}")
    device = _require(doc, path, "device", dict)
    _require(device, f"{path}.device", "name", str)
    _require(device, f"{path}.device", "sector_bytes", int)

    graphs = _require(doc, path, "graphs", list)
    if not graphs:
        _fail(f"{path}.graphs", "empty graph list")
    seen = set()
    for i, g in enumerate(graphs):
        gpath = f"{path}.graphs[{i}]"
        name = _require(g, gpath, "name", str)
        if name in seen:
            _fail(f"{gpath}.name", f"duplicate graph {name!r}")
        seen.add(name)
        for key in ("num_vertices", "num_edges", "iterations", "num_communities"):
            value = _require(g, gpath, key, int)
            if value < 0:
                _fail(f"{gpath}.{key}", f"negative value {value}")
        _require(g, gpath, "converged", bool)
        for key in (
            "modeled_seconds", "paper_modeled_seconds", "modularity",
            "wall_seconds", "wall_seconds_hashtable",
        ):
            _require(g, gpath, key, numbers.Real, allow_none=(key == "paper_modeled_seconds"))
        for key in ("modeled_seconds", "wall_seconds", "wall_seconds_hashtable"):
            if g[key] < 0:
                _fail(f"{gpath}.{key}", f"negative time {g[key]}")
        _check_counters(_require(g, gpath, "counters", dict), f"{gpath}.counters")
    return doc
