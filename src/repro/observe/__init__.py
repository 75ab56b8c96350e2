"""Structured observability for the simulated GPU (tracing + profiling).

Three layers:

* :mod:`repro.observe.trace` — :class:`Tracer` and the typed event records
  emitted by the engines, the driver, and the resilience supervisor;
* :mod:`repro.observe.profile` — :class:`RunProfile`, the per-kernel /
  per-iteration aggregation priced through :mod:`repro.perf.model`;
* :mod:`repro.observe.schema` — versioned JSON schemas and validators for
  profile documents and ``BENCH_*.json`` regression baselines.

Entry points: ``nu_lpa(..., profile=True)`` / ``nu_lpa(..., tracer=t)``,
the CLI's ``--profile`` / ``--trace-out``, and
``benchmarks/bench_profile_trajectory.py``.  See docs/observability.md.

The package exports lazily (PEP 562): the engines import
:mod:`repro.observe.trace` on their hot path, and resolving profile/schema
names eagerly here would drag :mod:`repro.perf` (and through it the
baselines) into that import, creating a cycle back into the engines.
"""

from repro.observe.trace import (
    BreakerEvent,
    ConvergenceEvent,
    EpochEvent,
    FaultRungEvent,
    IterationEvent,
    JobEvent,
    KernelLaunchEvent,
    MemoryEvent,
    OomEvent,
    QueryEvent,
    QueryStatsEvent,
    ServiceStatsEvent,
    Tracer,
    TraceEvent,
    WaveBatchEvent,
    WaveEvent,
    counter_delta,
)

__all__ = [
    "Tracer",
    "TraceEvent",
    "KernelLaunchEvent",
    "WaveEvent",
    "IterationEvent",
    "FaultRungEvent",
    "ConvergenceEvent",
    "JobEvent",
    "MemoryEvent",
    "OomEvent",
    "BreakerEvent",
    "ServiceStatsEvent",
    "EpochEvent",
    "WaveBatchEvent",
    "QueryEvent",
    "QueryStatsEvent",
    "counter_delta",
    "RunProfile",
    "IterationProfile",
    "KernelProfile",
    "build_profile",
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
    "validate_profile",
    "validate_bench",
    "validate_service_stats",
    "validate_query_bench",
    "validate_soak",
]

_PROFILE_NAMES = {"RunProfile", "IterationProfile", "KernelProfile", "build_profile"}
_SCHEMA_NAMES = {
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
    "validate_profile",
    "validate_bench",
    "validate_service_stats",
    "validate_query_bench",
    "validate_soak",
}


def __getattr__(name: str):
    if name in _PROFILE_NAMES:
        from repro.observe import profile

        return getattr(profile, name)
    if name in _SCHEMA_NAMES:
        from repro.observe import schema

        return getattr(schema, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
