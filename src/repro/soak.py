"""One soak harness for every robustness layer: seeded attacks, four verdicts.

Every robustness layer in the repo rests on one contract, inherited from
strict-LPA determinism (Sahu, arXiv 2301.09125): after a crash, a fault,
corruption or memory pressure, the final answer is either bit-identical to
a never-attacked reference, valid with the fault signalled, or a typed
error — never silently wrong.  This module is the one place that contract
is checked.  Each attacked outcome gets one :class:`Verdict`:

``absorbed-identical``
    the attack was absorbed and the answer is bit-identical to the
    reference;
``absorbed-valid``
    the attack was absorbed and signalled, and the labels pass
    :func:`~repro.resilience.invariants.check_label_range` but differ from
    the reference (a degradation rung may perturb max-reduce ties);
``typed-error``
    the attack surfaced as a typed :class:`~repro.errors.ReproError`;
``silent/wrong``
    anything else.  :attr:`SoakReport.silent` counts these, and every
    soak must keep it at zero.

A :class:`Leg` is one attack family, driven by :func:`run_soak`'s one seed
loop through ``setup`` (once: shared references, report-level details),
``inject`` (seed *i*'s attack), ``recover`` (restart or resume over what
the attack left, returning the seed's JSON-ready outcome fields) and
``verdict`` (outcome fields → :class:`SoakRecord`).  A leg also names the
verdicts it accepts per attack and its "exercised" gate (a soak whose
attacks all miss proves nothing).  The five legs:

* :class:`ChaosLeg` — device-fault schedules plus a process crash before,
  during or after a checkpoint write (sometimes with the newest
  checkpoint corrupted while down), resumed from whatever survived;
* :class:`ServiceLeg` — process deaths between jobs and inside
  checkpoint writes of a :class:`~repro.service.DetectionService`,
  restarted over its journal;
* :class:`StreamLeg` — producer deaths around delta-log appends and
  service deaths around epoch applies of a streaming subscription;
* :class:`IntegrityLeg` — live silent-data-corruption under the guard
  stack, plus single-bit rot in a checkpoint and in a published snapshot;
* :class:`MemoryLeg` — injected OOM storms, an oversized job at
  admission, a mid-run budget shrink, and a ledger-vs-estimator
  reconciliation.

``benchmarks/bench_soak.py`` runs every leg at full size and writes one
``repro.observe/soak`` report per leg (see
:func:`~repro.observe.schema.validate_soak`).

:class:`InjectedCrash` deliberately derives from plain :class:`Exception`
rather than ``ReproError``: nothing in the library may catch it, exactly
like a SIGKILL — any over-broad handler would invalidate the soak.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import ClassVar, Protocol

import numpy as np

from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import nu_lpa
from repro.errors import (
    ConfigurationError,
    DeviceOomError,
    InvariantViolation,
    JobNotFoundError,
    MemoryPressure,
    SnapshotNotFoundError,
)
from repro.gpu.governor import ESTIMATE_TOLERANCE, footprint_for
from repro.graph.csr import CSRGraph
from repro.graph.datasets import generate_standin
from repro.integrity.config import IntegrityConfig
from repro.integrity.fsck import fsck_all
from repro.observe.schema import SOAK_SCHEMA, SOAK_SCHEMA_VERSION
from repro.observe.trace import Tracer
from repro.resilience.checkpoint import CheckpointManager, CheckpointState
from repro.resilience.faults import FAULT_KINDS, FaultSpec
from repro.resilience.invariants import check_label_range
from repro.service.job import GraphRef, JobSpec, JobState
from repro.service.journal import _safe_name
from repro.service.read import SnapshotCatalog
from repro.service.service import DetectionService, ServiceConfig
from repro.stream.delta import DeltaBatch, random_delta_batches
from repro.stream.epoch import EpochJournal
from repro.stream.log import DeltaLog
from repro.stream.processor import StreamProcessor

__all__ = [
    "Verdict",
    "Leg",
    "SoakRecord",
    "SoakReport",
    "run_soak",
    "ChaosLeg",
    "ServiceLeg",
    "StreamLeg",
    "IntegrityLeg",
    "MemoryLeg",
    "GAP_BOUND",
    "CRASH_MODES",
    "InjectedCrash",
    "CrashPoint",
    "CrashingCheckpointManager",
    "ChaosSchedule",
    "make_schedule",
    "corrupt_checkpoint",
    "flip_bit",
]


class Verdict(str, Enum):
    """How one attacked outcome ended (see the module docstring)."""

    IDENTICAL = "absorbed-identical"
    VALID = "absorbed-valid"
    TYPED_ERROR = "typed-error"
    WRONG = "silent/wrong"


_IDENTICAL = frozenset({Verdict.IDENTICAL})
_ABSORBED_OR_TYPED = frozenset(
    {Verdict.IDENTICAL, Verdict.VALID, Verdict.TYPED_ERROR}
)


@dataclass
class SoakRecord:
    """One seed's outcome: a verdict per attack plus the leg's own fields."""

    seed: int
    verdicts: dict[str, Verdict]
    #: Attacks whose verdict the leg does not accept, and bounds it broke.
    failures: list[str] = field(default_factory=list)
    #: The leg's JSON-ready outcome fields (what :meth:`Leg.recover` returned).
    details: dict = field(default_factory=dict)

    @property
    def silent(self) -> int:
        """Attacks that ended silently wrong (must be 0)."""
        return sum(v is Verdict.WRONG for v in self.verdicts.values())

    @property
    def ok(self) -> bool:
        return self.silent == 0 and not self.failures

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "seed": self.seed,
            "ok": self.ok,
            "silent": self.silent,
            "verdicts": {k: v.value for k, v in self.verdicts.items()},
            "failures": list(self.failures),
            "details": self.details,
        }


@dataclass
class SoakReport:
    """Every seed of one leg's soak."""

    leg: str
    #: Leg-level fields from :meth:`Leg.setup` (graph size, engine, ...).
    details: dict = field(default_factory=dict)
    records: list[SoakRecord] = field(default_factory=list)

    @property
    def silent(self) -> int:
        """Silent wrong answers across every seed (the hard-zero gate)."""
        return sum(r.silent for r in self.records)

    @property
    def ok(self) -> bool:
        return bool(self.records) and all(r.ok for r in self.records)

    def verdict_counts(self) -> dict[str, int]:
        counts = Counter(v for r in self.records for v in r.verdicts.values())
        return {v.value: counts[v] for v in Verdict}

    def summary(self) -> str:
        """One-line digest."""
        counts = self.verdict_counts()
        failed = sum(not r.ok for r in self.records)
        return (
            f"{len(self.records)} schedule(s): "
            f"{counts[Verdict.IDENTICAL.value]} absorbed-identical, "
            f"{counts[Verdict.VALID.value]} absorbed-valid, "
            f"{counts[Verdict.TYPED_ERROR.value]} typed-error, "
            f"{self.silent} silent, {failed} failed"
        )

    def as_dict(self) -> dict:
        """JSON-ready representation (the CI artifact body)."""
        return {
            "schema": SOAK_SCHEMA,
            "version": SOAK_SCHEMA_VERSION,
            "leg": self.leg,
            "num_seeds": len(self.records),
            "ok": self.ok,
            "silent": self.silent,
            "verdicts": self.verdict_counts(),
            "summary": self.summary(),
            "details": self.details,
            "records": [r.as_dict() for r in self.records],
        }


class Leg(Protocol):
    """One attack family driven by :func:`run_soak`."""

    name: ClassVar[str]
    #: Seeds a full soak runs (``benchmarks/bench_soak.py``'s default).
    default_seeds: ClassVar[int]
    #: Verdicts each attack may end in without failing the seed.
    accept: ClassVar[dict[str, frozenset[Verdict]]]

    def setup(self, workdir: Path) -> dict:
        """Once per soak: shared references; returns leg-level details."""

    def inject(self, i: int, workdir: Path) -> dict:
        """Seed ``i``'s attack; returns the state ``recover`` needs."""

    def recover(self, trial: dict) -> dict:
        """Restart/resume over the damage; returns the outcome fields."""

    def verdict(self, outcome: dict) -> SoakRecord:
        """Map one seed's outcome fields to verdicts."""

    def unexercised(self, records: list[SoakRecord]) -> str | None:
        """Why the attacks proved nothing, or ``None`` when they bit."""


def run_soak(leg: Leg, workdir: str | Path, *, seeds: int | None = None) -> SoakReport:
    """Run ``seeds`` (default ``leg.default_seeds``) seeded attacks of ``leg``.

    Seed *i* works in ``workdir/seed-NNN`` (left on disk for post-mortem)
    and derives every random choice from the leg's base seed and *i*, so a
    failing seed replays in isolation.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    report = SoakReport(leg=leg.name, details=leg.setup(workdir))
    for i in range(leg.default_seeds if seeds is None else seeds):
        trial = leg.inject(i, workdir / f"seed-{i:03d}")
        report.records.append(leg.verdict(leg.recover(trial)))
    return report


def _record(
    leg: Leg,
    seed: int,
    verdicts: dict[str, Verdict],
    outcome: dict,
    breaches: list[str] | None = None,
) -> SoakRecord:
    failures = [
        f"{attack}: {verdict.value}"
        for attack, verdict in verdicts.items()
        if verdict not in leg.accept[attack]
    ]
    return SoakRecord(seed, verdicts, failures + (breaches or []), outcome)


def _graph_details(graph: CSRGraph, engine: str) -> dict:
    return {
        "engine": engine,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
    }


def _valid_labels(labels: np.ndarray, graph: CSRGraph) -> bool:
    """One in-range label per vertex."""
    labels = np.asarray(labels)
    if labels.shape != (graph.num_vertices,):
        return False
    try:
        check_label_range(labels, graph.num_vertices)
    except InvariantViolation:
        return False
    return True


# --------------------------------------------------------------------- #
# Crash and corruption tools
# --------------------------------------------------------------------- #

#: Where a crash may land relative to the checkpoint write at its boundary.
CRASH_MODES = ("before-write", "mid-write", "after-write")

#: Hard cap on service restarts per seed: looping recovery must fail the
#: soak, not hang it.
_MAX_RESTARTS = 64


class InjectedCrash(Exception):
    """A simulated hard process death (kill -9 / power loss).

    Not a ``ReproError`` on purpose: no recovery path in the library is
    allowed to observe it, just as none would observe a real SIGKILL.
    """


@dataclass(frozen=True)
class CrashPoint:
    """Kill the process at checkpoint boundary ``iteration``."""

    #: The ``CheckpointState.iteration`` value whose save triggers the crash.
    iteration: int
    #: ``before-write`` (boundary reached, nothing persisted),
    #: ``mid-write`` (a partial temp file is left behind, the final name
    #: never appears — what fsync+rename guarantees a real torn write looks
    #: like), or ``after-write`` (the snapshot is durable, then death).
    mode: str = "after-write"


class CrashingCheckpointManager(CheckpointManager):
    """A :class:`CheckpointManager` that dies on cue.

    Bind it into a run via ``ResilienceConfig.checkpoint_factory``::

        crash = CrashPoint(iteration=3, mode="mid-write")
        cfg = ResilienceConfig(
            checkpoint_dir=d,
            checkpoint_factory=CrashingCheckpointManager.factory(crash),
        )
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 1,
        keep: int | None = None,
        crash: CrashPoint | None = None,
    ) -> None:
        super().__init__(directory, every=every, keep=keep)
        self.crash = crash

    @classmethod
    def factory(cls, crash: CrashPoint | None):
        """A ``checkpoint_factory`` callable binding ``crash``."""
        def build(directory, *, every: int = 1, keep: int | None = None):
            return cls(directory, every=every, keep=keep, crash=crash)

        return build

    def save(self, state: CheckpointState) -> Path:
        crash = self.crash
        if crash is None or state.iteration != crash.iteration:
            return super().save(state)
        if crash.mode == "before-write":
            raise InjectedCrash(
                f"killed at boundary {state.iteration} before the write"
            )
        if crash.mode == "mid-write":
            # A torn write under the fsync+rename protocol: a partial temp
            # file exists, the final name was never replaced.
            tmp = self.directory / f".tmp-torn-{state.iteration:06d}.npz"
            tmp.write_bytes(b"\x93NUMPY torn mid-write")
            raise InjectedCrash(
                f"killed mid-write at boundary {state.iteration}"
            )
        path = super().save(state)
        raise InjectedCrash(
            f"killed at boundary {state.iteration} after durable write to {path.name}"
        )


def corrupt_checkpoint(path: str | Path, rng: np.random.Generator) -> str:
    """Damage one checkpoint file in place; returns what was done.

    Half the time the file is truncated (unreadable container), half the
    time a run of bytes in its middle is bit-flipped (readable container,
    CRC32 mismatch) — the two corruption shapes ``latest()`` must survive.
    """
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if rng.random() < 0.5 or len(blob) < 64:
        path.write_bytes(bytes(blob[: len(blob) // 2]))
        return "truncated"
    mid = len(blob) // 2
    for i in range(mid, min(mid + 32, len(blob))):
        blob[i] ^= 0xFF
    path.write_bytes(bytes(blob))
    return "bit-flipped"


def flip_bit(path: str | Path, byte: int, bit: int) -> None:
    """Flip one bit of one file in place (the at-rest corruption)."""
    path = Path(path)
    blob = bytearray(path.read_bytes())
    blob[byte % len(blob)] ^= 1 << (bit % 8)
    path.write_bytes(bytes(blob))


def _drain_with_restarts(
    config: ServiceConfig, submit, restarted=None
) -> tuple[DetectionService, int]:
    """Drain a service, restarting it over its journal after every death.

    ``submit(service)`` runs before each drain attempt;
    ``restarted(service)`` after each restart.  Returns the surviving
    service and the number of restarts.
    """
    restarts = 0
    service = DetectionService(config)
    while True:
        try:
            submit(service)
            service.drain()
            return service, restarts
        except InjectedCrash:
            restarts += 1
            if restarts > _MAX_RESTARTS:
                raise ConfigurationError(
                    f"soak exceeded {_MAX_RESTARTS} restarts; "
                    f"recovery is looping"
                ) from None
            # The "process" dies: drop the instance, restart on the journal.
            service = DetectionService(config)
            if restarted is not None:
                restarted(service)


# --------------------------------------------------------------------- #
# Chaos: device faults + process crashes around checkpoint writes
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChaosSchedule:
    """One deterministic adversarial schedule."""

    seed: int
    fault_kinds: tuple[str, ...]
    fault_rate: float
    fault_seed: int
    max_fires: int | None
    crash: CrashPoint
    #: Additionally corrupt the newest on-disk checkpoint after the crash.
    corrupt_newest: bool

    def fault_spec(self) -> FaultSpec:
        """The schedule's injection policy as a :class:`FaultSpec`."""
        return FaultSpec(
            kinds=self.fault_kinds,
            rate=self.fault_rate,
            seed=self.fault_seed,
            max_fires=self.max_fires,
        )

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "seed": self.seed,
            "fault_kinds": list(self.fault_kinds),
            "fault_rate": self.fault_rate,
            "fault_seed": self.fault_seed,
            "max_fires": self.max_fires,
            "crash_iteration": self.crash.iteration,
            "crash_mode": self.crash.mode,
            "corrupt_newest": self.corrupt_newest,
        }


def make_schedule(
    seed: int,
    *,
    kinds: tuple[str, ...] = FAULT_KINDS,
    max_crash_iteration: int = 4,
) -> ChaosSchedule:
    """Derive one schedule deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    n_kinds = int(rng.integers(1, len(kinds) + 1))
    picked = tuple(
        sorted(rng.choice(list(kinds), size=n_kinds, replace=False).tolist())
    )
    return ChaosSchedule(
        seed=seed,
        fault_kinds=picked,
        fault_rate=float(np.round(rng.uniform(0.2, 1.0), 3)),
        fault_seed=int(rng.integers(0, 2**31)),
        max_fires=None if rng.random() < 0.5 else int(rng.integers(1, 6)),
        crash=CrashPoint(
            iteration=int(rng.integers(1, max_crash_iteration + 1)),
            mode=CRASH_MODES[int(rng.integers(len(CRASH_MODES)))],
        ),
        corrupt_newest=bool(rng.random() < 0.3),
    )


@dataclass
class ChaosLeg:
    """Randomized fault + crash schedules with a differential resume check.

    Each schedule runs three ways: the **reference** (same faults, never
    crashed, no checkpointing), the **crashed** run (checkpointing on,
    killed at the scheduled point by :class:`CrashingCheckpointManager`),
    and the **resumed** run over whatever the crash left on disk.  The
    resumed run may limp through retries and fallbacks, but it must end
    bit-identical to the reference.  Schedule *i* is
    ``make_schedule(seed + i)``.
    """

    name: ClassVar[str] = "chaos"
    default_seeds: ClassVar[int] = 25
    accept: ClassVar[dict] = {"resume": _IDENTICAL}

    graph: CSRGraph
    config: LPAConfig = field(default_factory=LPAConfig)
    engine: str = "hashtable"
    seed: int = 0
    kinds: tuple[str, ...] = FAULT_KINDS
    max_crash_iteration: int = 4

    def _run(self, spec: FaultSpec, **resilience):
        return nu_lpa(
            self.graph, self.config, engine=self.engine,
            warn_on_no_convergence=False,
            resilience=ResilienceConfig(faults=spec, **resilience),
        )

    def setup(self, workdir: Path) -> dict:
        return _graph_details(self.graph, self.engine)

    def inject(self, i: int, workdir: Path) -> dict:
        schedule = make_schedule(
            self.seed + i, kinds=self.kinds,
            max_crash_iteration=self.max_crash_iteration,
        )
        spec = schedule.fault_spec()
        trial = {
            "schedule": schedule,
            "dir": workdir,
            "reference": self._run(spec),
            "crash_fired": False,
            "corruption": "",
        }
        try:
            trial["final"] = self._run(
                spec, checkpoint_dir=workdir, checkpoint_every=1,
                checkpoint_factory=CrashingCheckpointManager.factory(schedule.crash),
            )
        except InjectedCrash:
            trial["crash_fired"] = True
            found = sorted(workdir.glob("ckpt-*.npz"))
            if schedule.corrupt_newest and found:
                trial["corruption"] = corrupt_checkpoint(
                    found[-1], np.random.default_rng(schedule.seed + 1)
                )
        return trial

    def recover(self, trial: dict) -> dict:
        schedule, reference = trial["schedule"], trial["reference"]
        final = trial.get("final")
        if trial["crash_fired"]:
            final = self._run(
                schedule.fault_spec(), checkpoint_dir=trial["dir"],
                checkpoint_every=1, resume=True,
            )
        return {
            "schedule": schedule.as_dict(),
            "crash_fired": trial["crash_fired"],
            "corruption": trial["corruption"],
            "resumed_from": final.resumed_from,
            "identical": bool(np.array_equal(final.labels, reference.labels)),
            "reference_iterations": reference.num_iterations,
            "final_iterations": final.num_iterations,
            "fault_events": len(final.fault_events),
        }

    def verdict(self, outcome: dict) -> SoakRecord:
        return _record(self, outcome["schedule"]["seed"], {
            "resume": Verdict.IDENTICAL if outcome["identical"] else Verdict.WRONG,
        }, outcome)

    def unexercised(self, records: list[SoakRecord]) -> str | None:
        # Runs that converge before their crash boundary test nothing.
        fired = sum(r.details["crash_fired"] for r in records)
        if fired < len(records) // 2:
            return f"only {fired}/{len(records)} crashes fired"
        return None


# --------------------------------------------------------------------- #
# Service: process deaths between jobs and inside checkpoint writes
# --------------------------------------------------------------------- #


@dataclass
class ServiceLeg:
    """Kill/restart schedules over the job service.

    The service's recovery contract: kill the process at any instant,
    restart it over the same journal, and every admitted job still
    completes exactly once with labels bit-identical to a crash-free run
    — no lost jobs, no duplicated completions, no drifted results.  Each
    schedule draws which jobs die right after finishing (through the
    service's ``chaos_hook``) and which die inside a checkpoint write
    (through :class:`CrashingCheckpointManager`).  Every spec must use a
    recoverable graph ref (``dataset`` or ``file``).
    """

    name: ClassVar[str] = "service"
    default_seeds: ClassVar[int] = 10
    accept: ClassVar[dict] = {"jobs": _IDENTICAL}

    specs: list[JobSpec]
    #: Service tuning shared by the reference and chaos runs; the leg
    #: fills in ``journal_dir`` / ``chaos_hook`` / ``checkpoint_factory``.
    config: ServiceConfig = field(default_factory=ServiceConfig)
    seed: int = 0
    crash_between_jobs: int = 2
    crash_in_checkpoint: int = 1

    def setup(self, workdir: Path) -> dict:
        for spec in self.specs:
            if not spec.graph.recoverable:
                raise ConfigurationError(
                    f"soak job {spec.job_id!r} uses an in-memory graph; "
                    f"only recoverable graph refs can survive a kill"
                )
        self._base = self.config.with_(
            journal_dir=None, chaos_hook=None, checkpoint_factory=None
        )
        # The crash-free reference; its stats snapshot is the clean-run
        # health document the bench archives.
        service = DetectionService(self._base, recover=False)
        for spec in self.specs:
            service.submit(spec)
        service.drain()
        self._reference = {}
        for spec in self.specs:
            record = service.result(spec.job_id)
            if record.state is not JobState.COMPLETED or record.outcome is None:
                raise ConfigurationError(
                    f"soak workload job {spec.job_id!r} does not complete even "
                    f"without crashes ({record.state.value}); fix the workload"
                )
            self._reference[spec.job_id] = record.outcome.labels.copy()
        return {"jobs_per_schedule": len(self.specs), "stats": service.stats()}

    def inject(self, i: int, workdir: Path) -> dict:
        seed = self.seed + i
        specs = self.specs
        n = len(specs)
        rng = np.random.default_rng([seed & 0x7FFFFFFF, n])

        def pick(count: int) -> set[int]:
            if count <= 0 or n == 0:
                return set()
            return set(rng.choice(n, size=min(count, n), replace=False).tolist())

        # Each scheduled death fires exactly once across restarts.
        pending_between = pick(self.crash_between_jobs)
        pending_ckpt = pick(self.crash_in_checkpoint)
        ckpt_iteration = int(rng.integers(1, 4))
        index = {spec.job_id: k for k, spec in enumerate(specs)}
        completions: dict[str, int] = {}

        def chaos_hook(point: str, record) -> None:
            if point != "job-finished":
                return
            # Duplicate-work detector: a completion observed here is real
            # executed work (recovery replays of already-completed jobs load
            # journaled labels and never come through this hook again).
            if record.state is JobState.COMPLETED:
                completions[record.job_id] = completions.get(record.job_id, 0) + 1
            idx = index.get(record.job_id, -1)
            if idx in pending_between:
                pending_between.discard(idx)
                raise InjectedCrash(
                    f"scheduled process death after job {record.job_id!r}"
                )

        def checkpoints(directory, *, every=1, keep=None):
            """Arm a mid-checkpoint crash for the scheduled jobs only."""
            directory = Path(directory)
            for idx in list(pending_ckpt):
                if directory.name.startswith(_safe_name(specs[idx].job_id)):
                    pending_ckpt.discard(idx)
                    return CrashingCheckpointManager(
                        directory, every=every, keep=keep,
                        crash=CrashPoint(iteration=ckpt_iteration, mode="after-write"),
                    )
            return CheckpointManager(directory, every=every, keep=keep)

        return {
            "seed": seed,
            "completions": completions,
            "config": self._base.with_(
                journal_dir=workdir / "journal",
                chaos_hook=chaos_hook,
                checkpoint_factory=checkpoints,
            ),
        }

    def recover(self, trial: dict) -> dict:
        submitted: set[str] = set()

        def submit(service: DetectionService) -> None:
            # A job submitted once is never resubmitted: one the journal
            # lost must show up as lost, not be silently redone.
            for spec in self.specs:
                if spec.job_id not in submitted and spec.job_id not in service.jobs:
                    service.submit(spec)
                    submitted.add(spec.job_id)

        service, restarts = _drain_with_restarts(trial["config"], submit)
        lost: list[str] = []
        mismatched: list[str] = []
        identical = 0
        for spec in self.specs:
            try:
                record = service.result(spec.job_id)
            except JobNotFoundError:
                lost.append(spec.job_id)
                continue
            if record.state is not JobState.COMPLETED or record.outcome is None:
                lost.append(spec.job_id)
            elif np.array_equal(record.outcome.labels, self._reference[spec.job_id]):
                identical += 1
            else:
                mismatched.append(spec.job_id)
        return {
            "seed": trial["seed"],
            "jobs": len(self.specs),
            "crashes": restarts,
            "restarts": restarts,
            "identical": identical,
            "lost": lost,
            "duplicated": sorted(
                j for j, c in trial["completions"].items() if c > 1
            ),
            "mismatched": mismatched,
        }

    def verdict(self, outcome: dict) -> SoakRecord:
        exact = (
            outcome["identical"] == outcome["jobs"]
            and not outcome["lost"]
            and not outcome["duplicated"]
            and not outcome["mismatched"]
        )
        return _record(self, outcome["seed"], {
            "jobs": Verdict.IDENTICAL if exact else Verdict.WRONG,
        }, outcome)

    def unexercised(self, records: list[SoakRecord]) -> str | None:
        missed = [r.seed for r in records if r.details["crashes"] < 1]
        if missed:
            return f"schedule(s) {missed} injected no deaths"
        return None


# --------------------------------------------------------------------- #
# Stream: producer deaths around appends, service deaths around epochs
# --------------------------------------------------------------------- #

#: Accuracy bound of the stream leg's differential check: the incremental
#: labels either equal the from-scratch run bit-for-bit or sit within this
#: modularity gap of it.
GAP_BOUND = 0.01

_PRODUCER_MODES = ("none", "before-append", "mid-append", "after-append")
_SERVICE_POINTS = ("pre-epoch", "mid-epoch-apply", "post-epoch")


def _produce_with_crashes(
    log_dir: Path,
    batches: list[DeltaBatch],
    modes: list[str],
) -> tuple[int, int]:
    """Write ``batches`` under per-batch producer crash ``modes``.

    Returns ``(deaths, torn_tails_repaired)``.  The producer is
    idempotent by sequence number: after any death it reopens the log and
    appends only batches past ``head_seq`` — exactly what a real producer
    keyed on the WAL acknowledgement does.
    """
    deaths = 0
    repaired = 0
    log = DeltaLog(log_dir)
    for batch, mode in zip(batches, modes):
        seq = log.head_seq + 1
        if mode == "before-append":
            deaths += 1  # died before writing anything; restart and retry
            log = DeltaLog(log_dir)
        elif mode == "mid-append":
            # Die halfway through the frame: raw partial bytes, no fsync
            # acknowledgement.  The restart open must truncate this tail.
            payload = json.dumps(
                batch.as_dict(), separators=(",", ":"), sort_keys=True
            ).encode()
            frame = struct.Struct("<4sQII").pack(
                b"DLG1", seq, len(payload), zlib.crc32(payload)
            ) + payload
            segments = sorted(log_dir.glob("segment-*.wal"))
            target = segments[-1] if segments else log_dir / "segment-000001.wal"
            with open(target, "ab") as fh:
                fh.write(frame[: max(1, len(frame) // 2)])
            deaths += 1
            log = DeltaLog(log_dir)
            repaired += len(log.repairs)
        if log.head_seq < seq:
            log.append(batch)
        if mode == "after-append":
            deaths += 1  # died after the fsync ack; restart must not redo
            log = DeltaLog(log_dir)
            assert log.head_seq >= seq
    return deaths, repaired


@dataclass
class StreamLeg:
    """Kill/restart schedules over a streaming subscription.

    Per seed: a deterministic base graph and a valid mixed delta workload;
    a crash-free **reference** stream (with the incremental-vs-scratch
    differential check); then the same workload under seeded deaths —
    producer deaths before, mid (a torn frame the next open must truncate)
    and after a log append, and service deaths at the processor's
    ``pre-epoch``, ``mid-epoch-apply`` and ``post-epoch`` points, each
    followed by a fresh service over the surviving journal.  The recovered
    labels and reconstructed CSR arrays must be bit-identical to the
    reference, and the reference gap within :data:`GAP_BOUND`.  Seed *i*
    uses graph seed ``seed + i`` and draws from ``default_rng([seed + i,
    num_batches])``.

    The default workload is the ``com-Orkut`` stand-in: dense LFR-style
    communities where warm-started incremental detection and a
    from-scratch run agree within the gap bound.  (Degenerate toys — a
    3x3 road grid, say — have many equal-modularity local optima, so the
    differential check would measure LPA's tie-breaking, not the pipeline.)
    """

    name: ClassVar[str] = "stream"
    default_seeds: ClassVar[int] = 20
    accept: ClassVar[dict] = {"stream": _IDENTICAL}

    dataset: str = "com-Orkut"
    scale: float = 0.03
    num_batches: int = 6
    batch_size: int = 5
    hops: int = 1
    service_deaths: int = 3
    seed: int = 0

    def setup(self, workdir: Path) -> dict:
        return {
            "dataset": self.dataset,
            "scale": self.scale,
            "batches_per_seed": self.num_batches,
            "batch_size": self.batch_size,
            "hops": self.hops,
        }

    def inject(self, i: int, workdir: Path) -> dict:
        num_batches = self.num_batches
        seed = self.seed + i
        rng = np.random.default_rng([seed & 0x7FFFFFFF, num_batches])
        base = generate_standin(self.dataset, scale=self.scale, seed=seed)
        batches = random_delta_batches(
            base, rng,
            num_batches=num_batches, batch_size=self.batch_size,
            grow_every=max(2, num_batches // 2),
        )

        ref_log = DeltaLog(workdir / "ref" / "wal")
        for batch in batches:
            ref_log.append(batch)
        reference = StreamProcessor(
            base, ref_log, workdir / "ref" / "epochs",
            hops=self.hops, differential_every=num_batches,
        )
        reference.recover()
        reference.run_to_head()

        chaos_dir = workdir / "chaos"
        producer_modes = [
            _PRODUCER_MODES[int(rng.integers(len(_PRODUCER_MODES)))]
            for _ in batches
        ]
        if num_batches >= 3:  # guarantee all three modes appear at least once
            slots = rng.choice(num_batches, size=3, replace=False)
            for slot, mode in zip(slots.tolist(), _PRODUCER_MODES[1:]):
                producer_modes[slot] = mode
        producer_deaths, torn = _produce_with_crashes(
            chaos_dir / "wal", batches, producer_modes
        )

        # Service-side schedule: (epoch, point) pairs, each firing once.
        schedule = {
            (int(rng.integers(1, num_batches + 1)),
             _SERVICE_POINTS[int(rng.integers(len(_SERVICE_POINTS)))])
            for _ in range(self.service_deaths)
        }
        schedule.add((max(1, num_batches // 2), "mid-epoch-apply"))  # always
        pending = dict.fromkeys(sorted(schedule), True)
        seen_epoch = {"n": 0}

        def chaos_hook(point: str, record) -> None:
            if point == "pre-epoch":
                seen_epoch["n"] += 1
            key = (seen_epoch["n"], point)
            if pending.pop(key, None):
                raise InjectedCrash(f"scheduled death at epoch {key[0]} {point}")

        return {
            "seed": seed,
            "base": base,
            "reference": reference,
            "producer_deaths": producer_deaths,
            "torn_tails": torn,
            "seen_epoch": seen_epoch,
            "spec": JobSpec(
                job_id=f"stream-{seed}",
                graph=GraphRef(kind="dataset", name=self.dataset,
                               scale=self.scale, seed=seed),
                kind="subscription",
                stream_dir=str(chaos_dir / "wal"),
                hops=self.hops,
            ),
            "config": ServiceConfig(
                journal_dir=chaos_dir / "journal", chaos_hook=chaos_hook,
            ),
        }

    def recover(self, trial: dict) -> dict:
        spec, reference = trial["spec"], trial["reference"]

        def submit(service: DetectionService) -> None:
            if spec.job_id not in service.jobs:
                service.submit(spec)

        def restarted(service: DetectionService) -> None:
            # The epoch counter is per-process state: a restarted service
            # re-runs recovery (no chaos points) and then continues from
            # the journaled epoch.
            state = EpochJournal(service.journal.stream_dir(spec.job_id)).latest()
            trial["seen_epoch"]["n"] = 0 if state is None else state.epoch

        service, restarts = _drain_with_restarts(trial["config"], submit, restarted)
        record = service.result(spec.job_id)
        done = (
            record.state is JobState.COMPLETED and record.outcome is not None
            and record.outcome.labels is not None
        )
        ref_labels, ref_graph = reference.labels, reference.graph
        # Reconstruct the chaos stream's graph and compare CSR arrays.
        verify = StreamProcessor(
            trial["base"], Path(spec.stream_dir),
            service.journal.stream_dir(spec.job_id), hops=self.hops,
        )
        verify.recover()
        return {
            "seed": trial["seed"],
            "batches": self.num_batches,
            "epochs": record.outcome.iterations if done else -1,
            "producer_deaths": trial["producer_deaths"],
            "torn_tails": trial["torn_tails"],
            "service_deaths": restarts,
            "restarts": restarts,
            "labels_identical": bool(
                done and np.array_equal(record.outcome.labels, ref_labels)
            ),
            "graph_identical": bool(
                np.array_equal(verify.graph.offsets, ref_graph.offsets)
                and np.array_equal(verify.graph.targets, ref_graph.targets)
                and np.array_equal(verify.graph.weights, ref_graph.weights)
                and np.array_equal(verify.labels, ref_labels)
            ),
            "modularity_gap": float(
                reference.last_gap if reference.last_gap is not None else 0.0
            ),
        }

    def verdict(self, outcome: dict) -> SoakRecord:
        exact = outcome["labels_identical"] and outcome["graph_identical"]
        gap = outcome["modularity_gap"]
        breaches = [f"modularity gap {gap} > {GAP_BOUND}"] if gap > GAP_BOUND else []
        return _record(self, outcome["seed"], {
            "stream": Verdict.IDENTICAL if exact else Verdict.WRONG,
        }, outcome, breaches)

    def unexercised(self, records: list[SoakRecord]) -> str | None:
        missed = [
            r.seed for r in records
            if r.details["producer_deaths"] + r.details["service_deaths"] < 1
        ]
        if missed:
            return f"seed(s) {missed} injected no deaths"
        return None


# --------------------------------------------------------------------- #
# Integrity: live silent data corruption + at-rest bit rot
# --------------------------------------------------------------------- #

#: Fault-event class names that count as a *detection* of corruption.
_DETECTIONS = ("IntegrityError", "CorruptionDetectedError", "EccError")

#: Hashtable corruption targets the live attack may draw from.
_SDC_TARGETS = ("labels", "keys", "values")


def _corruption_verdict(identical: bool, detected: bool) -> Verdict:
    if identical:
        return Verdict.IDENTICAL
    return Verdict.VALID if detected else Verdict.WRONG


@dataclass
class IntegrityLeg:
    """Live SDC plus at-rest bit rot; detected-and-recovered or harmless.

    Each seed corrupts one run three ways: ``"sdc"`` device faults flip
    labels or hashtable entries to valid-but-wrong values under the full
    :class:`~repro.integrity.config.IntegrityConfig` guard stack (the run
    must still end bit-identical to the fault-free reference); a single
    bit flips in one committed checkpoint generation (fsck and the resume
    path must detect it, or it was harmless, and a resume over the damaged
    ring must reproduce the reference); and a single bit flips in the
    newest published snapshot (``SnapshotCatalog.latest`` must detect it
    and serve the older intact version, or the flip landed in padding).
    Seed *i* draws from ``default_rng([seed, i])``.
    """

    name: ClassVar[str] = "integrity"
    default_seeds: ClassVar[int] = 20
    accept: ClassVar[dict] = {
        "live": _IDENTICAL, "checkpoint": _IDENTICAL, "snapshot": _IDENTICAL,
    }

    graph: CSRGraph
    config: LPAConfig = field(default_factory=LPAConfig)
    engine: str = "hashtable"
    seed: int = 0

    def _run(self, resilience: ResilienceConfig):
        return nu_lpa(
            self.graph, self.config, engine=self.engine,
            warn_on_no_convergence=False, resilience=resilience,
        )

    def setup(self, workdir: Path) -> dict:
        return _graph_details(self.graph, self.engine)

    def inject(self, i: int, workdir: Path) -> dict:
        rng = np.random.default_rng([self.seed, i])
        ckpt_dir = workdir / "ckpt"
        # The fault-free reference also writes the checkpoint ring the
        # at-rest attack damages.
        reference = self._run(
            ResilienceConfig(checkpoint_dir=ckpt_dir, checkpoint_every=1)
        ).labels

        n_targets = int(rng.integers(1, len(_SDC_TARGETS) + 1))
        targets = tuple(sorted(
            rng.choice(list(_SDC_TARGETS), size=n_targets, replace=False).tolist()
        ))
        spec = FaultSpec(
            kinds=("sdc",),
            rate=float(rng.uniform(0.3, 1.0)),
            seed=int(rng.integers(0, 2**31)),
            max_fires=int(rng.integers(1, 5)),
            targets=targets,
        )
        # Only a clean *retry* reproduces the reference move bit-exactly —
        # the regrow and fallback rungs recover validly but perturb
        # max-reduce tie-breaking.  Give the retry rung enough headroom to
        # outlast the bounded injection budget (max_fires <= 4 < max_retries).
        live = self._run(ResilienceConfig(
            faults=spec,
            max_retries=8,
            integrity=IntegrityConfig(scrub_interval=1, verify_interval=1),
        ))

        ckpt_flip = ""
        found = sorted(ckpt_dir.glob("ckpt-*.npz"))
        if found:
            victim = found[int(rng.integers(len(found)))]
            byte = int(rng.integers(victim.stat().st_size))
            bit = int(rng.integers(8))
            flip_bit(victim, byte, bit)
            ckpt_flip = f"{victim.name}:{byte}:{bit}"

        # v1 is a decoy (pre-propagation labels) so the fallback past a
        # damaged v2 is observable as serving *different* content.
        catalog = SnapshotCatalog(workdir / "snap")
        job_id = f"soak-{self.seed + i}"
        catalog.publish(
            job_id, np.arange(self.graph.num_vertices, dtype=np.int64), dedupe=False
        )
        newest = catalog.publish(job_id, reference, dedupe=False)
        byte = int(rng.integers(newest.stat().st_size))
        bit = int(rng.integers(8))
        flip_bit(newest, byte, bit)

        return {
            "seed": self.seed + i,
            "reference": reference,
            "live": live,
            "ckpt_dir": ckpt_dir,
            "ckpt_flip": ckpt_flip,
            "catalog": catalog,
            "job_id": job_id,
            "snap_flip": f"{newest.name}:{byte}:{bit}",
        }

    def recover(self, trial: dict) -> dict:
        reference, live = trial["reference"], trial["live"]
        # No checkpoint was written, so none was flipped: nothing to detect.
        checkpoint = {"flip": "", "detected": False, "identical": True}
        if trial["ckpt_flip"]:
            # fsck first: the resumed run rewrites the ring as it goes.
            detected = fsck_all(trial["ckpt_dir"]).damaged > 0
            resumed = self._run(ResilienceConfig(
                checkpoint_dir=trial["ckpt_dir"], checkpoint_every=1, resume=True,
            ))
            checkpoint = {
                "flip": trial["ckpt_flip"],
                "detected": detected,
                "identical": bool(np.array_equal(resumed.labels, reference)),
            }
        return {
            "seed": trial["seed"],
            "live": {
                "detections": sum(
                    1 for ev in live.fault_events if ev.fault in _DETECTIONS
                ),
                "identical": bool(np.array_equal(live.labels, reference)),
            },
            "checkpoint": checkpoint,
            "snapshot": self._serve_snapshot(trial),
            "guard": live.integrity or {},
        }

    def _serve_snapshot(self, trial: dict) -> dict:
        catalog = trial["catalog"]
        snapshot = {"flip": trial["snap_flip"], "detected": True, "identical": False}
        try:
            snap = catalog.latest(trial["job_id"])
        except SnapshotNotFoundError:
            # v1 is intact, so reaching this means the fallback is broken.
            return snapshot
        served = np.asarray(snap.labels).copy()
        version = snap.snapshot_version
        snap.close()
        snapshot["detected"] = len(catalog.skipped) > 0
        if snapshot["detected"]:
            # The fallback served the intact decoy: correct, and detected.
            snapshot["identical"] = version == 1 and bool(
                np.array_equal(served, np.arange(self.graph.num_vertices))
            )
        else:
            # No skip: the flip must have been harmless padding.
            snapshot["identical"] = version == 2 and bool(
                np.array_equal(served, trial["reference"])
            )
        return snapshot

    def verdict(self, outcome: dict) -> SoakRecord:
        live = outcome["live"]
        return _record(self, outcome["seed"], {
            "live": _corruption_verdict(live["identical"], live["detections"] > 0),
            **{
                attack: _corruption_verdict(
                    outcome[attack]["identical"], outcome[attack]["detected"]
                )
                for attack in ("checkpoint", "snapshot")
            },
        }, outcome)

    def unexercised(self, records: list[SoakRecord]) -> str | None:
        # Across all seeds at least one detection per seed: a soak of
        # harmless padding flips proves nothing.
        detected = sum(
            r.details["live"]["detections"] + r.details["checkpoint"]["detected"]
            + r.details["snapshot"]["detected"] for r in records
        )
        if detected < len(records):
            return f"only {detected} detections across {len(records)} seeds"
        return None


# --------------------------------------------------------------------- #
# Memory: OOM storms, admission, budget shrink, ledger reconciliation
# --------------------------------------------------------------------- #


def _count_ooms(events) -> int:
    return sum(1 for ev in events if ev.fault == "DeviceOomError")


@dataclass
class MemoryLeg:
    """Memory pressure: absorbed with valid labels or a typed refusal.

    Each seed pressures the graph three ways — an injected ``"oom"`` storm
    under a tight budget (absorbed by the supervisor's memory rungs), a
    service whose budget is below the job's analytic footprint (must
    refuse with :class:`~repro.errors.MemoryPressure`), and one injected
    OOM under a generous budget (the run must live in the halved ceiling
    or degrade loudly) — then reconciles a clean governed run's ledger
    against :func:`~repro.gpu.governor.footprint_for`.  Its high-water
    mark must sit inside the estimator's band: at least the exact-size
    regions (CSR + labels + hashtables) and at most the total plus
    :data:`~repro.gpu.governor.ESTIMATE_TOLERANCE`.  The estimator is an
    admission upper bound, so usage below the total is safe headroom;
    usage above it would mean admission under-prices jobs.  A governed run
    that never leaves the "full" rung must also be bit-identical to the
    unconstrained reference.  Seed *i* draws from ``default_rng([seed, i])``.
    """

    name: ClassVar[str] = "memory"
    default_seeds: ClassVar[int] = 20
    accept: ClassVar[dict] = {
        "live": _ABSORBED_OR_TYPED,
        "admission": frozenset({Verdict.TYPED_ERROR}),
        "shrink": _ABSORBED_OR_TYPED,
        "reconcile": _IDENTICAL,
    }

    graph: CSRGraph
    config: LPAConfig = field(default_factory=LPAConfig)
    engine: str = "hashtable"
    seed: int = 0

    def _run(self, config: LPAConfig, resilience: ResilienceConfig | None = None,
             tracer: Tracer | None = None):
        return nu_lpa(
            self.graph, config, engine=self.engine,
            warn_on_no_convergence=False, resilience=resilience, tracer=tracer,
        )

    def setup(self, workdir: Path) -> dict:
        self._estimate = footprint_for(
            self.graph, self.config, engine=self.engine,
            integrity=False, checkpointing=False,
        )
        self._footprint = int(self._estimate["total"])
        self._reference = self._run(self.config).labels
        return {
            **_graph_details(self.graph, self.engine),
            "tolerance": ESTIMATE_TOLERANCE,
        }

    def _storm(self, budget_factor: float, spec: FaultSpec):
        """One OOM-injected run: ``(fields, result)``, ``result`` ``None``
        when every rung was spent and the run refused with a typed error.

        ``ooms`` counts the OOMs the supervisor recorded; when the run
        raised, from the trace's ladder steps (``result.fault_events``'
        twins).
        """
        trace = Tracer()
        try:
            result = self._run(
                self.config.with_(memory_budget_bytes=int(
                    self._footprint * budget_factor
                )),
                ResilienceConfig(faults=spec, max_retries=8),
                tracer=trace,
            )
        except DeviceOomError:
            return {
                "ooms": _count_ooms(trace.of_kind("fault_rung")),
                "absorbed": False, "valid": True,
            }, None
        return {
            "ooms": _count_ooms(result.fault_events),
            "absorbed": True,
            "valid": _valid_labels(result.labels, self.graph),
        }, result

    def inject(self, i: int, workdir: Path) -> dict:
        rng = np.random.default_rng([self.seed, i])
        spec = FaultSpec(
            kinds=("oom",),
            rate=float(rng.uniform(0.2, 0.7)),
            seed=int(rng.integers(0, 2**31)),
            max_fires=int(rng.integers(1, 4)),
        )
        # Tight: real headroom above the analytic estimate, so the run
        # starts, but every injected shrink bites.
        live, result = self._storm(float(rng.uniform(1.2, 2.0)), spec)
        live["identical"] = result is not None and bool(
            np.array_equal(result.labels, self._reference)
        )

        budget = max(1, self._footprint // 2)
        admission = {
            "rejected": False,
            "estimate_bytes": self._footprint,
            "budget_bytes": budget,
        }
        service = DetectionService(ServiceConfig(
            lpa=self.config, memory_budget_bytes=budget,
        ))
        try:
            service.submit_graph(
                self.graph, f"memsoak-{self.seed + i}", engine=self.engine
            )
        except MemoryPressure as exc:
            admission = {
                "rejected": True,
                "estimate_bytes": int(exc.estimate_bytes),
                "budget_bytes": int(exc.budget_bytes),
            }

        # Generous budget, one mid-run shrink.
        shrink, _ = self._storm(4.0, FaultSpec(
            kinds=("oom",),
            rate=float(rng.uniform(0.1, 0.4)),
            seed=int(rng.integers(0, 2**31)),
            max_fires=1,
        ))
        return {
            "seed": self.seed + i,
            "live": live,
            "admission": admission,
            "shrink": shrink,
            # Governor stats of the live run (ledger counters, rungs).
            "memory": (result.memory or {}) if result is not None else {},
        }

    def recover(self, trial: dict) -> dict:
        """Reconcile a clean governed run's ledger with the estimator.

        ``deviation`` is the one-sided distance outside the band
        [exact-size regions, total] as a fraction of the total: a
        high-water mark anywhere inside the band is 0.0.
        """
        estimate = self._estimate
        total = self._footprint
        floor = int(estimate["csr"] + estimate["labels"] + estimate["hashtable"])
        result = self._run(self.config.with_(memory_budget_bytes=total * 4))
        high_water = int((result.memory or {}).get("high_water_bytes", 0))
        deviation = max(high_water - total, floor - high_water, 0) / max(1, total)
        return {
            **trial,
            "reconcile": {
                "estimate_bytes": total,
                "high_water_bytes": high_water,
                "deviation": float(deviation),
                # How much of the conservative estimate a real run used.
                "utilization": float(high_water / max(1, total)),
                "within_tolerance": deviation <= ESTIMATE_TOLERANCE,
                "identical": bool(np.array_equal(result.labels, self._reference)),
            },
        }

    def verdict(self, outcome: dict) -> SoakRecord:
        def storm(attack: dict) -> Verdict:
            if not attack["absorbed"]:
                return Verdict.TYPED_ERROR
            if not attack["valid"]:
                return Verdict.WRONG
            return Verdict.IDENTICAL if attack.get("identical") else Verdict.VALID

        reconcile = outcome["reconcile"]
        breaches = [] if reconcile["within_tolerance"] else [
            f"ledger deviation {reconcile['deviation']:.3f} outside the "
            f"estimator band (tolerance {ESTIMATE_TOLERANCE})"
        ]
        return _record(self, outcome["seed"], {
            "live": storm(outcome["live"]),
            "admission": (
                Verdict.TYPED_ERROR if outcome["admission"]["rejected"]
                else Verdict.WRONG
            ),
            "shrink": storm(outcome["shrink"]),
            "reconcile": (
                Verdict.IDENTICAL if reconcile["identical"] else Verdict.WRONG
            ),
        }, outcome, breaches)

    def unexercised(self, records: list[SoakRecord]) -> str | None:
        # Real pressure, not no-op budgets: OOMs must actually fire.
        ooms = sum(
            r.details["live"]["ooms"] + r.details["shrink"]["ooms"] for r in records
        )
        if ooms < len(records):
            return f"only {ooms} OOM events across {len(records)} seeds"
        return None
