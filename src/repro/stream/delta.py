"""Delta batches: the validated unit of graph mutation.

A :class:`DeltaBatch` is an ordered sequence of edge mutations —
``add`` / ``remove`` / ``update`` — plus an optional grow-only vertex-count
declaration.  Batches are immutable and JSON-round-trippable because the
write-ahead log (:mod:`repro.stream.log`) journals them verbatim and crash
recovery replays them.

Validation reuses the hardening layer's three policies
(:data:`repro.resilience.validate.POLICIES`):

``strict``
    Any malformed op raises :class:`~repro.errors.DeltaValidationError`
    carrying the full :class:`DeltaValidationReport`; nothing is applied.
``repair``
    Weight defects get the same value-preserving fixes the graph sweep
    applies (NaN → 1.0, overflow → fp32 max, negative → 0); ops with no
    unambiguous fix (unknown kind, endpoint out of range) are quarantined.
``quarantine``
    Every offending op is dropped to the :class:`DeadLetterFile` with
    machine-readable reasons — never silently discarded.

Graph-*dependent* defects (removing an edge the graph does not have) are
checked at apply time by :func:`repro.stream.epoch.apply_batch`, which
funnels them through the same report and dead-letter plumbing.
"""

from __future__ import annotations

import bisect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import DeltaValidationError
from repro.graph.csr import CSRGraph
from repro.resilience.validate import (
    FP32_MAX,
    ValidationIssue,
    check_policy,
)

__all__ = [
    "OPS",
    "DeltaOp",
    "DeltaBatch",
    "DeltaValidationReport",
    "DeadLetterFile",
    "validate_batch",
    "random_delta_batches",
]

#: Mutation kinds a batch may carry.
OPS = ("add", "remove", "update")


@dataclass(frozen=True)
class DeltaOp:
    """One edge mutation.

    ``add`` inserts the undirected edge (both arcs; weight defaults to
    1.0), ``remove`` deletes it, ``update`` replaces its weight (weight
    required).  Self-loops are legal; the CSR layer stores them as single
    arcs.
    """

    op: str
    src: int
    dst: int
    weight: float | None = None

    def as_dict(self) -> dict:
        """JSON-ready representation (the WAL payload element)."""
        return {"op": self.op, "src": self.src, "dst": self.dst,
                "weight": self.weight}

    @classmethod
    def from_dict(cls, raw: dict) -> "DeltaOp":
        w = raw.get("weight")
        return cls(
            op=str(raw["op"]),
            src=int(raw["src"]),
            dst=int(raw["dst"]),
            weight=None if w is None else float(w),
        )

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.src, self.dst)


@dataclass(frozen=True)
class DeltaBatch:
    """One atomic batch of mutations, applied in order.

    ``num_vertices`` optionally declares the vertex count *after* the
    batch; it may only grow the graph (new vertices start isolated and
    take their own id as initial label).
    """

    ops: tuple[DeltaOp, ...] = ()
    num_vertices: int | None = None

    def __len__(self) -> int:
        return len(self.ops)

    def count(self, kind: str) -> int:
        """Number of ops of one kind."""
        return sum(1 for op in self.ops if op.op == kind)

    def as_dict(self) -> dict:
        return {
            "ops": [op.as_dict() for op in self.ops],
            "num_vertices": self.num_vertices,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "DeltaBatch":
        n = raw.get("num_vertices")
        return cls(
            ops=tuple(DeltaOp.from_dict(o) for o in raw["ops"]),
            num_vertices=None if n is None else int(n),
        )

    @classmethod
    def from_arrays(
        cls,
        op: str,
        src,
        dst,
        weights=None,
        *,
        num_vertices: int | None = None,
    ) -> "DeltaBatch":
        """Build a single-kind batch from parallel edge arrays."""
        src = np.asarray(src).ravel()
        dst = np.asarray(dst).ravel()
        if weights is None:
            ws = [None] * src.shape[0]
        else:
            ws = [float(w) for w in np.asarray(weights).ravel()]
        return cls(
            ops=tuple(
                DeltaOp(op=op, src=int(s), dst=int(d), weight=w)
                for s, d, w in zip(src.tolist(), dst.tolist(), ws)
            ),
            num_vertices=num_vertices,
        )


@dataclass
class DeltaValidationReport:
    """Machine-readable outcome of validating (and applying) one batch.

    The shape mirrors :class:`repro.resilience.validate.ValidationReport`
    — same issue records, same ``ok`` contract — scoped to ops instead of
    arcs.
    """

    policy: str
    ops_in: int = 0
    ops_out: int = 0
    repaired_ops: int = 0
    quarantined_ops: int = 0
    issues: list[ValidationIssue] = field(default_factory=list)

    def append(self, issue: ValidationIssue) -> None:
        self.issues.append(issue)

    @property
    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity == "error"]

    @property
    def unresolved_errors(self) -> list[ValidationIssue]:
        return [i for i in self.errors if i.action == "reported"]

    @property
    def ok(self) -> bool:
        return not self.unresolved_errors

    def by_code(self) -> dict[str, int]:
        return {i.code: i.count for i in self.issues}

    def summary(self) -> str:
        if not self.issues:
            return f"clean ({self.policy}): {self.ops_in} op(s), no issues"
        parts = ", ".join(f"{i.code}={i.count}[{i.action}]" for i in self.issues)
        return (f"{self.policy}: {parts}; ops {self.ops_in} -> {self.ops_out}, "
                f"{self.repaired_ops} repaired, "
                f"{self.quarantined_ops} quarantined")

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "ok": self.ok,
            "ops_in": self.ops_in,
            "ops_out": self.ops_out,
            "repaired_ops": self.repaired_ops,
            "quarantined_ops": self.quarantined_ops,
            "issues": [i.as_dict() for i in self.issues],
        }


class DeadLetterFile:
    """Append-only JSONL record of quarantined ops.

    One line per quarantined op: the batch sequence number, the op
    verbatim, and the machine-readable reason codes — so an operator can
    replay repaired deltas later instead of losing them.  Appends are
    fsynced; the file only ever grows, so a torn final line (crash
    mid-append) is detectable and everything before it is intact.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, seq: int | None, op: DeltaOp, reasons: list[str]) -> None:
        """Durably record one quarantined op."""
        line = json.dumps({
            "seq": seq,
            "op": op.as_dict(),
            "reasons": list(reasons),
        }, separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def entries(self) -> list[dict]:
        """All readable entries, in append order (torn tail skipped)."""
        if not self.path.is_file():
            return []
        out: list[dict] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                break  # torn final line from a crash mid-append
        return out

    def __len__(self) -> int:
        return len(self.entries())


def _op_reasons(op: DeltaOp, effective_n: int) -> list[str]:
    """Structural defect codes of one op (empty list = structurally ok)."""
    reasons: list[str] = []
    if op.op not in OPS:
        reasons.append("unknown-op")
        return reasons  # endpoints of an unknown op are meaningless
    if op.src < 0 or op.dst < 0:
        reasons.append("negative-endpoint")
    elif op.src >= effective_n or op.dst >= effective_n:
        reasons.append("endpoint-out-of-range")
    if op.op == "update" and op.weight is None:
        reasons.append("missing-weight")
    if op.weight is not None:
        w = float(op.weight)
        if np.isnan(w):
            reasons.append("nan-weight")
        elif w > FP32_MAX:
            reasons.append("inf-weight")
        elif w < 0:
            reasons.append("negative-weight")
    return reasons


#: Defect codes a value-preserving repair exists for (weight rewrites).
_REPAIRABLE = {"nan-weight", "inf-weight", "negative-weight"}


def _repair_weight(op: DeltaOp) -> DeltaOp:
    """The weight-defect repair (matches ``repair_weight_values``)."""
    w = float(op.weight)
    if np.isnan(w):
        fixed = 1.0
    elif w > FP32_MAX:
        fixed = FP32_MAX
    else:
        fixed = 0.0
    return DeltaOp(op=op.op, src=op.src, dst=op.dst, weight=fixed)


def validate_batch(
    batch: DeltaBatch,
    *,
    graph_vertices: int,
    policy: str = "strict",
    dead_letter: DeadLetterFile | None = None,
    seq: int | None = None,
) -> tuple[DeltaBatch, DeltaValidationReport]:
    """Validate one batch against ``policy``; returns ``(clean, report)``.

    ``graph_vertices`` is the vertex count *before* the batch; endpoints
    must lie inside ``max(graph_vertices, batch.num_vertices)``.  Under
    ``strict`` any defect raises :class:`DeltaValidationError` (nothing is
    written to the dead letter — the caller still holds the whole batch).
    Under ``repair``/``quarantine`` offending ops are fixed or dropped,
    dropped ops going to ``dead_letter`` when one is given.
    """
    check_policy(policy)
    report = DeltaValidationReport(policy=policy, ops_in=len(batch.ops))

    num_vertices = batch.num_vertices
    if num_vertices is not None and num_vertices < graph_vertices:
        detail = (f"declared num_vertices {num_vertices} would shrink the "
                  f"graph ({graph_vertices} vertices)")
        if policy == "strict":
            report.append(ValidationIssue(
                "shrinking-vertex-set", "error", 1, detail))
        else:
            # The only safe reading is "no growth": keep current size.
            report.append(ValidationIssue(
                "shrinking-vertex-set", "error", 1, detail, "repaired"))
            num_vertices = None
    effective_n = max(graph_vertices, num_vertices or 0)

    kept: list[DeltaOp] = []
    counts: dict[str, int] = {}
    first_detail: dict[str, str] = {}
    for op in batch.ops:
        reasons = _op_reasons(op, effective_n)
        if not reasons:
            kept.append(op)
            continue
        repairable = set(reasons) <= _REPAIRABLE
        for code in reasons:
            counts[code] = counts.get(code, 0) + 1
            first_detail.setdefault(
                code, f"first: {op.op} {op.src}-{op.dst} weight={op.weight}"
            )
        if policy == "strict":
            continue  # reported below, then raised
        if policy == "repair" and repairable:
            kept.append(_repair_weight(op))
            report.repaired_ops += 1
        else:
            report.quarantined_ops += 1
            if dead_letter is not None:
                dead_letter.append(seq, op, reasons)

    for code, count in counts.items():
        if policy == "strict":
            action = "reported"
        elif policy == "repair" and code in _REPAIRABLE:
            action = "repaired"
        else:
            action = "quarantined"
        report.append(ValidationIssue(
            code, "error", count,
            f"{count} op(s) with {code} ({first_detail[code]})", action,
        ))

    report.ops_out = len(kept)
    if policy == "strict" and report.errors:
        raise DeltaValidationError(
            f"delta batch failed strict validation: {report.summary()}",
            report=report,
        )
    clean = DeltaBatch(ops=tuple(kept), num_vertices=num_vertices)
    return clean, report


def random_delta_batches(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    num_batches: int = 6,
    batch_size: int = 5,
    grow_every: int = 0,
) -> list[DeltaBatch]:
    """A valid mixed workload of delta batches against ``graph``.

    Tracks the evolving edge set so every remove/update names an edge
    that exists at its point in the sequence (the soak exercises crash
    recovery, not quarantine).  ``grow_every`` > 0 adds one new vertex
    (wired to a random existing one) every that many batches.  The set is
    also kept as one sorted list, updated by bisection, from which removes
    and updates draw their edge by index.
    """
    edges: set[tuple[int, int]] = set()
    for s, d in zip(graph.source_ids().tolist(), graph.targets.tolist()):
        edges.add((min(s, d), max(s, d)))
    ordered = sorted(edges)
    n = graph.num_vertices
    batches: list[DeltaBatch] = []
    for b in range(num_batches):
        ops: list[DeltaOp] = []
        num_vertices = None
        if grow_every and (b + 1) % grow_every == 0:
            anchor = int(rng.integers(n))
            ops.append(DeltaOp("add", anchor, n, weight=1.0))
            edges.add((anchor, n))
            bisect.insort(ordered, (anchor, n))
            num_vertices = n + 1
            n += 1
        while len(ops) < batch_size:
            kind = ("add", "remove", "update")[int(rng.integers(3))]
            if kind == "add":
                a, c = int(rng.integers(n)), int(rng.integers(n))
                key = (min(a, c), max(a, c))
                if a == c or key in edges:
                    continue
                edges.add(key)
                bisect.insort(ordered, key)
                ops.append(DeltaOp("add", a, c, weight=float(rng.uniform(0.5, 2.0))))
            elif not edges:
                continue
            else:
                index = int(rng.integers(len(edges)))
                key = ordered[index]
                if kind == "remove":
                    edges.discard(key)
                    del ordered[index]
                    ops.append(DeltaOp("remove", key[0], key[1]))
                else:
                    ops.append(DeltaOp(
                        "update", key[0], key[1],
                        weight=float(rng.uniform(0.5, 2.0)),
                    ))
        batches.append(DeltaBatch(ops=tuple(ops), num_vertices=num_vertices))
    return batches
