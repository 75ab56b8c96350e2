"""Epoch-versioned CSR application and the durable epoch journal.

Applying batch *k* to the epoch-``k-1`` graph produces the epoch-``k``
graph plus the ``touched`` vertex set that seeds warm-started
re-detection.  Application is **deterministic**: the same batch sequence
over the same base graph yields bit-identical CSR arrays, which is why an
epoch snapshot only needs to store *labels* — a recovering processor
reconstructs the graph by replaying the log.

Application is one pass over the ops and one splice of the CSR, so its
cost follows the batch, not |E|.  The ops replay in order on a per-arc
overlay: an existing arc is found by bisecting its source's row, ``add``
combines with ``max`` (both arcs, a self-loop is one), ``update`` is
last-write-wins and ``remove`` drops both arcs.  The splice then copies
the arrays once: removed arcs dropped, changed weights overwritten, new
arcs inserted at their sorted place in the row, offsets shifted by the
per-row degree changes.  A graph whose rows are unsorted or hold parallel
arcs is first sorted and max-deduplicated, as the builders do, when the
batch adds an edge or grows the vertex set.  Graph-dependent defects —
removing or updating an edge the current graph does not have — are
quarantined (or raised under ``strict``) through the same
report/dead-letter plumbing as structural validation.

:class:`EpochJournal` persists one labels snapshot per epoch with the
checkpoint layer's discipline: CRC32 in the meta blob, temp-file fsync,
atomic rename, directory fsync, newest-readable-wins fallback on load.
"""

from __future__ import annotations

import json
import os
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import DeltaValidationError, StreamError
from repro.graph.build import coo_to_csr, deduplicate_edges
from repro.graph.csr import CSRGraph
from repro.resilience.checkpoint import _fsync_dir
from repro.resilience.validate import ValidationIssue
from repro.stream.delta import (
    DeadLetterFile,
    DeltaBatch,
    DeltaOp,
    DeltaValidationReport,
    validate_batch,
)
from repro.types import OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = ["ApplyOutcome", "apply_batch", "EpochState", "EpochJournal"]

#: Bump when the epoch snapshot schema changes incompatibly.
_SCHEMA_VERSION = 1

_PREFIX = "epoch-"
_SUFFIX = ".npz"


@dataclass
class ApplyOutcome:
    """Result of applying one batch."""

    graph: CSRGraph
    #: Unique endpoints of every applied op (sorted int64).
    touched: np.ndarray
    report: DeltaValidationReport
    added: int = 0
    removed: int = 0
    updated: int = 0


def _find(graph: CSRGraph, a: int, b: int) -> tuple[np.ndarray, int]:
    """Positions of the arcs ``a -> b`` and where a new one would go.

    A canonical row is bisected (zero or one hit, plus the sorted insert
    position); any other row is scanned and every parallel copy returned.
    Rows past ``graph.num_vertices`` (vertices the batch grows) are empty.
    """
    if a >= graph.num_vertices:
        return np.empty(0, dtype=np.int64), graph.num_edges
    lo, hi = int(graph.offsets[a]), int(graph.offsets[a + 1])
    row = graph.targets[lo:hi]
    if not graph.is_canonical:
        return lo + np.flatnonzero(row == b), hi
    at = lo + int(np.searchsorted(row, b))
    if at < hi and int(graph.targets[at]) == b:
        return np.array([at], dtype=np.int64), at
    return np.empty(0, dtype=np.int64), at


class _Overlay:
    """The batch's arc states over an immutable graph.

    ``arcs`` maps ``(src, dst)`` to the arc's weight after the ops so far
    (``None``: removed); arcs not in it keep their state in ``graph``.
    Adds and updates are held until their run of same-kind ops ends, then
    folded forward arcs first, reverse arcs second.  That is the order a
    whole-run rebuild (:func:`~repro.graph.transform.add_edges` or
    :func:`~repro.graph.transform.update_weights` over the run's edge
    arrays) combines them in, so last-write-wins and ``+0.0``/``-0.0``
    ties in the ``max`` resolve exactly as there.
    """

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.arcs: dict[tuple[int, int], np.float32 | None] = {}
        self._kind: str | None = None
        self._forward: list[tuple[tuple[int, int], np.float32]] = []
        self._reverse: list[tuple[tuple[int, int], np.float32]] = []

    def exists(self, a: int, b: int) -> bool:
        if (a, b) in self.arcs:
            return self.arcs[(a, b)] is not None
        return _find(self.graph, a, b)[0].shape[0] > 0

    def begin(self, kind: str) -> None:
        """Start the next op; a change of kind ends the current run.

        Called for every op, applicable or not: a skipped op still splits
        the runs around it.
        """
        if kind != self._kind:
            self.flush()
            self._kind = kind

    def apply(self, op: DeltaOp) -> None:
        """Record one applicable op (an add, or a remove/update of a live arc)."""
        a, b = op.src, op.dst
        if op.op == "remove":
            self.arcs[(a, b)] = self.arcs[(b, a)] = None
            return
        w = WEIGHT_DTYPE(1.0 if op.weight is None else op.weight)
        self._forward.append(((a, b), w))
        if a != b:
            self._reverse.append(((b, a), w))

    def flush(self) -> None:
        """End the current run: fold its held adds or updates."""
        held = self._forward + self._reverse
        self._forward, self._reverse = [], []
        if self._kind == "update":
            for arc, w in held:
                if self.exists(*arc):
                    self.arcs[arc] = w
        elif self._kind == "add":
            combine: dict[tuple[int, int], list] = {}
            for arc, w in held:
                combine.setdefault(arc, []).append(w)
            for arc, ws in combine.items():
                if arc in self.arcs:
                    current = [] if self.arcs[arc] is None else [self.arcs[arc]]
                else:
                    current = self.graph.weights[_find(self.graph, *arc)[0]].tolist()
                # One reduce over the same ordered values numpy's segmented
                # max saw, so even its vectorised tie order is reproduced.
                self.arcs[arc] = np.maximum.reduce(
                    np.asarray(current + ws, dtype=WEIGHT_DTYPE)
                )
        self._kind = None


def _splice(
    graph: CSRGraph,
    num_vertices: int,
    arcs: dict[tuple[int, int], np.float32 | None],
    *,
    offsets_dtype: np.dtype,
    targets_dtype: np.dtype,
) -> CSRGraph:
    """``graph`` with the overlay ``arcs`` written in, arrays copied once.

    Inserts only happen on canonical graphs (an add canonicalises first),
    so a new arc's sorted position in its row is well defined.
    """
    n, m = graph.num_vertices, graph.num_edges
    drop: list[int] = []
    rewrite: dict[int, np.float32] = {}
    insert: list[tuple[int, int, int, np.float32]] = []
    degree_change: dict[int, int] = {}
    for (a, b), w in arcs.items():
        found, at = _find(graph, a, b)
        if w is None:
            drop.extend(found.tolist())
            if found.shape[0]:
                degree_change[a] = degree_change.get(a, 0) - found.shape[0]
        elif found.shape[0]:
            rewrite.update(dict.fromkeys(found.tolist(), w))
        else:
            insert.append((at, a, b, w))
            degree_change[a] = degree_change.get(a, 0) + 1

    targets, weights = graph.targets, graph.weights
    if not drop and not insert:
        new_targets = targets.astype(targets_dtype, copy=False)
        new_weights = weights.copy()
        for pos, w in rewrite.items():
            new_weights[pos] = w
    else:
        # Merge the edits in base order and copy the spans between them.
        # Kind 0 inserts before the base arc at its position (in row, then
        # target order); kind 1 drops (w None) or re-weights that arc.
        edits = sorted(
            [(at, 0, a, b, w) for at, a, b, w in insert]
            + [(pos, 1, 0, 0, None) for pos in drop]
            + [(pos, 1, 0, 0, w) for pos, w in rewrite.items()]
        )
        size = m - len(drop) + len(insert)
        new_targets = np.empty(size, dtype=targets_dtype)
        new_weights = np.empty(size, dtype=WEIGHT_DTYPE)
        src = dst = 0
        for pos, kind, _, b, w in edits:
            span = pos - src
            new_targets[dst:dst + span] = targets[src:pos]
            new_weights[dst:dst + span] = weights[src:pos]
            src, dst = pos, dst + span
            if kind == 0:
                new_targets[dst], new_weights[dst] = b, w
                dst += 1
            elif w is None:
                src += 1
            else:
                new_targets[dst], new_weights[dst] = targets[src], w
                src, dst = src + 1, dst + 1
        new_targets[dst:] = targets[src:]
        new_weights[dst:] = weights[src:]

    if num_vertices == n and not degree_change:
        new_offsets = graph.offsets.astype(offsets_dtype, copy=False)
    else:
        new_offsets = np.empty(num_vertices + 1, dtype=offsets_dtype)
        new_offsets[: n + 1] = graph.offsets
        new_offsets[n + 1:] = m
        rows = sorted(r for r, d in degree_change.items() if d)
        shift = 0
        for r, stop in zip(rows, rows[1:] + [num_vertices]):
            shift += degree_change[r]
            new_offsets[r + 1: stop + 1] += shift
    return CSRGraph(
        new_offsets, new_targets, new_weights, validate=False,
        canonical=True if graph.is_canonical else None,
    )


def apply_batch(
    graph: CSRGraph,
    batch: DeltaBatch,
    *,
    policy: str = "strict",
    dead_letter: DeadLetterFile | None = None,
    seq: int | None = None,
) -> ApplyOutcome:
    """Apply one batch to an immutable CSR graph under ``policy``.

    Returns a new graph (the input is never mutated; with nothing to
    apply, the input itself), the ``touched`` vertex set, and the combined
    validation/application report.  Under ``strict`` a graph-dependent
    defect (``missing-edge``) raises
    :class:`~repro.errors.DeltaValidationError` *before* anything is
    built, so a strict stream either applies a batch whole or not at all.
    """
    clean, report = validate_batch(
        batch,
        graph_vertices=graph.num_vertices,
        policy=policy,
        dead_letter=dead_letter,
        seq=seq,
    )
    target_n = max(graph.num_vertices, clean.num_vertices or 0)

    # Replay the ops in order: every remove/update must name an arc that
    # exists at its point in the sequence.
    overlay = _Overlay(graph)
    applied: list[DeltaOp] = []
    missing: list[tuple[DeltaOp, str]] = []
    for op in clean.ops:
        overlay.begin(op.op)
        if op.op != "add" and not overlay.exists(op.src, op.dst):
            missing.append((op, "missing-edge"))
            continue
        overlay.apply(op)
        applied.append(op)
    overlay.flush()

    if missing:
        detail = (f"{len(missing)} op(s) name an edge the graph does not "
                  f"have (first: {missing[0][0].op} "
                  f"{missing[0][0].src}-{missing[0][0].dst})")
        if policy == "strict":
            report.append(ValidationIssue(
                "missing-edge", "error", len(missing), detail))
            raise DeltaValidationError(
                f"delta batch failed strict application: {report.summary()}",
                report=report,
            )
        report.append(ValidationIssue(
            "missing-edge", "error", len(missing), detail, "quarantined"))
        report.quarantined_ops += len(missing)
        report.ops_out -= len(missing)
        if dead_letter is not None:
            for op, reason in missing:
                dead_letter.append(seq, op, [reason])

    counts = {kind: sum(1 for op in applied if op.op == kind)
              for kind in ("add", "remove", "update")}
    touched = {v for op in applied for v in op.endpoints}
    grows = target_n > graph.num_vertices
    out = graph
    if grows or applied:
        # The dtypes the per-kind rebuilds produced: an add or growth
        # rebuilds everything wide, a remove rebuilds the offsets wide.
        rebuilt = grows or counts["add"] > 0
        base = graph
        if rebuilt and not graph.is_canonical:
            base = coo_to_csr(*deduplicate_edges(
                graph.source_ids(), graph.targets, graph.weights,
                num_vertices=target_n, combine="max",
            ), target_n)
        out = _splice(
            base, target_n, overlay.arcs,
            offsets_dtype=(OFFSET_DTYPE if rebuilt or counts["remove"]
                           else graph.offsets.dtype),
            targets_dtype=VERTEX_DTYPE if rebuilt else graph.targets.dtype,
        )

    return ApplyOutcome(
        graph=out,
        touched=np.asarray(sorted(touched), dtype=np.int64),
        report=report,
        added=counts["add"],
        removed=counts["remove"],
        updated=counts["update"],
    )


# --------------------------------------------------------------------- #
# Epoch journal
# --------------------------------------------------------------------- #


@dataclass
class EpochState:
    """One journaled epoch: the labels at a graph version.

    ``epoch`` equals the sequence number of the last applied batch
    (epoch 0 is the initial full detection on the base graph); the graph
    itself is reconstructed by replaying the delta log, so only labels
    are stored.
    """

    epoch: int
    labels: np.ndarray
    num_vertices: int = 0
    num_edges: int = 0
    #: |Q_incremental - Q_scratch| of the differential check at this
    #: epoch (``None`` when the check did not run).
    modularity_gap: float | None = None


class EpochJournal:
    """Durable, CRC-verified labels snapshots, one per epoch.

    Same discipline as :class:`~repro.resilience.checkpoint.CheckpointManager`:
    fsync + atomic rename on save, per-array CRC32 verified on load,
    :meth:`latest` falls back generation-by-generation past damage, and a
    ``keep=N`` ring prunes superseded epochs.
    """

    def __init__(self, directory: str | Path, *, keep: int | None = None) -> None:
        if keep is not None and keep < 1:
            raise StreamError(f"epoch keep must be >= 1 or None; got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        #: ``(path, reason)`` of snapshots :meth:`latest` skipped.
        self.skipped: list[tuple[Path, str]] = []

    def path_for(self, epoch: int) -> Path:
        return self.directory / f"{_PREFIX}{epoch:06d}{_SUFFIX}"

    def epochs(self) -> list[Path]:
        """All well-named snapshots, oldest first."""
        return sorted(self.directory.glob(f"{_PREFIX}*{_SUFFIX}"))

    def save(self, state: EpochState) -> Path:
        """Crash-consistently persist one epoch snapshot."""
        meta = {
            "version": _SCHEMA_VERSION,
            "epoch": state.epoch,
            "num_vertices": state.num_vertices,
            "num_edges": state.num_edges,
            "modularity_gap": state.modularity_gap,
            "crc32": {
                "labels": zlib.crc32(
                    np.ascontiguousarray(state.labels).tobytes()
                ),
            },
        }
        final = self.path_for(state.epoch)
        tmp = self.directory / f".tmp-{os.getpid()}-{state.epoch:06d}{_SUFFIX}"
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, labels=state.labels, meta=np.array(json.dumps(meta)))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)
            _fsync_dir(self.directory)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise StreamError(f"cannot write epoch snapshot {final}: {exc}") from exc
        self._prune(protect=final)
        return final

    def _prune(self, protect: Path) -> None:
        if self.keep is None:
            return
        found = self.epochs()
        for stale in found[: max(0, len(found) - self.keep)]:
            if stale != protect:
                stale.unlink(missing_ok=True)
        _fsync_dir(self.directory)

    @staticmethod
    def load(path: str | Path) -> EpochState:
        """Load and CRC-verify one epoch snapshot."""
        try:
            with np.load(path, allow_pickle=False) as data:
                raw = data["labels"]
                meta = json.loads(str(data["meta"]))
        except (
            OSError, KeyError, ValueError, EOFError,
            SyntaxError, tokenize.TokenError,
            zipfile.BadZipFile, json.JSONDecodeError,
        ) as exc:
            # SyntaxError / TokenError: a bit flip inside an npy member's
            # own header escapes numpy's header parser undigested.
            raise StreamError(f"unreadable epoch snapshot {path}: {exc}") from exc
        if meta.get("version") != _SCHEMA_VERSION:
            raise StreamError(
                f"epoch snapshot {path} has schema version "
                f"{meta.get('version')}; this build reads {_SCHEMA_VERSION}"
            )
        expected = (meta.get("crc32") or {}).get("labels")
        # Verify over the stored bytes, then convert: a dtype cast must
        # not be able to defeat (or false-trip) corruption detection.
        actual = zlib.crc32(np.ascontiguousarray(raw).tobytes())
        if expected is None or int(expected) != actual:
            raise StreamError(
                f"epoch snapshot {path}: CRC32 mismatch on labels "
                f"(stored {expected}, computed {actual}) — corrupt snapshot"
            )
        labels = raw.astype(VERTEX_DTYPE)
        gap = meta.get("modularity_gap")
        return EpochState(
            epoch=int(meta["epoch"]),
            labels=labels,
            num_vertices=int(meta.get("num_vertices", labels.shape[0])),
            num_edges=int(meta.get("num_edges", 0)),
            modularity_gap=None if gap is None else float(gap),
        )

    def latest(self) -> EpochState | None:
        """Newest readable epoch, falling back past damaged snapshots."""
        self.skipped = []
        for path in reversed(self.epochs()):
            try:
                return self.load(path)
            except StreamError as exc:
                self.skipped.append((path, str(exc)))
        return None
