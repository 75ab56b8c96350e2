"""Differential tests: the one-pass splice ``apply_batch`` against the
per-run rebuild it replaced.

``_apply_batch_reference`` is the earlier implementation, kept verbatim as
the oracle: it groups the ops into consecutive same-kind runs and rebuilds
the whole CSR once per run with the vectorised delta helpers of
:mod:`repro.graph.transform`.  The property drives both with the same
graph, batch and policy and requires identical results: CSR arrays and
their dtypes, ``touched``, the counts, the report, the dead-letter lines,
and under ``strict`` the same exception.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeltaValidationError
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.datasets import dataset_names, generate_standin
from repro.graph.transform import add_edges, remove_edges, update_weights
from repro.resilience.validate import POLICIES, ValidationIssue
from repro.stream.delta import (
    DeadLetterFile,
    DeltaBatch,
    DeltaOp,
    random_delta_batches,
    validate_batch,
)
from repro.stream.epoch import ApplyOutcome, apply_batch
from repro.types import VERTEX_DTYPE


def _contains(sorted_keys: np.ndarray, key: int) -> bool:
    pos = int(np.searchsorted(sorted_keys, key))
    return pos < sorted_keys.shape[0] and int(sorted_keys[pos]) == key


def _apply_batch_reference(
    graph, batch, *, policy="strict", dead_letter=None, seq=None,
) -> ApplyOutcome:
    """The per-run rebuild: one full CSR rebuild per same-kind run."""
    clean, report = validate_batch(
        batch,
        graph_vertices=graph.num_vertices,
        policy=policy,
        dead_letter=dead_letter,
        seq=seq,
    )
    target_n = max(graph.num_vertices, clean.num_vertices or 0)

    runs: list[tuple[str, list[DeltaOp]]] = []
    for op in clean.ops:
        if runs and runs[-1][0] == op.op:
            runs[-1][1].append(op)
        else:
            runs.append((op.op, [op]))

    missing: list[tuple[DeltaOp, str]] = []
    key_n = max(target_n, 1)
    base_keys = np.sort(
        graph.source_ids().astype(np.int64) * np.int64(key_n)
        + graph.targets.astype(np.int64)
    )
    present: set[int] = set()
    absent: set[int] = set()

    def _key(a: int, b: int) -> int:
        return a * key_n + b

    def _exists(a: int, b: int) -> bool:
        k = _key(a, b)
        if k in present:
            return True
        if k in absent:
            return False
        return _contains(base_keys, k)

    applicable: dict[int, bool] = {}
    for idx, op in enumerate(clean.ops):
        if op.op == "add":
            for k in (_key(op.src, op.dst), _key(op.dst, op.src)):
                present.add(k)
                absent.discard(k)
            applicable[idx] = True
        elif op.op == "remove":
            ok = _exists(op.src, op.dst)
            applicable[idx] = ok
            if ok:
                for k in (_key(op.src, op.dst), _key(op.dst, op.src)):
                    absent.add(k)
                    present.discard(k)
            else:
                missing.append((op, "missing-edge"))
        else:
            ok = _exists(op.src, op.dst)
            applicable[idx] = ok
            if not ok:
                missing.append((op, "missing-edge"))

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

    touched: set[int] = set()
    added = removed = updated = 0
    out = graph
    if target_n > graph.num_vertices:
        out = add_edges(
            out, np.empty(0, dtype=VERTEX_DTYPE), np.empty(0, dtype=VERTEX_DTYPE),
            num_vertices=target_n,
        )
    idx = 0
    for kind, ops in runs:
        keep = [op for j, op in enumerate(ops) if applicable[idx + j]]
        idx += len(ops)
        if not keep:
            continue
        src = np.asarray([op.src for op in keep], dtype=VERTEX_DTYPE)
        dst = np.asarray([op.dst for op in keep], dtype=VERTEX_DTYPE)
        if kind == "add":
            w = np.asarray(
                [1.0 if op.weight is None else op.weight for op in keep],
                dtype=np.float64,
            )
            out = add_edges(out, src, dst, w, combine="max")
            added += len(keep)
        elif kind == "remove":
            out = remove_edges(out, src, dst, missing="ignore")
            removed += len(keep)
        else:
            w = np.asarray([op.weight for op in keep], dtype=np.float64)
            out = update_weights(out, src, dst, w, missing="ignore")
            updated += len(keep)
        touched.update(int(v) for v in src.tolist())
        touched.update(int(v) for v in dst.tolist())

    return ApplyOutcome(
        graph=out,
        touched=np.asarray(sorted(touched), dtype=np.int64),
        report=report,
        added=added,
        removed=removed,
        updated=updated,
    )


# --------------------------------------------------------------------- #
# Comparison
# --------------------------------------------------------------------- #


def _run(fn, graph, batch, policy, directory: Path):
    """``(outcome or exception, dead-letter entries)`` of one apply."""
    dead = DeadLetterFile(directory / "dead.jsonl")
    try:
        result = fn(graph, batch, policy=policy, dead_letter=dead, seq=7)
    except DeltaValidationError as exc:
        result = exc
    return result, dead.entries()


def _assert_same(graph, batch, policy):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        got, got_dead = _run(apply_batch, graph, batch, policy, tmp / "new")
        want, want_dead = _run(_apply_batch_reference, graph, batch, policy, tmp / "ref")
    assert got_dead == want_dead
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        assert got.report.as_dict() == want.report.as_dict()
        return None
    assert not isinstance(got, Exception), got
    for name in ("offsets", "targets", "weights"):
        a, b = getattr(got.graph, name), getattr(want.graph, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name  # bitwise: keeps -0.0 apart
    assert (got.graph is graph) == (want.graph is graph)
    assert got.touched.dtype == want.touched.dtype
    assert np.array_equal(got.touched, want.touched)
    assert (got.added, got.removed, got.updated) == (
        want.added, want.removed, want.updated)
    assert got.report.as_dict() == want.report.as_dict()
    return got


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #

#: Weights that stress the ``max`` combine: signed zeros and equal values.
_WEIGHTS = [0.0, -0.0, 0.5, 1.0, 1.0, 2.0, 3.25]


def _raw_csr(n, arcs, rng) -> CSRGraph:
    """CSR straight from an arc list: duplicates kept, rows shuffled."""
    src = np.asarray([a[0] for a in arcs], dtype=np.int64)
    order = np.lexsort((rng.permutation(len(arcs)), src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return CSRGraph(
        offsets,
        np.asarray([arcs[i][1] for i in order], dtype=np.int64),
        np.asarray([arcs[i][2] for i in order], dtype=np.float32),
    )


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 9))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from(_WEIGHTS)),
        max_size=18,
    ))
    layout = draw(st.sampled_from(
        ["canonical", "unsorted", "parallel", "asymmetric"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if layout == "canonical" or not pairs:
        src = [p[0] for p in pairs]
        dst = [p[1] for p in pairs]
        w = [p[2] for p in pairs]
        graph = from_edges(src, dst, w, num_vertices=n, symmetrize=True)
    else:
        arcs = [(s, d, w) for s, d, w in pairs]
        if layout != "asymmetric":
            arcs += [(d, s, w) for s, d, w in pairs if s != d]
        if layout == "parallel":
            arcs += [(s, d, draw(st.sampled_from(_WEIGHTS)))
                     for s, d, _ in arcs[: draw(st.integers(1, 4))]]
        graph = _raw_csr(n, arcs, rng)
    if draw(st.booleans()):
        graph = graph.with_compact_layout()
    return graph


@st.composite
def batches(draw, graph):
    n = graph.num_vertices
    grow = draw(st.sampled_from([0, 0, 1, 3]))
    shrink = draw(st.integers(0, 9)) == 0 and n > 1
    limit = n + grow
    existing = [(int(s), int(d)) for s, d in
                zip(graph.source_ids().tolist(), graph.targets.tolist())]
    weight = st.one_of(st.sampled_from(_WEIGHTS), st.floats(0.0, 5.0, width=32))
    ops: list[DeltaOp] = []
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(
            ["add", "add-existing", "add-loop", "remove", "remove-any",
             "update", "update-any", "readd", "bad"]))
        if shape in ("remove", "update", "add-existing") and existing:
            a, b = draw(st.sampled_from(existing))
        elif shape == "readd" and ops:
            prev = draw(st.sampled_from(ops))
            a, b = prev.src, prev.dst
        else:
            a = draw(st.integers(0, limit - 1))
            b = a if shape == "add-loop" else draw(st.integers(0, limit - 1))
        if draw(st.booleans()):
            a, b = b, a
        if shape == "bad":
            ops.append(draw(st.sampled_from([
                DeltaOp("add", a, b, weight=-1.0),
                DeltaOp("update", a, b, weight=float("nan")),
                DeltaOp("update", a, b),
                DeltaOp("add", a, limit + 2),
                DeltaOp("move", a, b),
            ])))
            continue
        kind = {"add-existing": "add", "add-loop": "add", "readd": "add",
                "remove-any": "remove", "update-any": "update"}.get(shape, shape)
        w = draw(weight) if kind == "update" else draw(
            st.one_of(st.none(), weight))
        ops.append(DeltaOp(kind, a, b, weight=None if kind == "remove" else w))
    num_vertices = n - 1 if shrink else (limit if grow else None)
    return DeltaBatch(ops=tuple(ops), num_vertices=num_vertices)


@st.composite
def cases(draw):
    graph = draw(graphs())
    return graph, draw(batches(graph)), draw(st.sampled_from(POLICIES))


class TestMatchesPerRunRebuild:
    @given(cases())
    @settings(max_examples=400, deadline=None)
    def test_one_batch(self, case):
        _assert_same(*case)

    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cumulative_batches(self, graph, data):
        """Each batch applies to the previous batch's output."""
        policy = data.draw(st.sampled_from(POLICIES))
        for _ in range(data.draw(st.integers(1, 4))):
            out = _assert_same(graph, data.draw(batches(graph)), policy)
            if out is not None:
                graph = out.graph

    def test_signed_zero_tie_order(self):
        # Forward arcs of a run fold before reverse arcs, so the two arcs
        # of one edge can keep different zero signs.
        graph = from_edges([0], [1], num_vertices=3, symmetrize=True)
        got = _assert_same(graph, DeltaBatch(ops=(
            DeltaOp("add", 2, 1, weight=0.0),
            DeltaOp("add", 1, 2, weight=-0.0),
        )), "strict")
        assert sorted(np.signbit(got.graph.weights).tolist()) == [
            False, False, False, True]

    def test_skipped_op_splits_a_run(self):
        graph = from_edges([0], [1], num_vertices=3, symmetrize=True)
        _assert_same(graph, DeltaBatch(ops=(
            DeltaOp("add", 2, 1, weight=0.0),
            DeltaOp("remove", 0, 2),
            DeltaOp("add", 1, 2, weight=-0.0),
        )), "quarantine")

    def test_many_contributions_to_one_arc(self):
        # Over 16 values numpy's max reduction is vectorised and its
        # signed-zero tie order is not a left fold; both paths reduce the
        # same ordered values.
        graph = from_edges([0], [1], weights=[0.0], num_vertices=2,
                           symmetrize=True)
        # Existing +0.0 then these 16 signs: the vectorised reduce ends
        # on -0.0 where a left fold would end on +0.0.
        ops = tuple(DeltaOp("add", 0, 1, weight=-0.0 if sign == "-" else 0.0)
                    for sign in "----+++-+++++--+")
        _assert_same(graph, DeltaBatch(ops=ops), "strict")

    def test_nothing_applies_returns_input(self):
        graph = from_edges([0], [1], num_vertices=2, symmetrize=True)
        got = _assert_same(graph, DeltaBatch(ops=(DeltaOp("remove", 0, 0),)),
                           "quarantine")
        assert got.graph is graph


@pytest.mark.parametrize("name", dataset_names())
def test_standin_stream_matches(name):
    """Cumulative seeded workload, with growth, on every stand-in."""
    graph = generate_standin(name, scale=0.02, seed=3)
    rng = np.random.default_rng([3, len(name)])
    for batch in random_delta_batches(graph, rng, num_batches=6, batch_size=8,
                                      grow_every=2):
        graph = _assert_same(graph, batch, "strict").graph
