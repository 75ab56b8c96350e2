"""Seeded delta-batch generator for the benchmark's streaming legs.

Builds a sequence of valid ``add``/``remove``/``update`` batches against a
base graph without materialising the edge set: removals and updates sample
arcs straight from the CSR arrays, and only the handful of keys the
sequence itself touches are tracked.  Every ``remove``/``update`` names an
edge that exists at its point in the sequence, so the batches apply under
the ``strict`` policy.  Cost is O(ops), independent of |E|.

Every batch has the same op-kind sequence, :data:`KINDS`.  ``apply_batch``
rebuilds the CSR once per run of same-kind ops, so a random kind order
would make one batch cost several times another on a large graph; the
fixed sequence keeps that rebuild cost in every batch (seven runs of ten
ops, what a uniformly random order gives on average) without letting it
vary from seed to seed.
"""

from __future__ import annotations

import numpy as np


#: Op kinds of every batch, in order: 4 adds, 3 removes, 3 updates.
KINDS = ("add", "add", "remove", "update", "update", "add", "remove", "remove",
         "update", "add")


def delta_batches(graph, rng: np.random.Generator, *, num_batches: int):
    """``num_batches`` strict-valid batches of ``len(KINDS)`` ops each."""
    from repro.stream.delta import DeltaBatch, DeltaOp

    offsets = np.asarray(graph.offsets, dtype=np.int64)
    targets = np.asarray(graph.targets, dtype=np.int64)
    n, m = graph.num_vertices, targets.shape[0]
    removed: set[tuple[int, int]] = set()

    def base_edge() -> tuple[int, int] | None:
        arc = int(rng.integers(m))
        src = int(np.searchsorted(offsets, arc, side="right")) - 1
        dst = int(targets[arc])
        key = (min(src, dst), max(src, dst))
        if src == dst or key in removed:
            return None
        return key

    batches = []
    for _ in range(num_batches):
        ops: list = []
        for kind in KINDS:
            if kind == "add":
                a = b = 0
                while a == b:
                    a, b = int(rng.integers(n)), int(rng.integers(n))
                removed.discard((min(a, b), max(a, b)))
                ops.append(DeltaOp("add", a, b, weight=float(rng.uniform(0.5, 2.0))))
                continue
            key = None
            while key is None:
                key = base_edge()
            if kind == "remove":
                removed.add(key)
                ops.append(DeltaOp("remove", key[0], key[1]))
            else:
                ops.append(DeltaOp("update", key[0], key[1],
                                   weight=float(rng.uniform(0.5, 2.0))))
        batches.append(DeltaBatch(ops=tuple(ops)))
    return batches
