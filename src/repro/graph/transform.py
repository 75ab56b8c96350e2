"""Graph transformations: subgraphs, relabeling, component extraction, deltas.

Utilities a downstream user needs around the core algorithm: cutting a
detected community out for inspection, restricting to the giant component
before benchmarking, or permuting vertex ids (the degree-sorted order the
two-kernel partition likes).

The delta helpers (:func:`add_edges`, :func:`remove_edges`,
:func:`update_weights`) mutate a graph by whole edge arrays: each takes an
immutable :class:`~repro.graph.csr.CSRGraph` plus undirected edge arrays
and returns a *new*, fully rebuilt graph with the symmetric-arc invariant
enforced — every insert adds both directions, every delete removes both,
every weight update rewrites both.  They are deterministic (same inputs →
bit-identical CSR).  The streaming pipeline applies small batches with
its own splice (:func:`repro.stream.epoch.apply_batch`) instead, whose
output matches a run-by-run application of these helpers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.build import coo_to_csr, deduplicate_edges, symmetrize_edges
from repro.graph.csr import CSRGraph
from repro.graph.properties import connected_components
from repro.types import VERTEX_DTYPE, WEIGHT_DTYPE

__all__ = [
    "induced_subgraph",
    "largest_component",
    "permute_vertices",
    "remove_self_loops",
    "community_subgraph",
    "add_edges",
    "remove_edges",
    "update_weights",
]


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices``.

    Returns ``(subgraph, mapping)`` where ``mapping[k]`` is the original id
    of the subgraph's vertex ``k``.  Duplicate ids are rejected.
    """
    vertices = np.asarray(vertices, dtype=VERTEX_DTYPE).ravel()
    if vertices.shape[0] != np.unique(vertices).shape[0]:
        raise GraphConstructionError("induced_subgraph: duplicate vertex ids")
    if vertices.shape[0] and (
        vertices.min() < 0 or vertices.max() >= graph.num_vertices
    ):
        raise GraphConstructionError("induced_subgraph: vertex id out of range")

    keep = np.zeros(graph.num_vertices, dtype=bool)
    keep[vertices] = True
    new_id = np.full(graph.num_vertices, -1, dtype=VERTEX_DTYPE)
    new_id[vertices] = np.arange(vertices.shape[0], dtype=VERTEX_DTYPE)

    src = graph.source_ids()
    dst = graph.targets
    mask = keep[src] & keep[dst]
    sub = coo_to_csr(
        new_id[src[mask]], new_id[dst[mask]], graph.weights[mask],
        vertices.shape[0],
    )
    return sub, vertices


def largest_component(graph: CSRGraph) -> tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of the largest connected component."""
    if graph.num_vertices == 0:
        return graph, np.empty(0, dtype=VERTEX_DTYPE)
    comp = connected_components(graph)
    biggest = int(np.argmax(np.bincount(comp)))
    return induced_subgraph(graph, np.flatnonzero(comp == biggest))


def permute_vertices(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Renumber vertices so that new vertex ``k`` is old vertex ``perm[k]``."""
    perm = np.asarray(perm, dtype=VERTEX_DTYPE)
    if not np.array_equal(np.sort(perm), np.arange(graph.num_vertices)):
        raise GraphConstructionError("perm must be a permutation of 0..N-1")
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(graph.num_vertices, dtype=VERTEX_DTYPE)
    src = inverse[graph.source_ids()]
    dst = inverse[graph.targets]
    return coo_to_csr(
        src, dst, graph.weights, graph.num_vertices
    )


def remove_self_loops(graph: CSRGraph) -> CSRGraph:
    """Copy of ``graph`` without self-loop arcs."""
    src = graph.source_ids()
    keep = src != graph.targets
    return coo_to_csr(
        src[keep], graph.targets[keep], graph.weights[keep], graph.num_vertices
    )


def _delta_edge_arrays(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None,
    *,
    num_vertices: int | None,
    what: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Common checks for the delta helpers; returns ``(src, dst, w, n)``.

    ``num_vertices`` may *grow* the vertex set (streams see new users);
    shrinking is rejected because existing arcs would dangle.
    """
    src = np.asarray(src, dtype=VERTEX_DTYPE).ravel()
    dst = np.asarray(dst, dtype=VERTEX_DTYPE).ravel()
    if src.shape != dst.shape:
        raise GraphConstructionError(
            f"{what}: src and dst must have the same length; "
            f"got {src.shape[0]} != {dst.shape[0]}"
        )
    if weights is None:
        w = np.ones(src.shape[0], dtype=WEIGHT_DTYPE)
    else:
        w = np.asarray(weights, dtype=WEIGHT_DTYPE).ravel()
        if w.shape != src.shape:
            raise GraphConstructionError(f"{what}: weights must align with src/dst")
        if w.shape[0] and not np.all(np.isfinite(w)):
            raise GraphConstructionError(f"{what}: edge weights must be finite")
    n = graph.num_vertices if num_vertices is None else int(num_vertices)
    if n < graph.num_vertices:
        raise GraphConstructionError(
            f"{what}: num_vertices={n} would shrink the graph "
            f"({graph.num_vertices} vertices); deltas may only grow it"
        )
    if src.shape[0]:
        lo = int(min(src.min(), dst.min()))
        hi = int(max(src.max(), dst.max()))
        if lo < 0 or hi >= n:
            raise GraphConstructionError(
                f"{what}: endpoint ids must lie in [0, {n}); "
                f"got range [{lo}, {hi}]"
            )
    return src, dst, w, n


def _arc_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    return src.astype(np.int64) * np.int64(max(n, 1)) + dst.astype(np.int64)


def add_edges(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    num_vertices: int | None = None,
    combine: str = "max",
) -> CSRGraph:
    """New graph with the undirected edges ``(src[i], dst[i])`` inserted.

    Symmetric-arc enforcement: each inserted edge contributes both
    directions (self-loops stay single).  Inserting an arc that already
    exists — or the same edge twice within one call — coalesces the
    duplicates with ``combine`` (``"max"`` by default, matching the build
    pipeline, so re-inserting an existing edge is idempotent; ``"sum"``
    gives multigraph accumulation).  ``num_vertices`` may grow the vertex
    set; new vertices start isolated until an edge reaches them.
    """
    src, dst, w, n = _delta_edge_arrays(
        graph, src, dst, weights, num_vertices=num_vertices, what="add_edges"
    )
    if src.shape[0] == 0 and n == graph.num_vertices:
        return graph
    add_src, add_dst, add_w = symmetrize_edges(src, dst, w)
    all_src = np.concatenate([graph.source_ids(), add_src])
    all_dst = np.concatenate([graph.targets, add_dst])
    all_w = np.concatenate([graph.weights, add_w])
    m_src, m_dst, m_w = deduplicate_edges(
        all_src, all_dst, all_w, num_vertices=n, combine=combine
    )
    return coo_to_csr(m_src, m_dst, m_w, n)


def remove_edges(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    missing: str = "error",
) -> CSRGraph:
    """New graph with the undirected edges ``(src[i], dst[i])`` removed.

    Both directions of every named edge are dropped, keeping the
    symmetric-arc invariant.  ``missing`` controls what a nonexistent edge
    does: ``"error"`` (default) raises :class:`GraphConstructionError`
    naming the first offender, ``"ignore"`` skips it — the streaming
    pipeline quarantines such deltas upstream and applies with
    ``"ignore"``.
    """
    if missing not in ("error", "ignore"):
        raise GraphConstructionError(
            f"remove_edges: missing must be 'error' or 'ignore'; got {missing!r}"
        )
    src, dst, _, n = _delta_edge_arrays(
        graph, src, dst, None, num_vertices=None, what="remove_edges"
    )
    if src.shape[0] == 0:
        return graph
    g_src = graph.source_ids()
    keys = _arc_keys(g_src, graph.targets, n)
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    # Both directions of every named edge.
    drop_keys = np.unique(np.concatenate([
        _arc_keys(src, dst, n), _arc_keys(dst, src, n)
    ]))
    if missing == "error":
        pos = np.searchsorted(skeys, _arc_keys(src, dst, n))
        pos_c = np.minimum(pos, max(skeys.shape[0] - 1, 0))
        present = (
            skeys[pos_c] == _arc_keys(src, dst, n)
            if skeys.shape[0] else np.zeros(src.shape[0], dtype=bool)
        )
        if not present.all():
            first = int(np.flatnonzero(~present)[0])
            raise GraphConstructionError(
                f"remove_edges: edge {int(src[first])}-{int(dst[first])} "
                f"does not exist (pass missing='ignore' to skip)"
            )
    keep = ~np.isin(keys, drop_keys)
    return coo_to_csr(
        g_src[keep], graph.targets[keep], graph.weights[keep], n
    )


def update_weights(
    graph: CSRGraph,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    *,
    missing: str = "error",
) -> CSRGraph:
    """New graph with the weight of each edge ``(src[i], dst[i])`` replaced.

    Both directions of every named edge take the new weight (symmetric-arc
    enforcement).  Duplicate updates to the same edge within one call
    coalesce to the *last* occurrence, so a batch replays like a sequence.
    ``missing`` follows :func:`remove_edges`: ``"error"`` raises on an
    edge the graph does not have, ``"ignore"`` skips it.
    """
    if missing not in ("error", "ignore"):
        raise GraphConstructionError(
            f"update_weights: missing must be 'error' or 'ignore'; got {missing!r}"
        )
    if weights is None:
        raise GraphConstructionError("update_weights: weights are required")
    src, dst, w, n = _delta_edge_arrays(
        graph, src, dst, weights, num_vertices=None, what="update_weights"
    )
    if src.shape[0] == 0:
        return graph
    # Last-write-wins coalescing of duplicate updates.
    upd_keys = np.concatenate([_arc_keys(src, dst, n), _arc_keys(dst, src, n)])
    upd_w = np.concatenate([w, w])
    order = np.argsort(upd_keys, kind="stable")
    ukeys, uw = upd_keys[order], upd_w[order]
    last = np.ones(ukeys.shape[0], dtype=bool)
    last[:-1] = ukeys[1:] != ukeys[:-1]
    ukeys, uw = ukeys[last], uw[last]

    keys = _arc_keys(graph.source_ids(), graph.targets, n)
    pos = np.searchsorted(ukeys, keys)
    pos_c = np.minimum(pos, ukeys.shape[0] - 1)
    hit = ukeys[pos_c] == keys
    if missing == "error":
        # Every requested (forward) edge must have matched some arc.
        fwd = _arc_keys(src, dst, n)
        matched = np.isin(fwd, keys[hit])
        if not matched.all():
            first = int(np.flatnonzero(~matched)[0])
            raise GraphConstructionError(
                f"update_weights: edge {int(src[first])}-{int(dst[first])} "
                f"does not exist (pass missing='ignore' to skip)"
            )
    new_w = np.array(graph.weights, copy=True)
    new_w[hit] = uw[pos_c[hit]].astype(WEIGHT_DTYPE)
    return CSRGraph(graph.offsets, graph.targets, new_w, validate=False)


def community_subgraph(
    graph: CSRGraph, labels: np.ndarray, community: int
) -> tuple[CSRGraph, np.ndarray]:
    """The induced subgraph of one detected community."""
    labels = np.asarray(labels)
    members = np.flatnonzero(labels == community)
    if members.shape[0] == 0:
        raise GraphConstructionError(f"community {community} has no members")
    return induced_subgraph(graph, members)
