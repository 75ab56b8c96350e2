"""Span tracing around the public functions each layer of ``repro`` exposes.

Nothing inside ``repro`` is modified: :func:`install` rebinds each traced
function at every place a caller resolves it.  A module that did
``from repro.hashing.parallel_hashtable import parallel_accumulate`` holds
its own reference, so the wrapper is written into *every* loaded
``repro`` module whose attribute is the original function object (for
example ``repro.core.engine_hashtable.parallel_accumulate``); methods are
rebound on their class.

Each call records a span ``(name, start, end, parent, op)``; ``op`` is the
benchmark operation the span belongs to (``round-3/job``...).  A span's
self time is its duration minus the time of its direct children — calls
are strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (span name, module, attribute, class or None).  Self time of a span
#: excludes every traced callee, so e.g. ``engine_hashtable.move`` self
#: time is the engine's own work between hashing, gather and partition.
TRACED = [
    ("graph.generate", "repro.graph.datasets", "generate_standin", None),
    ("graph.load", "repro.service.job", "load", "GraphRef"),
    ("graph.load_file", "repro.graph.io", "load_graph", None),
    ("cli.main", "repro.cli", "main", None),
    ("lpa.nu_lpa", "repro.core.lpa", "nu_lpa", None),
    ("engine_hashtable.move", "repro.core.engine_hashtable", "move", "HashtableEngine"),
    ("engine_vectorized.move", "repro.core.engine_vectorized", "move", "VectorizedEngine"),
    ("hashing.accumulate", "repro.hashing.parallel_hashtable", "parallel_accumulate", None),
    ("hashing.max_key", "repro.hashing.parallel_hashtable", "segmented_max_key", None),
    ("hashing.fused_sweep", "repro.hashing.parallel_hashtable", "fused_max_and_clear", None),
    ("engine_vectorized.groupby", "repro.core.engine_vectorized", "best_labels_groupby", None),
    ("core.gather", "repro.core._gather", "gather_edges", None),
    ("core.partition", "repro.core.kernels", "partition_by_degree", None),
    ("metrics.modularity", "repro.metrics.modularity", "modularity", None),
    ("resilience.supervisor", "repro.resilience.supervisor", "move", "KernelSupervisor"),
    ("resilience.checkpoint_save", "repro.resilience.checkpoint", "save", "CheckpointManager"),
    ("governor.estimate", "repro.gpu.governor", "footprint_for", None),
    ("service.submit", "repro.service.service", "submit", "DetectionService"),
    ("service.step", "repro.service.service", "step", "DetectionService"),
    ("service.journal_record", "repro.service.journal", "record", "ServiceJournal"),
    ("stream.append", "repro.stream.log", "append", "DeltaLog"),
    ("stream.recover", "repro.stream.processor", "recover", "StreamProcessor"),
    ("stream.step", "repro.stream.processor", "step", "StreamProcessor"),
    ("stream.apply_batch", "repro.stream.epoch", "apply_batch", None),
    ("stream.epoch_save", "repro.stream.epoch", "save", "EpochJournal"),
    ("incremental.lpa", "repro.core.incremental", "nu_lpa_incremental", None),
    ("incremental.affected", "repro.core.incremental", "affected_vertices", None),
    ("read.publish", "repro.service.read", "publish", "SnapshotCatalog"),
    ("read.refresh", "repro.service.read", "refresh", "QueryEngine"),
]

#: Modules whose import makes every traced binding visible to install().
PRELOAD = sorted({mod for _, mod, _, _ in TRACED} | {
    "repro", "repro.core", "repro.metrics", "repro.stream", "repro.service",
})


class SpanRecorder:
    """In-memory span sink with per-name aggregates.

    Raw spans are kept up to ``max_spans`` (the rest are only aggregated
    and counted in ``dropped``), so a long traced run cannot grow without
    bound.  Result objects returned by selected spans are handed to
    ``observers`` so counter-derived metrics are measured at the boundary.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self.enabled = False
        self.op = ""
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.observers: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        #: Names of the :data:`TRACED` entries install() could not resolve.
        self.missing: list[str] = []

    # ------------------------------------------------------------------ #

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            span_id = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1][0] if rec._stack else None
            frame = [span_id, 0.0]
            rec._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                dur = end - start
                if rec._stack:
                    rec._stack[-1][1] += dur
                rec._record(name, span_id, parent, start, end, dur - frame[1])
            observer = rec.observers.get(name)
            if observer is not None:
                observer(args, kwargs, out, start)
            return out

        return traced

    def _record(self, name, span_id, parent, start, end, self_s) -> None:
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += self_s
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent, self.op, self_s))
        else:
            self.dropped += 1

    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return float(self.agg.get(name, (0, 0.0, 0.0))[1])

    def self_time(self, name: str) -> float:
        return float(self.agg.get(name, (0, 0.0, 0.0))[2])

    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Rebind every traced function wherever ``repro`` resolves it."""
        for module in PRELOAD:
            try:
                importlib.import_module(module)
            except ModuleNotFoundError:
                pass
        self.missing = []
        for name, module, attr, cls_name in TRACED:
            # A function a later version of the program renamed or moved
            # is not traced: its span never opens and its metrics read 0,
            # so it is listed in ``missing`` (printed and dumped).
            owner = sys.modules.get(module)
            if cls_name is not None:
                cls = getattr(owner, cls_name, None)
                if cls is not None and callable(cls.__dict__.get(attr)):
                    self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
                else:
                    self.missing.append(f"{name} ({module}.{cls_name}.{attr})")
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(f"{name} ({module}.{attr})")
                continue
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr) if not isinstance(obj, type)
                              else obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "spans_fields": ["id", "name", "start", "end", "parent", "op", "self_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "not_wrapped": self.missing,
            "layers": {
                name: {"calls": int(a[0]), "total_s": a[1], "self_s": a[2]}
                for name, a in sorted(self.agg.items())
            },
        }
