"""Per-layer metrics of a traced run.

Times are totals over the traced region — the set-up plus ``units``
traced units — and counts are totals over the traced units, so two runs
with the same ``--seconds`` compare directly.  Counter-derived values
(``gpu.*``, ``hashing.*`` ratios, ``core.*`` ratios) are read from the
``LPAResult`` of every ``nu_lpa`` call, at the boundary where the work
happened.
"""

from __future__ import annotations

import os

#: name -> (unit, better); the order is the order of the printed report.
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.detect_s": ("s", "lower"),
    "graph.generate_s": ("s", "lower"),
    "graph.load_s": ("s", "lower"),
    "graph.load_calls": ("count", "lower"),
    "lpa.driver_self_s": ("s", "lower"),
    "lpa.iterations": ("count", "lower"),
    "engine_hashtable.move_s": ("s", "lower"),
    "engine_hashtable.self_s": ("s", "lower"),
    "engine_hashtable.move_calls": ("count", "lower"),
    "hashing.accumulate_s": ("s", "lower"),
    "hashing.max_key_s": ("s", "lower"),
    "hashing.fused_sweep_calls": ("count", "higher"),
    "hashing.probes_per_edge": ("ratio", "lower"),
    "hashing.cas_conflict_ratio": ("ratio", "lower"),
    "engine_vectorized.move_s": ("s", "lower"),
    "engine_vectorized.groupby_s": ("s", "lower"),
    "engine_vectorized.self_s": ("s", "lower"),
    "engine_vectorized.move_calls": ("count", "lower"),
    "core.gather_s": ("s", "lower"),
    "core.partition_s": ("s", "lower"),
    "core.useful_ratio": ("ratio", "higher"),
    "core.active_fraction": ("ratio", "lower"),
    "gpu.launches": ("count", "lower"),
    "gpu.waves": ("count", "lower"),
    "gpu.sectors_read": ("count", "lower"),
    "gpu.sectors_written": ("count", "lower"),
    "gpu.bytes_moved": ("bytes", "lower"),
    "gpu.warp_serial_probes": ("count", "lower"),
    "metrics.modularity_s": ("s", "lower"),
    "resilience.supervisor_overhead_s": ("s", "lower"),
    "resilience.checkpoint_save_s": ("s", "lower"),
    "resilience.checkpoint_saves": ("count", "lower"),
    "resilience.fault_events": ("count", "lower"),
    "governor.estimate_s": ("s", "lower"),
    "governor.high_water_bytes": ("bytes", "lower"),
    "service.submit_s": ("s", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.step_s": ("s", "lower"),
    "service.journal_record_s": ("s", "lower"),
    "service.journal_records": ("count", "lower"),
    "service.retries": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "stream.append_s": ("s", "lower"),
    "stream.recover_s": ("s", "lower"),
    "stream.apply_batch_calls": ("count", "lower"),
    "stream.replay_ratio": ("ratio", "lower"),
    "stream.epoch_save_s": ("s", "lower"),
    "incremental.lpa_s": ("s", "lower"),
    "incremental.frontier_fraction": ("ratio", "lower"),
    "read.publish_s": ("s", "lower"),
    "read.publish_bytes": ("bytes", "lower"),
    "read.refresh_s": ("s", "lower"),
    "read.membership_calls": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.units": ("count", "higher"),
    "trace.wrapped_targets": ("count", "higher"),
}


class Probe:
    """Collects boundary observations while a recorder is enabled."""

    def __init__(self, rec) -> None:
        self.rec = rec
        self.results: list = []
        self.frontier: list[float] = []
        self.publish_bytes = 0
        self.submitted: dict[str, float] = {}
        self.queue_waits: list[float] = []
        #: Totals over the traced units only.
        self.epochs = 0
        self.lookups = 0
        self.service: dict = {}
        self._mark = None
        rec.observers.update({
            "lpa.nu_lpa": self._on_result,
            "incremental.affected": self._on_affected,
            "read.publish": self._on_publish,
            "service.submit": self._on_submit,
            "service.step": self._on_step,
        })

    # ------------------------------------------------------------------ #

    def _on_result(self, args, kwargs, result, start) -> None:
        self.results.append(result)

    def _on_affected(self, args, kwargs, out, start) -> None:
        graph = args[0]
        if graph.num_vertices:
            self.frontier.append(len(out) / graph.num_vertices)

    def _on_publish(self, args, kwargs, path, start) -> None:
        self.publish_bytes += os.path.getsize(path)

    def _on_submit(self, args, kwargs, job_id, start) -> None:
        self.submitted[job_id] = start

    def _on_step(self, args, kwargs, record, start) -> None:
        if record is not None and record.job_id in self.submitted:
            self.queue_waits.append((start - self.submitted.pop(record.job_id)) * 1e3)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _service_counters(wl) -> dict:
        svc = getattr(wl, "service", None)
        return dict(svc.counters) if svc is not None else {}

    def begin(self, wl, samples) -> None:
        """Mark the start of one traced unit."""
        self._mark = (samples.epochs, wl.query.op_counts["membership"],
                      self._service_counters(wl))

    def end(self, wl, samples) -> None:
        """Add what one traced unit did to the totals."""
        epochs, lookups, service = self._mark
        self.epochs += samples.epochs - epochs
        self.lookups += wl.query.op_counts["membership"] - lookups
        for key, value in self._service_counters(wl).items():
            self.service[key] = self.service.get(key, 0) + value - service.get(key, 0)

    def _service_delta(self, *keys) -> int:
        return sum(self.service.get(k, 0) for k in keys)

    # ------------------------------------------------------------------ #

    def metrics(self, *, import_times: list, units: int, overhead: float,
                wrapped: int) -> dict:
        """``name -> (value, unit, samples)`` for every :data:`PER_LAYER` metric."""
        from repro.perf.platforms import A100_PLATFORM

        rec = self.rec
        results = self.results
        total = sum((r.total_counters for r in results[1:]),
                    results[0].total_counters) if results else None
        ht = [r.total_counters for r in results if r.algorithm.endswith("[hashtable]")]
        changed = sum(it.changed for r in results for it in r.iterations)
        processed = sum(it.processed for r in results for it in r.iterations)
        slots = sum(len(r.labels) * r.num_iterations for r in results)
        apply_calls = rec.calls("stream.apply_batch")
        n_results = len(results)

        def ratio(a, b):
            return a / b if b else 0.0

        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0

        def span(name, own=False):
            return (rec.self_time(name) if own else rec.total(name), rec.calls(name))

        def calls(name):
            return (rec.calls(name), rec.calls(name))

        def counter(field):
            return (getattr(total, field) if total is not None else 0, n_results)

        values = {
            "cli.import_s": (sorted(import_times)[len(import_times) // 2], len(import_times)),
            "graph.generate_s": span("graph.generate"),
            "cli.detect_s": span("cli.main"),
            # Nothing here loads a file through GraphRef, so the two
            # loaders never nest and their totals add.
            "graph.load_s": (rec.total("graph.load") + rec.total("graph.load_file"),
                             rec.calls("graph.load") + rec.calls("graph.load_file")),
            "graph.load_calls": (rec.calls("graph.load") + rec.calls("graph.load_file"),) * 2,
            "lpa.driver_self_s": span("lpa.nu_lpa", own=True),
            "lpa.iterations": (sum(r.num_iterations for r in results), n_results),
            "engine_hashtable.move_s": span("engine_hashtable.move"),
            "engine_hashtable.self_s": span("engine_hashtable.move", own=True),
            "engine_hashtable.move_calls": calls("engine_hashtable.move"),
            "hashing.accumulate_s": span("hashing.accumulate"),
            "hashing.max_key_s": span("hashing.max_key"),
            "hashing.fused_sweep_calls": calls("hashing.fused_sweep"),
            "hashing.probes_per_edge": (ratio(sum(c.probes for c in ht),
                                              sum(c.edges_scanned for c in ht)), len(ht)),
            "hashing.cas_conflict_ratio": (ratio(sum(c.atomic_conflicts for c in ht),
                                                 sum(c.atomic_cas for c in ht)), len(ht)),
            "engine_vectorized.move_s": span("engine_vectorized.move"),
            "engine_vectorized.groupby_s": span("engine_vectorized.groupby"),
            "engine_vectorized.self_s": span("engine_vectorized.move", own=True),
            "engine_vectorized.move_calls": calls("engine_vectorized.move"),
            "core.gather_s": span("core.gather"),
            "core.partition_s": span("core.partition"),
            "core.useful_ratio": (ratio(changed, processed), n_results),
            "core.active_fraction": (ratio(processed, slots), n_results),
            "gpu.launches": counter("launches"),
            "gpu.waves": counter("waves"),
            "gpu.sectors_read": counter("sectors_read"),
            "gpu.sectors_written": counter("sectors_written"),
            "gpu.bytes_moved": (total.bytes_moved(A100_PLATFORM.sector_bytes)
                                if total is not None else 0, n_results),
            "gpu.warp_serial_probes": counter("warp_serial_probes"),
            "metrics.modularity_s": span("metrics.modularity"),
            "resilience.supervisor_overhead_s": span("resilience.supervisor", own=True),
            "resilience.checkpoint_save_s": span("resilience.checkpoint_save"),
            "resilience.checkpoint_saves": calls("resilience.checkpoint_save"),
            "resilience.fault_events": (sum(len(r.fault_events) for r in results), n_results),
            "governor.estimate_s": span("governor.estimate"),
            "governor.high_water_bytes": (max([(r.memory or {}).get("high_water_bytes", 0)
                                               for r in results], default=0), n_results),
            "service.submit_s": span("service.submit"),
            "service.queue_wait_ms": (mean(self.queue_waits), len(self.queue_waits)),
            "service.step_s": span("service.step", own=True),
            "service.journal_record_s": span("service.journal_record"),
            "service.journal_records": calls("service.journal_record"),
            "service.retries": (self._service_delta("retries"), 1),
            "service.rejected": (self._service_delta("rejected", "memory_rejected"), 1),
            "stream.append_s": span("stream.append"),
            "stream.recover_s": span("stream.recover"),
            "stream.apply_batch_calls": calls("stream.apply_batch"),
            "stream.replay_ratio": (ratio(apply_calls, self.epochs), self.epochs),
            "stream.epoch_save_s": span("stream.epoch_save"),
            "incremental.lpa_s": span("incremental.lpa"),
            "incremental.frontier_fraction": (mean(self.frontier), len(self.frontier)),
            "read.publish_s": span("read.publish"),
            "read.publish_bytes": (self.publish_bytes, rec.calls("read.publish")),
            "read.refresh_s": span("read.refresh"),
            "read.membership_calls": (self.lookups, 1),
            "trace.overhead_ratio": (overhead, 1),
            "trace.units": (units, 1),
            # A target a later version renamed or moved is not wrapped and
            # its metrics read 0; this count (and the printed list) shows it.
            "trace.wrapped_targets": (wrapped, 1),
        }
        return {name: (float(values[name][0]), unit, values[name][1])
                for name, (unit, _better) in PER_LAYER.items()}
