"""Durable streaming-graph pipeline: delta log, epochs, subscriptions.

Streams mutate the graph the paper's kernels consume.  The pipeline turns
a sequence of edge mutations into a sequence of *epochs* — each pairing a
graph version with warm-started ν-LPA labels — with the same crash
semantics the checkpoint layer sells for single runs: kill the process at
any instant, restart it over the same directories, and the stream resumes
bit-identically.

Modules
-------
:mod:`repro.stream.delta`
    :class:`DeltaBatch` — validated edge insert/delete/weight-update
    batches with strict/repair/quarantine policies and a dead-letter file;
    :func:`random_delta_batches` draws a valid mixed workload of them.
:mod:`repro.stream.log`
    :class:`DeltaLog` — the CRC-framed write-ahead log of acknowledged
    batches (fsync per append, atomic segment rotation, torn-tail fsck).
:mod:`repro.stream.epoch`
    :func:`apply_batch` onto an immutable CSR plus the
    :class:`EpochJournal` of labels snapshots.
:mod:`repro.stream.processor`
    :class:`StreamProcessor` — replays the log into epochs with
    warm-started incremental re-detection and crash recovery.

The kill/restart chaos proof is the ``stream`` leg of :mod:`repro.soak`.
"""

from __future__ import annotations

_EXPORTS = {
    "DeltaOp": "repro.stream.delta",
    "DeltaBatch": "repro.stream.delta",
    "DeltaValidationReport": "repro.stream.delta",
    "DeadLetterFile": "repro.stream.delta",
    "validate_batch": "repro.stream.delta",
    "DeltaLog": "repro.stream.log",
    "StreamFsckEntry": "repro.stream.log",
    "fsck_log": "repro.stream.log",
    "ApplyOutcome": "repro.stream.epoch",
    "apply_batch": "repro.stream.epoch",
    "EpochState": "repro.stream.epoch",
    "EpochJournal": "repro.stream.epoch",
    "StreamProcessor": "repro.stream.processor",
    "random_delta_batches": "repro.stream.delta",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.stream' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
