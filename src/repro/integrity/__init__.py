"""Silent-data-corruption detection and repair.

The compute path's answer to what the durable layers already have: every
store (checkpoints, job journal, delta WAL, epoch journal, RPSNAP01
snapshots) grew its own CRC scheme, but a DRAM bit-flip that lands a label
on a *different-but-valid* community sails past the supervisor's cheap
invariants all the way to a published snapshot.  This package closes that
gap with algorithm-based fault tolerance (ABFT):

* :class:`~repro.integrity.config.IntegrityConfig` — the feature switch;
  ``None``/disabled costs one attribute test per move, like the tracer.
* :class:`~repro.integrity.ecc.SecDedModel` — SEC-DED ECC accounting
  (single-bit upsets corrected and counted, double-bit upsets raise
  :class:`~repro.errors.EccError`).
* :class:`~repro.integrity.guard.IntegrityGuard` — running CSR checksums
  on an amortised scrub schedule, label-conservation audits, hashtable
  spot-audits, and shadow-replay verification, all charged to the perf
  model.
* :func:`~repro.integrity.fsck.fsck_all` — the unified at-rest audit
  behind ``repro fsck --all``.

The end-to-end corruption soak (live SDC injection + at-rest bit rot) is
the ``integrity`` leg of :mod:`repro.soak`.
"""

from repro.integrity.config import IntegrityConfig
from repro.integrity.ecc import SecDedModel
from repro.integrity.guard import IntegrityGuard

__all__ = [
    "IntegrityConfig",
    "SecDedModel",
    "IntegrityGuard",
    "IntegrityReport",
    "fsck_all",
]

_LAZY = {
    # fsck walks every durable store, which pulls in `nu_lpa`, which
    # imports this package.  Loaded on first use.
    "IntegrityReport": "repro.integrity.fsck",
    "fsck_all": "repro.integrity.fsck",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
