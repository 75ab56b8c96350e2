"""Bit-identity differential helpers: ``run`` reaches the reference paths
(``arena=False`` clears the engine's arena, ``hook=True`` attaches a no-op
fault hook, moving the hashtable clear up front) through ``make_engine``."""

import numpy as np
import pytest

from repro.core import lpa as lpa_mod
from repro.core.config import LPAConfig
from repro.core.lpa import make_engine, nu_lpa

ENGINES = ["vectorized", "hashtable"]


def run(graph, engine, *, arena=True, hook=False, resilience=None, **config):
    def build(*args):
        eng = make_engine(*args)
        eng.arena = eng.arena if arena else None
        eng.fault_hook = (lambda ctx: None) if hook else None
        return eng

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpa_mod, "make_engine", build)
        return nu_lpa(graph, LPAConfig(**config), engine=engine,
                      resilience=resilience, warn_on_no_convergence=False)


def assert_identical(a, b, context):
    assert np.array_equal(a.labels, b.labels), context
    assert len(a.iterations) == len(b.iterations), context
    for it_a, it_b in zip(a.iterations, b.iterations):
        assert it_a.changed == it_b.changed, context
        assert it_a.processed == it_b.processed, context
        assert it_a.reverted == it_b.reverted, context
        assert it_a.counters.as_dict() == it_b.counters.as_dict(), context
