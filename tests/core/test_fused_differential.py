"""Differential suite for the clean-tables sweep / compact-layout hot paths.

None of the performance levers may change *what* is computed:

* the hashtable engine's default sweep accumulates into clean tables and
  re-empties them after the max-key reduce, while under a fault hook the
  clear runs up front (the reference path, reached here through a no-op
  hook) — labels, per-iteration stats, and every kernel counter must
  match bit for bit;
* ``compact_layout`` shrinks offsets/targets/labels to 32 bits when the
  graph fits — same values, half the bytes;
* ``persistent_kernel`` only re-prices launches in the cost model — the
  partition itself must be untouched;
* ``degree_renumber`` is the one *documented* exception: labels are a
  renaming of the input ids, so it is tested for validity and
  determinism, not bitwise equality.

These tests pin that contract across both engines, every probing
strategy, and arena on/off, and extend the steady-state ``tracemalloc``
proof to the default hashtable path.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import engine_hashtable as engine_mod
from repro.core.config import LPAConfig, ResilienceConfig
from repro.core.lpa import make_engine, nu_lpa
from repro.core.pruning import Frontier
from repro.errors import ConfigurationError, HashtableFullError
from repro.graph.generators import rmat_graph, watts_strogatz, web_graph
from repro.hashing.probing import ProbeStrategy
from repro.resilience.faults import FaultSpec
from repro.types import EMPTY_KEY, VERTEX_DTYPE
from tests.core.differential import ENGINES, assert_identical, run


class TestFusedSweepDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("arena", [True, False])
    def test_bit_identical_labels_and_counters(self, small_web, engine, arena):
        fast = run(small_web, engine, arena=arena)
        reference = run(small_web, engine, arena=arena, hook=True)
        assert_identical(fast, reference, f"{engine}, arena={arena}")

    @pytest.mark.parametrize("probing", list(ProbeStrategy))
    def test_bit_identical_across_probing_strategies(self, small_social, probing):
        fast = run(small_social, "hashtable", probing=probing)
        reference = run(small_social, "hashtable", hook=True, probing=probing)
        assert_identical(fast, reference, probing.value)

    def test_dense_ring_lattice(self):
        # Uniform-degree ring lattice: claimed slots fill most of each
        # table's live region.
        graph = watts_strogatz(2000, 10, 0.05, seed=5)
        fast = run(graph, "hashtable")
        reference = run(graph, "hashtable", hook=True)
        assert_identical(fast, reference, "watts_strogatz")

    def test_scalar_tail_graph(self):
        # Heavy-tailed graph small enough that waves finish in the scalar
        # tail (pending <= _SCALAR_TAIL_MAX) almost immediately.
        graph = rmat_graph(6, 4, seed=3)
        fast = run(graph, "hashtable")
        reference = run(graph, "hashtable", hook=True)
        assert_identical(fast, reference, "scalar tail")


class TestAbortedAccumulate:
    # An accumulate that raises, or a reduce that fails before it runs
    # (an arena growth refused by the memory governor), must hand the
    # ladder's retry clean tables.
    @pytest.mark.parametrize("target", ["parallel_accumulate", "segmented_max_key"])
    def test_abort_leaves_tables_clean(self, small_social, monkeypatch, target):
        config = LPAConfig()

        def fresh_move(eng):
            labels = np.arange(small_social.num_vertices, dtype=VERTEX_DTYPE)
            outcome = eng.move(
                labels, Frontier(small_social), pick_less=True, iteration=0
            )
            return labels, outcome

        real = getattr(engine_mod, target)

        def fail(*args, **kwargs):
            if target == "parallel_accumulate":
                real(*args, **kwargs)
            raise HashtableFullError(f"injected in {target}")

        eng = make_engine(small_social, config, "hashtable")
        with monkeypatch.context() as mp:
            mp.setattr(engine_mod, target, fail)
            with pytest.raises(HashtableFullError):
                fresh_move(eng)
        assert np.all(eng.tables.keys == EMPTY_KEY)
        assert np.all(eng.tables.values == 0)

        labels, outcome = fresh_move(eng)
        ref_labels, ref_outcome = fresh_move(
            make_engine(small_social, config, "hashtable")
        )
        assert np.array_equal(labels, ref_labels)
        assert outcome.counters.as_dict() == ref_outcome.counters.as_dict()


class TestCompactLayoutDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_bit_identical_labels_and_counters(self, small_web, engine):
        compact = run(small_web, engine, compact_layout=True)
        wide = run(small_web, engine, compact_layout=False)
        assert_identical(compact, wide, engine)
        # The public result is always wide, whatever ran internally.
        assert compact.labels.dtype == VERTEX_DTYPE
        assert wide.labels.dtype == VERTEX_DTYPE

    @pytest.mark.parametrize("engine", ENGINES)
    def test_full_matrix_corner(self, small_social, engine):
        # Extreme corners of the sweep x compact matrix; a zero-rate fault
        # spec reaches the up-front clear through the public API.
        fast = run(small_social, engine, compact_layout=True)
        hooked = ResilienceConfig(faults=FaultSpec(rate=0.0))
        slow = run(small_social, engine, resilience=hooked, compact_layout=False)
        assert_identical(fast, slow, engine)

    def test_initial_labels_outside_int32_fall_back_to_wide(self, triangle):
        big = np.full(3, 2**40, dtype=VERTEX_DTYPE)
        result = nu_lpa(
            triangle,
            LPAConfig(compact_layout=True),
            initial_labels=big,
            warn_on_no_convergence=False,
        )
        assert result.labels.dtype == VERTEX_DTYPE


class TestPersistentKernelDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_labels_identical_launches_amortised(self, small_web, engine):
        on = run(small_web, engine, persistent_kernel=True)
        off = run(small_web, engine, persistent_kernel=False)
        assert np.array_equal(on.labels, off.labels)
        on_c = on.total_counters
        off_c = off.total_counters
        # Same work, fewer launches: only the first launch per kind counts.
        assert on_c.waves == off_c.waves
        assert on_c.sectors_read == off_c.sectors_read
        assert on_c.launches < off_c.launches

        from repro.perf.model import estimate_gpu_seconds

        assert estimate_gpu_seconds(on_c) < estimate_gpu_seconds(off_c)


class TestDegreeRenumber:
    def test_valid_partition_and_determinism(self, small_web):
        a = run(small_web, "hashtable", degree_renumber=True)
        b = run(small_web, "hashtable", degree_renumber=True)
        assert np.array_equal(a.labels, b.labels)
        assert a.labels.dtype == VERTEX_DTYPE
        assert a.labels.min() >= 0
        assert a.labels.max() < small_web.num_vertices
        # The renaming must preserve community quality, not just validity.
        from repro.metrics.modularity import modularity

        base = run(small_web, "hashtable")
        q_renum = modularity(small_web, a.labels)
        q_base = modularity(small_web, base.labels)
        assert q_renum > 0.5 * q_base > 0

    def test_rejects_initial_labels(self, small_web):
        with pytest.raises(ConfigurationError):
            nu_lpa(
                small_web,
                LPAConfig(degree_renumber=True),
                initial_labels=np.zeros(small_web.num_vertices, VERTEX_DTYPE),
            )

    def test_initial_active_is_remapped(self, small_web):
        active = np.zeros(small_web.num_vertices, dtype=bool)
        active[: small_web.num_vertices // 4] = True
        result = nu_lpa(
            small_web,
            LPAConfig(degree_renumber=True),
            initial_active=active,
            warn_on_no_convergence=False,
        )
        assert result.labels.shape[0] == small_web.num_vertices


class TestFusedSteadyStateAllocations:
    """The default hashtable sweep must stay allocation-free at the fixed point."""

    _SLACK_BYTES = 16384

    def test_fused_hashtable_steady_state(self):
        graph = web_graph(1200, avg_degree=6, seed=3).with_compact_layout()
        config = LPAConfig(pruning=False)
        eng = make_engine(graph, config, "hashtable")
        frontier = Frontier(graph, enabled=False, arena=eng.arena)
        labels = np.arange(graph.num_vertices, dtype=VERTEX_DTYPE)
        for it in range(64):
            outcome = eng.move(
                labels, frontier, pick_less=config.pick_less_active(it),
                iteration=it,
            )
            if outcome.changed == 0:
                break
        else:
            pytest.fail("workload did not converge while warming the arena")

        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for it in range(3):
            outcome = eng.move(
                labels, frontier, pick_less=config.pick_less_active(it),
                iteration=it,
            )
            assert outcome.changed == 0
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - before < self._SLACK_BYTES, (
            f"hashtable steady-state iterations allocated {peak - before} bytes"
        )
