"""Smoke test for the memory leg of the soak harness (full run in CI)."""

import numpy as np

from repro.core.config import LPAConfig
from repro.errors import DeviceOomError
from repro.graph.datasets import generate_standin
from repro.observe.schema import validate_soak
from repro.observe.trace import FaultRungEvent
from repro.resilience.faults import FaultSpec
from repro.soak import MemoryLeg, run_soak


def _soak(tmp_path, *, seeds, seed, engine="hashtable"):
    graph = generate_standin("asia_osm", scale=0.05, seed=42)
    leg = MemoryLeg(graph, LPAConfig(max_iterations=10), engine=engine, seed=seed)
    return run_soak(leg, tmp_path, seeds=seeds)


class TestMemorySoak:
    def test_two_schedules_pass_and_validate(self, tmp_path):
        report = _soak(tmp_path, seeds=2, seed=7)
        assert report.ok, report.summary()
        assert report.silent == 0
        assert len(report.records) == 2
        doc = validate_soak(report.as_dict())
        for record in doc["records"]:
            details = record["details"]
            # Pressure actually happened on every schedule.
            assert details["live"]["ooms"] + details["shrink"]["ooms"] >= 1
            assert details["admission"]["rejected"]
            assert details["reconcile"]["within_tolerance"]
            assert details["reconcile"]["identical"]
            assert 0.0 < details["reconcile"]["utilization"] <= 1.0 + 0.35

    def test_schedules_are_deterministic(self, tmp_path):
        a = _soak(tmp_path / "a", seeds=1, seed=3).as_dict()
        b = _soak(tmp_path / "b", seeds=1, seed=3).as_dict()
        assert a == b

    def test_vectorized_engine_supported(self, tmp_path):
        report = _soak(tmp_path, seeds=1, seed=5, engine="vectorized")
        assert report.silent == 0
        details = report.records[0].details
        assert details["admission"]["rejected"]
        assert details["reconcile"]["identical"]
        validate_soak(report.as_dict())

    def test_labels_survive_every_leg(self, tmp_path):
        report = _soak(tmp_path, seeds=2, seed=11)
        for record in report.records:
            for attack in ("live", "shrink"):
                if record.details[attack]["absorbed"]:
                    assert record.details[attack]["valid"]
        assert isinstance(report.as_dict()["records"][0]["details"]["memory"], dict)
        assert np.isfinite(report.records[0].details["reconcile"]["deviation"])


class TestTypedStormCounts:
    """A storm that ends in a typed refusal counts the OOMs it recorded."""

    def _storm(self, monkeypatch, events):
        leg = MemoryLeg(generate_standin("asia_osm", scale=0.05, seed=42),
                        LPAConfig(max_iterations=10))
        leg.setup(None)

        def refused(config, resilience=None, tracer=None):
            for event in events:
                tracer.emit(event)
            raise DeviceOomError("budget spent")

        monkeypatch.setattr(leg, "_run", refused)
        return leg._storm(1.5, FaultSpec(kinds=("oom",), rate=1.0, seed=1,
                                         max_fires=3))

    def test_counts_recorded_ooms_not_the_cap(self, monkeypatch):
        rung = FaultRungEvent(iteration=2, attempt=0, fault="DeviceOomError",
                              action="shrink-tables")
        other = FaultRungEvent(iteration=2, attempt=1, fault="KernelTimeoutError",
                               action="retry")
        fields, result = self._storm(monkeypatch, [rung, other, rung])
        assert result is None
        assert fields == {"ooms": 2, "absorbed": False, "valid": True}

    def test_refusal_before_any_fire_counts_zero(self, monkeypatch):
        fields, _ = self._storm(monkeypatch, [])
        assert fields["ooms"] == 0
