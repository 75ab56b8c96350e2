"""Kill/restart soak: the service's recovery acceptance test.

Across >= 20 seeded kill schedules, every in-flight job must resume and
complete bit-identically to a crash-free reference run, with no job lost
and none executed twice.
"""

import pytest

from repro.errors import ConfigurationError
from repro.service import GraphRef, JobSpec, ServiceConfig
from repro.soak import ServiceLeg, run_soak

#: The workload each schedule replays: mixed datasets and engines.
WORKLOAD = [
    JobSpec.dataset("soak-0", "asia_osm", scale=0.05, max_iterations=12,
                    engine="vectorized"),
    JobSpec.dataset("soak-1", "europe_osm", scale=0.05, max_iterations=12,
                    engine="hashtable"),
    JobSpec.dataset("soak-2", "kmer_V1r", scale=0.05, max_iterations=12,
                    engine="vectorized"),
    JobSpec.dataset("soak-3", "asia_osm", scale=0.08, seed=7,
                    max_iterations=12, engine="hashtable"),
]


class TestKillRestartSoak:
    @pytest.mark.parametrize("seed", range(20))
    def test_soak_schedule_recovers_bit_identically(self, tmp_path, seed):
        leg = ServiceLeg(WORKLOAD, ServiceConfig(workers=2), seed=seed)
        record = run_soak(leg, tmp_path, seeds=1).records[0]
        outcome = record.details
        assert outcome["crashes"] >= 1, "schedule injected no deaths"
        assert outcome["lost"] == []
        assert outcome["duplicated"] == []
        assert outcome["mismatched"] == []
        assert outcome["identical"] == len(WORKLOAD)
        assert record.ok

    def test_outcome_serialises(self, tmp_path):
        leg = ServiceLeg(WORKLOAD[:2], ServiceConfig(workers=1), seed=99)
        doc = run_soak(leg, tmp_path, seeds=1).records[0].as_dict()
        assert doc["ok"] is True
        assert doc["details"]["jobs"] == 2
        assert isinstance(doc["details"]["crashes"], int)

    def test_in_memory_workload_rejected(self, tmp_path):
        bad = [JobSpec(job_id="m", graph=GraphRef(kind="memory", name="m"))]
        with pytest.raises(ConfigurationError):
            run_soak(ServiceLeg(bad), tmp_path)

    def test_outcome_flags_surface_in_ok(self):
        record = ServiceLeg(WORKLOAD).verdict({
            "seed": 0, "jobs": 2, "crashes": 1, "restarts": 1, "identical": 1,
            "lost": ["x"], "duplicated": [], "mismatched": [],
        })
        assert not record.ok
