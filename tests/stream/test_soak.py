"""Kill/restart soak over streaming subscriptions (scaled down).

The full 20-seed soak runs in CI via ``benchmarks/bench_soak.py``; this
keeps a small always-on slice in the tier-1 suite so a recovery
regression fails fast.
"""

import pytest

from repro.errors import SchemaValidationError
from repro.observe.schema import SOAK_SCHEMA, SOAK_SCHEMA_VERSION, validate_soak
from repro.soak import GAP_BOUND, StreamLeg, run_soak


def test_stream_soak_small(tmp_path):
    report = run_soak(StreamLeg(), tmp_path, seeds=3)
    assert report.ok, [r.as_dict() for r in report.records if not r.ok]
    assert len(report.records) == 3
    for record in report.records:
        seed = record.details
        # Every schedule must actually kill something, in both roles.
        assert seed["producer_deaths"] >= 1
        assert seed["service_deaths"] >= 1
        assert seed["labels_identical"] and seed["graph_identical"]
        assert seed["modularity_gap"] <= GAP_BOUND
    # At least one torn tail across the run: the mid-append death mode
    # must exercise the WAL's truncate-on-open path.
    assert sum(r.details["torn_tails"] for r in report.records) >= 1


class TestStreamSoakSchema:
    def _doc(self):
        return {
            "schema": SOAK_SCHEMA,
            "version": SOAK_SCHEMA_VERSION,
            "leg": "stream",
            "num_seeds": 1,
            "ok": True,
            "silent": 0,
            "verdicts": {
                "absorbed-identical": 1, "absorbed-valid": 0,
                "typed-error": 0, "silent/wrong": 0,
            },
            "summary": "1 schedule(s): 1 absorbed-identical, 0 silent",
            "details": {
                "dataset": "com-Orkut",
                "scale": 0.03,
                "batches_per_seed": 6,
                "batch_size": 5,
                "hops": 1,
                "rates": {
                    "deltas_per_second": 100.0,
                    "epochs_per_second": 10.0,
                    "frontier_fraction_mean": 0.4,
                    "speedup_vs_scratch": 1.5,
                },
            },
            "records": [{
                "seed": 0, "ok": True, "silent": 0,
                "verdicts": {"stream": "absorbed-identical"},
                "failures": [],
                "details": {
                    "seed": 0, "batches": 6, "epochs": 6,
                    "producer_deaths": 3, "torn_tails": 1,
                    "service_deaths": 4, "restarts": 4,
                    "labels_identical": True, "graph_identical": True,
                    "modularity_gap": 0.0,
                },
            }],
        }

    def test_valid_document_passes(self):
        doc = self._doc()
        assert validate_soak(doc) is doc

    def test_seed_count_mismatch_rejected(self):
        doc = self._doc()
        doc["num_seeds"] = 2
        with pytest.raises(SchemaValidationError, match="seeds"):
            validate_soak(doc)

    def test_bad_frontier_fraction_rejected(self):
        doc = self._doc()
        doc["details"]["rates"]["frontier_fraction_mean"] = 1.5
        with pytest.raises(SchemaValidationError, match="fraction"):
            validate_soak(doc)
