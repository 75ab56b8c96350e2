"""Tests for delta batches, validation policies, and the dead letter."""

import hashlib
import json

import numpy as np
import pytest

from repro.errors import DeltaValidationError
from repro.graph.datasets import generate_standin
from repro.stream.delta import (
    DeadLetterFile,
    DeltaBatch,
    DeltaOp,
    random_delta_batches,
    validate_batch,
)


def _batch(*ops, num_vertices=None):
    return DeltaBatch(ops=tuple(ops), num_vertices=num_vertices)


class TestDeltaBatch:
    def test_json_roundtrip(self):
        batch = _batch(
            DeltaOp("add", 0, 1, weight=2.0),
            DeltaOp("remove", 1, 2),
            DeltaOp("update", 0, 1, weight=0.5),
            num_vertices=5,
        )
        again = DeltaBatch.from_dict(batch.as_dict())
        assert again == batch

    def test_from_arrays(self):
        batch = DeltaBatch.from_arrays(
            "add", [0, 1], [1, 2], [1.0, 2.0], num_vertices=4
        )
        assert len(batch) == 2
        assert batch.count("add") == 2
        assert batch.ops[1] == DeltaOp("add", 1, 2, weight=2.0)

    def test_count_by_kind(self):
        batch = _batch(DeltaOp("add", 0, 1), DeltaOp("remove", 0, 1))
        assert batch.count("add") == 1
        assert batch.count("update") == 0


class TestValidateStrict:
    def test_clean_batch_passes(self):
        clean, report = validate_batch(
            _batch(DeltaOp("add", 0, 1, weight=1.0)), graph_vertices=3
        )
        assert report.ok and len(clean) == 1

    def test_unknown_op_raises(self):
        with pytest.raises(DeltaValidationError) as exc:
            validate_batch(_batch(DeltaOp("upsert", 0, 1)), graph_vertices=3)
        assert "unknown-op" in exc.value.report.by_code()

    def test_out_of_range_endpoint_raises(self):
        with pytest.raises(DeltaValidationError) as exc:
            validate_batch(_batch(DeltaOp("add", 0, 9)), graph_vertices=3)
        assert "endpoint-out-of-range" in exc.value.report.by_code()

    def test_growth_legalises_new_endpoints(self):
        clean, report = validate_batch(
            _batch(DeltaOp("add", 0, 4), num_vertices=5), graph_vertices=3
        )
        assert report.ok and clean.num_vertices == 5

    def test_shrinking_vertex_set_raises(self):
        with pytest.raises(DeltaValidationError) as exc:
            validate_batch(
                _batch(DeltaOp("add", 0, 1), num_vertices=2), graph_vertices=5
            )
        assert "shrinking-vertex-set" in exc.value.report.by_code()

    def test_nan_weight_raises(self):
        with pytest.raises(DeltaValidationError) as exc:
            validate_batch(
                _batch(DeltaOp("add", 0, 1, weight=float("nan"))),
                graph_vertices=3,
            )
        assert "nan-weight" in exc.value.report.by_code()

    def test_update_without_weight_raises(self):
        with pytest.raises(DeltaValidationError) as exc:
            validate_batch(_batch(DeltaOp("update", 0, 1)), graph_vertices=3)
        assert "missing-weight" in exc.value.report.by_code()


class TestValidateRepair:
    def test_weight_defects_repaired(self):
        clean, report = validate_batch(
            _batch(
                DeltaOp("add", 0, 1, weight=float("nan")),
                DeltaOp("add", 0, 2, weight=-3.0),
            ),
            graph_vertices=3,
            policy="repair",
        )
        assert report.repaired_ops == 2
        assert clean.ops[0].weight == 1.0  # NaN -> neutral weight
        assert clean.ops[1].weight == 0.0  # negative -> clamp

    def test_unrepairable_quarantined(self, tmp_path):
        dead = DeadLetterFile(tmp_path / "dead.jsonl")
        clean, report = validate_batch(
            _batch(DeltaOp("upsert", 0, 1), DeltaOp("add", 0, 1)),
            graph_vertices=3,
            policy="repair",
            dead_letter=dead,
            seq=7,
        )
        assert report.quarantined_ops == 1
        assert len(clean) == 1
        (entry,) = dead.entries()
        assert entry["seq"] == 7
        assert entry["reasons"] == ["unknown-op"]
        assert entry["op"]["op"] == "upsert"


class TestValidateQuarantine:
    def test_everything_bad_is_dead_lettered_not_dropped(self, tmp_path):
        dead = DeadLetterFile(tmp_path / "dead.jsonl")
        clean, report = validate_batch(
            _batch(
                DeltaOp("add", 0, 1, weight=float("nan")),
                DeltaOp("add", -1, 1),
                DeltaOp("add", 1, 2),
            ),
            graph_vertices=3,
            policy="quarantine",
            dead_letter=dead,
            seq=1,
        )
        assert len(clean) == 1
        assert report.quarantined_ops == 2
        assert len(dead) == 2
        codes = {r for e in dead.entries() for r in e["reasons"]}
        assert codes == {"nan-weight", "negative-endpoint"}

    def test_shrink_declaration_cleared(self):
        clean, report = validate_batch(
            _batch(DeltaOp("add", 0, 1), num_vertices=2),
            graph_vertices=5,
            policy="quarantine",
        )
        assert clean.num_vertices is None
        assert report.ok  # resolved by repair, not silently ignored


class TestDeadLetterFile:
    def test_torn_tail_tolerated(self, tmp_path):
        dead = DeadLetterFile(tmp_path / "dead.jsonl")
        dead.append(1, DeltaOp("add", 0, 1), ["nan-weight"])
        dead.append(2, DeltaOp("remove", 1, 2), ["missing-edge"])
        with open(dead.path, "a") as fh:
            fh.write('{"seq": 3, "op"')  # crash mid-append
        assert len(dead) == 2
        assert [e["seq"] for e in dead.entries()] == [1, 2]

    def test_missing_file_is_empty(self, tmp_path):
        assert DeadLetterFile(tmp_path / "nope.jsonl").entries() == []


class TestRandomDeltaBatches:
    @pytest.mark.parametrize("dataset,scale,seed,num_batches,batch_size,grow_every,digest", [
        ("com-Orkut", 0.03, 0, 6, 5, 3,
         "2204c68df1db0548d16d7282fbf269f500c409e0a534c94df8ea18aea2a33dbc"),
        ("com-Orkut", 0.03, 7, 6, 5, 3,
         "12eefb46aa8e45ca7364ec9f272417178e9b17a6a0fb30dcc60babf0d1964af4"),
        ("asia_osm", 0.05, 3, 8, 6, 2,
         "2609f9072bce51671afdaaf08ec0be19fc3d513257fa632781b333872c387ef0"),
        ("it-2004", 0.02, 1, 4, 10, 0,
         "6ee7fae875bfabfe09843b8701d2002eee3374ffca35a23eb8f9c5c66017f2f1"),
    ])
    def test_pinned_batches(self, dataset, scale, seed, num_batches, batch_size,
                            grow_every, digest):
        """Fixed seeds give byte-identical batches (the soaks replay them)."""
        graph = generate_standin(dataset, scale=scale, seed=seed)
        batches = random_delta_batches(
            graph, np.random.default_rng([seed, num_batches]),
            num_batches=num_batches, batch_size=batch_size,
            grow_every=grow_every,
        )
        blob = json.dumps([b.as_dict() for b in batches], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest
