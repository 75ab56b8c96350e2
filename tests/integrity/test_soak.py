"""Smoke tests for the integrity leg of the soak harness (the full run is
a benchmark job)."""

import pytest

from repro.graph.generators import web_graph
from repro.observe.schema import validate_soak
from repro.soak import IntegrityLeg, flip_bit, run_soak


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    leg = IntegrityLeg(web_graph(120, seed=9), seed=0)
    return run_soak(leg, tmp_path_factory.mktemp("soak"), seeds=3)


class TestSoak:
    def test_no_silent_wrong_answers(self, report):
        assert report.ok
        assert report.silent == 0
        assert len(report.records) == 3

    def test_every_leg_recovered(self, report):
        for record in report.records:
            for attack in ("live", "checkpoint", "snapshot"):
                assert record.details[attack]["identical"]

    def test_corruption_was_actually_exercised(self, report):
        # Across 3 schedules at least one leg must have fired a detection;
        # an all-harmless soak would prove nothing.
        total = sum(
            r.details["live"]["detections"] + r.details["checkpoint"]["detected"]
            + r.details["snapshot"]["detected"]
            for r in report.records
        )
        assert total > 0

    def test_report_validates_against_schema(self, report):
        validate_soak(report.as_dict())

    def test_summary_mentions_counts(self, report):
        assert "3 schedule(s)" in report.summary()
        assert "0 silent" in report.summary()


class TestFlipBit:
    def test_flip_is_involutive(self, tmp_path):
        target = tmp_path / "blob"
        target.write_bytes(bytes(range(32)))
        flip_bit(target, 5, 1)
        assert target.read_bytes() != bytes(range(32))
        flip_bit(target, 5, 1)
        assert target.read_bytes() == bytes(range(32))

    def test_offsets_wrap(self, tmp_path):
        target = tmp_path / "blob"
        target.write_bytes(b"\x00" * 4)
        flip_bit(target, 6, 9)  # byte 6 % 4 = 2, bit 9 % 8 = 1
        assert target.read_bytes() == b"\x00\x00\x02\x00"


def _outcome(seed, live, ckpt, snap):
    return {
        "seed": seed,
        "live": {"detections": live[0], "identical": live[1]},
        "checkpoint": {"flip": "x", "detected": ckpt[0], "identical": ckpt[1]},
        "snapshot": {"flip": "y", "detected": snap[0], "identical": snap[1]},
        "guard": {},
    }


class TestRecordAccounting:
    def test_silent_counts_undetected_wrong_legs(self):
        record = IntegrityLeg(graph=None).verdict(
            _outcome(0, (0, False), (True, False), (False, True))
        )
        # live: wrong + undetected = silent; ckpt: wrong but detected (not
        # silent, still not ok); snap: harmless.
        assert record.silent == 1
        assert not record.ok

    def test_clean_record_is_ok(self):
        record = IntegrityLeg(graph=None).verdict(
            _outcome(1, (2, True), (True, True), (False, True))
        )
        assert record.silent == 0
        assert record.ok


class TestUnflippedCheckpoint:
    def test_no_checkpoint_is_not_a_detection(self, tmp_path):
        # A run that wrote no checkpoint had nothing flipped: the attack
        # is harmless, and it must not count toward the detection gate.
        leg = IntegrityLeg(web_graph(120, seed=9), seed=0)
        leg.setup(tmp_path)
        trial = leg.inject(0, tmp_path / "seed")
        trial["ckpt_flip"] = ""
        outcome = leg.recover(trial)
        assert outcome["checkpoint"] == {
            "flip": "", "detected": False, "identical": True,
        }
        assert leg.verdict(outcome).verdicts["checkpoint"] == "absorbed-identical"
