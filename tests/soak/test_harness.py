"""The shared soak harness: seed loop, verdict taxonomy, silent gate, schema."""

from dataclasses import dataclass, field
from typing import ClassVar

import pytest

from repro.errors import SchemaValidationError
from repro.observe.schema import SOAK_VERDICTS, validate_soak
from repro.soak import SoakRecord, Verdict, run_soak


@dataclass
class ScriptedLeg:
    """A leg whose seed *i* ends in ``verdicts[i]``; it accepts anything."""

    name: ClassVar[str] = "scripted"
    default_seeds: ClassVar[int] = 2
    accept: ClassVar[dict] = {"attack": frozenset(Verdict)}

    verdicts: list[Verdict]
    calls: list[str] = field(default_factory=list)

    def setup(self, workdir):
        self.calls.append("setup")
        return {"workload": "scripted"}

    def inject(self, i, workdir):
        self.calls.append(f"inject {i}")
        return {"seed": i}

    def recover(self, trial):
        self.calls.append(f"recover {trial['seed']}")
        return {"seed": trial["seed"]}

    def verdict(self, outcome):
        self.calls.append(f"verdict {outcome['seed']}")
        seed = outcome["seed"]
        return SoakRecord(seed, {"attack": self.verdicts[seed]}, details=outcome)

    def unexercised(self, records):
        return None


def test_verdict_taxonomy_matches_schema():
    assert [v.value for v in Verdict] == list(SOAK_VERDICTS)


def test_seed_loop_runs_each_stage_in_order(tmp_path):
    leg = ScriptedLeg([Verdict.IDENTICAL, Verdict.TYPED_ERROR])
    report = run_soak(leg, tmp_path)
    assert leg.calls == [
        "setup",
        "inject 0", "recover 0", "verdict 0",
        "inject 1", "recover 1", "verdict 1",
    ]
    assert report.ok and report.silent == 0
    doc = validate_soak(report.as_dict())
    assert doc["details"] == {"workload": "scripted"}
    assert doc["verdicts"]["typed-error"] == 1


def test_silent_wrong_fails_even_where_a_leg_accepts_it(tmp_path):
    report = run_soak(ScriptedLeg([Verdict.VALID, Verdict.WRONG]), tmp_path)
    assert [r.ok for r in report.records] == [True, False]
    assert report.silent == 1
    assert not report.ok
    assert "1 silent" in report.summary()
    validate_soak(report.as_dict())


@pytest.mark.parametrize("tamper, match", [
    (lambda d: d.update(silent=0), "silent"),
    (lambda d: d.update(ok=True), "ok"),
    (lambda d: d["records"][1]["verdicts"].update(attack="lost"), "unknown verdict"),
])
def test_inconsistent_documents_rejected(tmp_path, tamper, match):
    doc = run_soak(ScriptedLeg([Verdict.VALID, Verdict.WRONG]), tmp_path).as_dict()
    tamper(doc)
    with pytest.raises(SchemaValidationError, match=match):
        validate_soak(doc)
