"""Subscription jobs: streaming detection through the DetectionService."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graph.datasets import generate_standin
from repro.service import (
    DetectionService,
    GraphRef,
    JobSpec,
    JobState,
    ServiceConfig,
)
from repro.soak import InjectedCrash
from repro.stream import DeltaLog, StreamProcessor, random_delta_batches

DATASET = "com-Orkut"
SCALE = 0.03
SEED = 5


def _fill_log(directory, batches=3):
    base = generate_standin(DATASET, scale=SCALE, seed=SEED)
    rng = np.random.default_rng(SEED)
    log = DeltaLog(directory)
    for batch in random_delta_batches(
        base, rng, num_batches=batches, batch_size=4, grow_every=2
    ):
        log.append(batch)
    return base, log


def _spec(job_id, stream_dir, **kwargs):
    return JobSpec(
        job_id=job_id,
        graph=GraphRef(kind="dataset", name=DATASET, scale=SCALE, seed=SEED),
        kind="subscription",
        stream_dir=str(stream_dir),
        **kwargs,
    )


class TestSpecValidation:
    def test_subscription_requires_stream_dir(self):
        with pytest.raises(ConfigurationError):
            JobSpec(
                job_id="s",
                graph=GraphRef(kind="dataset", name=DATASET),
                kind="subscription",
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec(
                job_id="s",
                graph=GraphRef(kind="dataset", name=DATASET),
                kind="cron",
            )

    def test_bad_delta_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _spec("s", tmp_path, delta_policy="yolo")

    def test_negative_hops_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _spec("s", tmp_path, hops=-1)

    def test_journal_roundtrip_keeps_stream_fields(self, tmp_path):
        spec = _spec("s", tmp_path, hops=2, delta_policy="quarantine")
        again = JobSpec.from_dict(spec.as_dict())
        assert again == spec

    def test_old_journal_records_default_to_detect(self):
        raw = JobSpec.dataset("old", DATASET).as_dict()
        for key in ("kind", "stream_dir", "hops", "delta_policy"):
            raw.pop(key)
        spec = JobSpec.from_dict(raw)
        assert spec.kind == "detect" and spec.stream_dir is None


class TestSubscriptionRuns:
    def test_catches_up_to_log_head(self, tmp_path):
        _, log = _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        assert service.drain() == 1
        record = service.result("sub")
        assert record.state is JobState.COMPLETED
        assert record.outcome.iterations == log.head_seq
        assert "caught up at epoch 3" in record.outcome.stop_detail
        assert record.outcome.labels is not None

    def test_matches_direct_processor(self, tmp_path):
        base, log = _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()

        direct = StreamProcessor(base, tmp_path / "wal", tmp_path / "direct")
        direct.recover()
        direct.run_to_head()
        assert np.array_equal(
            service.result("sub").outcome.labels, direct.labels
        )

    def test_epochs_live_under_service_journal(self, tmp_path):
        _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        stream_dir = service.journal.stream_dir("sub")
        assert sorted(p.name for p in stream_dir.glob("epoch-*.npz"))

    def test_runs_without_a_journal(self, tmp_path):
        _fill_log(tmp_path / "wal")
        service = DetectionService(ServiceConfig())
        service.submit(_spec("nojournal", tmp_path / "wal"))
        service.drain()
        record = service.result("nojournal")
        assert record.state is JobState.COMPLETED
        # Epochs fall back to a directory next to the WAL.
        assert list((tmp_path / "wal" / "epochs").glob("epoch-*.npz"))


class TestKillRestart:
    def test_crash_then_restart_is_bit_identical(self, tmp_path):
        _fill_log(tmp_path / "wal")
        # Reference: no crashes.
        ref = DetectionService(ServiceConfig(journal_dir=tmp_path / "ref"))
        ref.submit(_spec("sub", tmp_path / "wal"))
        ref.drain()
        ref_labels = ref.result("sub").outcome.labels

        fired = {"n": 0}

        def chaos(point, record):
            if point == "mid-epoch-apply" and fired["n"] == 0:
                fired["n"] = 1
                raise InjectedCrash("die mid-epoch-apply")

        crashed = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "journal", chaos_hook=chaos,
        ))
        crashed.submit(_spec("sub", tmp_path / "wal"))
        with pytest.raises(InjectedCrash):
            crashed.drain()

        # A fresh service over the same journal resumes and finishes.
        revived = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "journal",
        ))
        assert "sub" in revived.jobs  # recovered from the journal
        revived.drain()
        record = revived.result("sub")
        assert record.state is JobState.COMPLETED
        assert np.array_equal(record.outcome.labels, ref_labels)


class TestAdvance:
    def test_advance_processes_new_batches(self, tmp_path):
        base, log = _fill_log(tmp_path / "wal")
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(_spec("sub", tmp_path / "wal"))
        service.drain()
        assert service.result("sub").outcome.iterations == 3

        # Nothing new: advance declines.
        assert service.advance_subscription("sub") is False

        rng = np.random.default_rng(99)
        for batch in random_delta_batches(base, rng, num_batches=2,
                                          batch_size=3):
            log.append(batch)
        assert service.advance_subscription("sub") is True
        service.drain()
        record = service.result("sub")
        assert record.state is JobState.COMPLETED
        assert record.outcome.iterations == 5

    def test_advance_rejects_detect_jobs(self, tmp_path):
        service = DetectionService(
            ServiceConfig(journal_dir=tmp_path / "journal")
        )
        service.submit(JobSpec.dataset("plain", DATASET, scale=SCALE,
                                       seed=SEED, max_iterations=8))
        service.drain()
        with pytest.raises(ConfigurationError):
            service.advance_subscription("plain")
