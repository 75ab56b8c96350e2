"""Streaming epochs on the query read path: publish, diff, kill/restart."""

import numpy as np
import pytest

from repro.graph.datasets import generate_standin
from repro.observe.trace import Tracer
from repro.service import (
    DetectionService,
    GraphRef,
    JobSpec,
    JobState,
    QueryEngine,
    ServiceConfig,
)
from repro.service.read import read_header
from repro.soak import InjectedCrash
from repro.stream import DeltaLog, StreamProcessor, random_delta_batches

DATASET = "com-Orkut"
SCALE = 0.03
SEED = 11
BATCHES = 4


def _fill_log(directory, batches=BATCHES):
    base = generate_standin(DATASET, scale=SCALE, seed=SEED)
    rng = np.random.default_rng(SEED)
    log = DeltaLog(directory)
    for batch in random_delta_batches(
        base, rng, num_batches=batches, batch_size=5, grow_every=2
    ):
        log.append(batch)
    return base, log


def _spec(job_id, stream_dir):
    return JobSpec(
        job_id=job_id,
        graph=GraphRef(kind="dataset", name=DATASET, scale=SCALE, seed=SEED),
        kind="subscription",
        stream_dir=str(stream_dir),
    )


def _reference_epoch_labels(base, stream_dir, tmp_path):
    """Clean-room replay: label array after every epoch, by epoch number."""
    proc = StreamProcessor(base, stream_dir, tmp_path / "ref-epochs")
    proc.recover()
    labels = {proc.epoch: proc.labels.copy()}
    while proc.step() is not None:
        labels[proc.epoch] = proc.labels.copy()
    return labels


class TestEpochPublishing:
    def test_every_epoch_is_published(self, tmp_path):
        _fill_log(tmp_path / "log")
        svc = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "jobs", snapshot_dir=tmp_path / "snaps",
        ))
        svc.submit(_spec("sub", tmp_path / "log"))
        svc.drain()
        assert svc.result("sub").state is JobState.COMPLETED
        versions = svc.read_catalog.versions("sub")
        headers = [read_header(p) for p in versions]
        # Epoch 0 (initial full detection) through the log head, in order.
        assert [h["epoch"] for h in headers] == list(range(BATCHES + 1))
        assert all(h["source"] == "epoch" for h in headers)

    def test_published_labels_match_clean_replay(self, tmp_path):
        base, _ = _fill_log(tmp_path / "log")
        svc = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "jobs", snapshot_dir=tmp_path / "snaps",
        ))
        svc.submit(_spec("sub", tmp_path / "log"))
        svc.drain()
        reference = _reference_epoch_labels(base, tmp_path / "log", tmp_path)
        for path in svc.read_catalog.versions("sub"):
            header = read_header(path)
            from repro.service.read import Snapshot

            with Snapshot.open(path) as snap:
                assert np.array_equal(
                    np.asarray(snap.labels), reference[header["epoch"]]
                )

    def test_diff_equals_epoch_label_changes(self, tmp_path):
        base, _ = _fill_log(tmp_path / "log")
        svc = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "jobs", snapshot_dir=tmp_path / "snaps",
        ))
        svc.submit(_spec("sub", tmp_path / "log"))
        svc.drain()
        reference = _reference_epoch_labels(base, tmp_path / "log", tmp_path)
        eng = QueryEngine(svc.read_catalog)
        versions = svc.read_catalog.versions("sub")
        for older, newer in zip(versions, versions[1:]):
            d = eng.diff(
                "sub",
                from_version=svc.read_catalog.version_of(older),
                to_version=svc.read_catalog.version_of(newer),
            )
            prev = reference[d.from_epoch]
            cur = reference[d.to_epoch]
            common = min(prev.shape[0], cur.shape[0])
            assert np.array_equal(
                d.changed, np.flatnonzero(prev[:common] != cur[:common])
            )
            assert np.array_equal(
                d.grown, np.arange(common, max(prev.shape[0], cur.shape[0]))
            )

    def test_epoch_retention_follows_snapshot_keep(self, tmp_path):
        _fill_log(tmp_path / "log")
        svc = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "jobs", snapshot_dir=tmp_path / "snaps",
            snapshot_keep=2,
        ))
        svc.submit(_spec("sub", tmp_path / "log"))
        svc.drain()
        versions = svc.read_catalog.versions("sub")
        assert len(versions) == 2
        assert read_header(versions[-1])["epoch"] == BATCHES


class TestKillRestart:
    def _crashing_config(self, tmp_path, crash_epoch, point):
        seen = {"n": 0}
        armed = {"live": True}

        def chaos_hook(chaos_point, record):
            if chaos_point == "pre-epoch":
                seen["n"] += 1
            if (
                armed["live"]
                and seen["n"] == crash_epoch
                and chaos_point == point
            ):
                armed["live"] = False
                raise InjectedCrash(f"death at epoch {crash_epoch} {point}")

        return ServiceConfig(
            journal_dir=tmp_path / "jobs",
            snapshot_dir=tmp_path / "snaps",
            chaos_hook=chaos_hook,
        )

    @pytest.mark.parametrize("point", ["pre-epoch", "mid-epoch-apply"])
    def test_crash_before_save_serves_previous_epoch(self, tmp_path, point):
        """A killed service leaves latest() on the last *published* epoch.

        ``mid-epoch-apply`` fires after detection but before the epoch-N
        journal write and publish, so the newest snapshot must still be
        epoch N-1 — CRC-verified, never a torn file.
        """
        _fill_log(tmp_path / "log")
        crash_epoch = 2
        config = self._crashing_config(tmp_path, crash_epoch, point)
        svc = DetectionService(config)
        svc.submit(_spec("sub", tmp_path / "log"))
        with pytest.raises(InjectedCrash):
            svc.drain()

        # Served state after the crash: the previous epoch, fully intact.
        snap = svc.read_catalog.latest("sub")  # CRC-verified open
        assert snap.source == "epoch"
        assert snap.epoch == crash_epoch - 1
        assert svc.read_catalog.skipped == []  # nothing torn on disk
        snap.close()

        # Restart: recovery + drain catches up, read path follows.
        svc2 = DetectionService(config)
        svc2.drain()
        assert svc2.result("sub").state is JobState.COMPLETED
        final = svc2.read_catalog.latest("sub")
        assert final.epoch == BATCHES
        assert np.array_equal(
            np.asarray(final.labels), svc2.result("sub").outcome.labels
        )
        final.close()

    def test_crash_after_publish_dedupes_on_restart(self, tmp_path):
        """post-epoch death: epoch N journaled *and* published before the
        crash; recovery must re-serve it without minting a new version."""
        _fill_log(tmp_path / "log")
        crash_epoch = 2
        config = self._crashing_config(tmp_path, crash_epoch, "post-epoch")
        svc = DetectionService(config)
        svc.submit(_spec("sub", tmp_path / "log"))
        with pytest.raises(InjectedCrash):
            svc.drain()
        snap = svc.read_catalog.latest("sub")
        assert snap.epoch == crash_epoch
        versions_before = len(svc.read_catalog.versions("sub"))
        snap.close()

        svc2 = DetectionService(config)
        svc2.drain()
        headers = [
            read_header(p) for p in svc2.read_catalog.versions("sub")
        ]
        epochs = [h["epoch"] for h in headers]
        assert epochs == sorted(set(epochs))  # no duplicate epochs
        assert len(epochs) == versions_before + (BATCHES - crash_epoch)

    def test_torn_newest_snapshot_falls_back(self, tmp_path):
        """Simulated torn write over the newest file: latest() must fall
        back to the previous CRC-verified epoch, not serve garbage."""
        _fill_log(tmp_path / "log")
        svc = DetectionService(ServiceConfig(
            journal_dir=tmp_path / "jobs", snapshot_dir=tmp_path / "snaps",
        ))
        svc.submit(_spec("sub", tmp_path / "log"))
        svc.drain()
        versions = svc.read_catalog.versions("sub")
        newest = versions[-1]
        raw = newest.read_bytes()
        newest.write_bytes(raw[: len(raw) - len(raw) // 3])  # torn tail

        eng = QueryEngine(svc.read_catalog)
        snap = eng.snapshot_for("sub")
        assert snap.epoch == BATCHES - 1
        assert len(svc.read_catalog.skipped) == 1
        stats = eng.stats()
        assert stats["skipped"] == 1
