"""Tests for ``repro.storage``: journaling, snapshots, recovery, corruption.

The headline guarantee — a run killed mid-flight recovers to state
byte-identical to an uninterrupted run — is pinned here for **all 12**
registered structure families (the recovery-gate CI job enforces the
same property end-to-end through the CLI with a real SIGKILL).
"""

import json
import os
import shutil
import sqlite3

import pytest

from repro.api import Cluster, available_structures
from repro.engine import BatchExecutor
from repro.errors import StorageError
from repro.net.network import Network
from repro.onedim import SkipWeb1D
from repro.storage import (
    FORMAT_VERSION,
    JsonlStorage,
    LogRecord,
    SqliteStorage,
    committed_prefix,
    content_digest,
    decode_record,
    encode_record,
    open_storage,
    restore_snapshot,
)
from repro.storage.workload import (
    _run_step,
    report_json,
    resume_workload,
    run_workload,
    workload_specs,
)
from repro.workloads import uniform_keys

SEED = 11
KEYS = uniform_keys(24, seed=3)


def _partial_workload(structure, store, crash_after, steps, snapshot_every=0):
    """Run the first ``crash_after`` workload steps, then abandon the cluster.

    Mirrors ``run_workload`` up to the crash point: no ``close()``, no
    ``save()`` — exactly the state a SIGKILL leaves behind, since every
    committed record was already flushed to the log.
    """
    spec = workload_specs()[structure]
    items = spec.items(SEED)
    cluster = Cluster(
        structure=structure,
        items=items,
        seed=SEED,
        storage=store,
        snapshot_every=snapshot_every,
        **spec.kwargs(),
    )
    cluster._workload_items = items
    cluster._durability.record_note(
        {"workload": {"structure": structure, "steps": steps, "seed": SEED}}
    )
    for step in range(crash_after):
        _run_step(cluster, spec, SEED, step)
    return cluster  # abandoned, deliberately not closed


def _journaled_cluster(tmp_path, name="log.jsonl", **extra):
    store = str(tmp_path / name)
    return Cluster(structure="skipweb1d", items=KEYS, seed=3, storage=store, **extra), store


class TestKillAndRecoverEveryFamily:
    def test_workload_covers_every_registered_family(self):
        assert sorted(workload_specs()) == available_structures()

    @pytest.mark.parametrize("structure", sorted(workload_specs()))
    def test_crash_and_recover_is_byte_identical(self, structure, tmp_path):
        steps, crash_after = 5, 2
        baseline = report_json(
            run_workload(
                structure, steps=steps, seed=SEED, storage=str(tmp_path / "a.jsonl")
            )
        )
        store = str(tmp_path / "b.jsonl")
        _partial_workload(structure, store, crash_after, steps)
        resumed = report_json(resume_workload(store))
        assert resumed == baseline

    def test_crash_and_recover_sqlite_with_snapshots(self, tmp_path):
        steps = 6
        baseline = report_json(
            run_workload(
                "skipgraph", steps=steps, seed=SEED, storage=str(tmp_path / "a.db")
            )
        )
        store = str(tmp_path / "b.db")
        _partial_workload("skipgraph", store, 4, steps, snapshot_every=2)
        resumed = report_json(resume_workload(store))
        assert resumed == baseline

    def test_recovery_after_torn_tail_trim(self, tmp_path):
        steps = 5
        baseline = report_json(
            run_workload(
                "skipweb1d", steps=steps, seed=SEED, storage=str(tmp_path / "a.jsonl")
            )
        )
        store = str(tmp_path / "b.jsonl")
        _partial_workload("skipweb1d", store, 2, steps)
        with open(os.path.join(store, "log.jsonl"), "a") as fh:
            fh.write('{"seq": 99, "kind": "bat')  # torn mid-record write
        with pytest.raises(StorageError, match="torn"):
            resume_workload(store)
        resumed = report_json(resume_workload(store, trim_torn_tail=True))
        assert resumed == baseline


class _LegacyJournal:
    """Shared run of a journal fixture written by an earlier release.

    Subclasses set ``FIXTURE``, ``PROBES`` and the ``_script`` that wrote
    the fixture on ``Cluster("skipweb1d", uniform_keys(16, seed=5),
    seed=5, snapshot_every=4)`` plus a stale option.
    """

    def _answers(self, cluster):
        stats = cluster.stats().as_dict()
        probes = [("search", q) for q in self.PROBES] + [("range", (0.0, 1e6))]
        answers = [handle.value for handle in cluster.batch(probes)]
        return stats, answers, content_digest(cluster.structure)

    def _fresh(self, tmp_path):
        cluster = Cluster(
            "skipweb1d",
            uniform_keys(16, seed=5),
            seed=5,
            storage=str(tmp_path / "fresh"),
            snapshot_every=4,
        )
        self._script(cluster)
        return self._answers(cluster)

    def _copy_fixture(self, tmp_path):
        store = str(tmp_path / "legacy")
        shutil.copytree(self.FIXTURE, store)
        return store


class TestLegacyWorkersJournal(_LegacyJournal):
    """Journals whose create record and snapshot config carry ``"workers"``.

    ``fixtures/workers2_journal`` was written by an earlier release that
    could shard read-only batches across fork workers, with
    ``workers=2`` (on the counters-only network of that release).
    Recovery ignores the stale key and replays on the serial path; the
    counts it reproduces must match a fresh run of the same script.
    """

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "workers2_journal")
    PROBES = (10.0, 123456.0, 5e5, 9.9e5)

    @staticmethod
    def _script(cluster):
        keys = uniform_keys(16, seed=5)
        cluster.batch([("search", q) for q in (10.0, 2.5e5, 5e5, 7.5e5, 9.9e5)])
        cluster.batch([("range", (1e5, 4e5)), ("range", (6e5, 9e5))])
        cluster.batch([("delete", keys[3]), ("delete", keys[9])])
        cluster.join_host()
        cluster.batch([("search", float(keys[3])), ("range", (0.0, 1e6))])

    @pytest.mark.parametrize("from_snapshot", [True, False])
    def test_recovers_like_a_fresh_serial_run(self, tmp_path, from_snapshot):
        store = self._copy_fixture(tmp_path)
        assert open_storage(store).records()[0].payload["workers"] == 2
        recovered = Cluster.recover(store, from_snapshot=from_snapshot)
        assert isinstance(recovered.executor, BatchExecutor)
        assert self._answers(recovered) == self._fresh(tmp_path)


class TestLegacyTracedJournal(_LegacyJournal):
    """Journals whose create record and snapshot config carry ``"trace"``.

    ``fixtures/traced_journal`` was written, with ``PYTHONHASHSEED=0``, by
    an earlier release whose networks could store a message object per
    delivery (the default ``Cluster`` did).  Recovery ignores the stale
    key; from the snapshot and from genesis alike it must reach the
    state of a fresh run of the same script.
    """

    FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "traced_journal")
    PROBES = (10.0, 123456.0, 5e5, 654321.0, 9.9e5)

    @staticmethod
    def _script(cluster):
        keys = uniform_keys(16, seed=5)
        cluster.get(10.0)
        cluster.get(float(keys[4]))
        cluster.delete(keys[3])
        cluster.join_host()
        cluster.insert(123456.0)
        cluster.insert(654321.0)
        cluster.get(123456.0)

    @pytest.mark.parametrize("from_snapshot", [True, False])
    def test_recovers_like_a_fresh_run(self, tmp_path, from_snapshot):
        store = self._copy_fixture(tmp_path)
        backend = open_storage(store)
        assert backend.records()[0].payload["trace"] is True
        manifest, blob = backend.latest_snapshot()
        assert restore_snapshot(manifest, blob)["config"]["trace"] is True
        recovered = Cluster.recover(store, from_snapshot=from_snapshot)
        assert self._answers(recovered) == self._fresh(tmp_path)


class TestSaveAndLoad:
    def test_save_then_load_restores_state(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0), ("insert", 1.5)])
        cluster.join_host()
        cluster.save()
        digest = content_digest(cluster.structure)
        stats = cluster.stats().as_dict()
        cluster.close()

        loaded = Cluster.load(store)
        assert content_digest(loaded.structure) == digest
        assert loaded.stats().as_dict() == stats
        assert loaded.storage is None  # detached: load() gives a read-only copy

    def test_load_refuses_stale_tail(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.save()
        cluster.batch([("search", 123.0)])  # journaled after the snapshot
        cluster.close()
        with pytest.raises(StorageError, match="recover"):
            Cluster.load(store)

    def test_recover_replays_tail_after_snapshot(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0)])
        cluster.save()
        cluster.batch([("insert", 1.5)])
        cluster.crash_host()
        digest = content_digest(cluster.structure)
        stats = cluster.stats().as_dict()
        applied = cluster.applied_operations
        cluster.close()

        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == digest
        assert recovered.stats().as_dict() == stats
        assert recovered.applied_operations == applied
        recovered.close()

    def test_recover_from_genesis_without_snapshot(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0), ("range", (0.0, 500_000.0))])
        cluster.leave_host()
        digest = content_digest(cluster.structure)
        stats = cluster.stats().as_dict()
        cluster.close()

        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == digest
        assert recovered.stats().as_dict() == stats
        recovered.close()

    def test_snapshot_cadence_writes_snapshots(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path, snapshot_every=2)
        for _ in range(3):
            cluster.batch([("search", 123.0)])
        cluster.close()
        backend = open_storage(store)
        manifest, _blob = backend.latest_snapshot()
        assert manifest["upto"] > 0
        backend.close()
        recovered = Cluster.recover(store)
        assert recovered.applied_operations == 4  # create + 3 batches
        recovered.close()


class TestCorruption:
    def _stored_run(self, tmp_path, name="log.jsonl"):
        cluster, store = _journaled_cluster(tmp_path, name=name)
        cluster.batch([("search", 123.0)])
        cluster.batch([("insert", 1.5)])
        cluster.close()
        return store

    def test_torn_tail_is_typed_and_trimmable(self, tmp_path):
        store = self._stored_run(tmp_path)
        log = os.path.join(store, "log.jsonl")
        with open(log, "a") as fh:
            fh.write('{"half a record')
        backend = open_storage(store)
        with pytest.raises(StorageError) as excinfo:
            backend.records()
        assert excinfo.value.torn_tail
        assert excinfo.value.recoverable_records is not None
        kept = backend.trim_torn_tail()
        assert kept == excinfo.value.recoverable_records
        assert len(backend.records()) == kept  # intact after the trim
        backend.close()

    def test_mid_log_corruption_is_never_trimmed(self, tmp_path):
        store = self._stored_run(tmp_path)
        log = os.path.join(store, "log.jsonl")
        lines = open(log).read().splitlines()
        record = json.loads(lines[1])
        record["crc"] = (record["crc"] + 1) % (1 << 32)
        lines[1] = json.dumps(record)
        with open(log, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        backend = open_storage(store)
        with pytest.raises(StorageError) as excinfo:
            backend.records()
        assert not excinfo.value.torn_tail
        with pytest.raises(StorageError):
            backend.trim_torn_tail()  # corruption, not a torn tail: refuse
        backend.close()
        with pytest.raises(StorageError):
            Cluster.recover(store, trim_torn_tail=True)

    def test_record_version_skew_is_rejected(self, tmp_path):
        store = self._stored_run(tmp_path, name="log.db")
        conn = sqlite3.connect(store)
        with conn:
            conn.execute("UPDATE log SET v = ? WHERE seq = 0", (FORMAT_VERSION + 1,))
        conn.close()
        backend = SqliteStorage(store)
        with pytest.raises(StorageError, match="version"):
            backend.records()
        backend.close()

    def test_snapshot_version_skew_is_rejected(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0)])
        cluster.save()
        cluster.close()
        snapshots = [f for f in os.listdir(store) if f.startswith("snapshot-")]
        path = os.path.join(store, snapshots[0])
        document = json.loads(open(path).read())
        document["manifest"]["format_version"] = FORMAT_VERSION + 1
        with open(path, "w") as fh:
            fh.write(json.dumps(document))
        with pytest.raises(StorageError, match="version"):
            Cluster.recover(store)

    def test_snapshot_blob_corruption_is_rejected(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0)])
        cluster.save()
        cluster.close()
        snapshots = [f for f in os.listdir(store) if f.startswith("snapshot-")]
        path = os.path.join(store, snapshots[0])
        document = json.loads(open(path).read())
        document["blob"] = document["blob"][:-8] + "AAAAAAAA"
        with open(path, "w") as fh:
            fh.write(json.dumps(document))
        with pytest.raises(StorageError):
            Cluster.recover(store)
        # the log itself is intact: genesis replay still recovers the run
        recovered = Cluster.recover(store, from_snapshot=False)
        assert recovered.applied_operations == 2
        recovered.close()

    def test_empty_store_is_an_error(self, tmp_path):
        backend = JsonlStorage(str(tmp_path / "empty.jsonl"))
        backend.close()
        with pytest.raises(StorageError, match="no records|empty"):
            Cluster.recover(str(tmp_path / "empty.jsonl"))


class TestRecordCodec:
    def test_round_trip(self):
        original = LogRecord(3, "batch", {"operations": [("search", 1.0, None)]})
        record = decode_record(encode_record(original), expected_seq=3)
        assert record == original
        assert record.is_action

    def test_sequence_gap_is_detected(self):
        encoded = encode_record(LogRecord(3, "note", {}))
        with pytest.raises(StorageError, match="seq"):
            decode_record(encoded, expected_seq=4)

    def test_committed_prefix_strips_trailing_membership(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.join_host()
        cluster.close()
        backend = open_storage(store)
        records = backend.records()
        assert committed_prefix(records) == len(records)
        # a crash between the membership mutation and the action append
        # leaves a dangling membership record; the prefix excludes it
        backend2 = JsonlStorage(store)
        backend2.append("membership", {"event": "add", "host": 99})
        dangling = backend2.records()
        assert committed_prefix(dangling) == len(dangling) - 1
        backend2.close()
        backend.close()


class TestGuards:
    def test_storage_refuses_external_network(self):
        with pytest.raises(StorageError, match="network"):
            Cluster(
                structure="skipweb1d",
                items=KEYS,
                seed=3,
                storage="unused.jsonl",
                network=Network(),
            )

    def test_storage_refuses_external_churn_rng(self, tmp_path):
        import random

        with pytest.raises(StorageError, match="rng"):
            Cluster(
                structure="skipweb1d",
                items=KEYS,
                seed=3,
                storage=str(tmp_path / "log.jsonl"),
                churn_rng=random.Random(0),
            )

    def test_storage_refuses_route_cache(self, tmp_path):
        with pytest.raises(StorageError, match="route_cache"):
            Cluster(
                structure="skipweb1d",
                items=KEYS,
                seed=3,
                storage=str(tmp_path / "log.jsonl"),
                route_cache=True,
            )

    def test_configure_churn_refuses_rng_override(self, tmp_path):
        import random

        cluster, _store = _journaled_cluster(tmp_path)
        with pytest.raises(StorageError, match="rng"):
            cluster.configure_churn(rng=random.Random(0))
        cluster.close()

    def test_save_requires_storage(self):
        cluster = Cluster(structure="skipweb1d", items=KEYS, seed=3)
        with pytest.raises(StorageError, match="storage"):
            cluster.save()
        cluster.close()

    def test_save_refuses_open_measure_session(self, tmp_path):
        cluster, _store = _journaled_cluster(tmp_path)
        with cluster.session():
            with pytest.raises(StorageError, match="measure"):
                cluster.save()
        cluster.close()

    def test_kill_after_requires_storage(self):
        with pytest.raises(StorageError, match="storage"):
            run_workload("skipweb1d", steps=2, kill_after=1)

    def test_unknown_workload_structure(self):
        with pytest.raises(StorageError, match="btree"):
            run_workload("btree", steps=1)


class TestCommitHooks:
    def test_serial_executor_fires_once_per_batch(self):
        from repro.engine import BatchExecutor, Operation

        web = SkipWeb1D(uniform_keys(16, seed=1), seed=1)
        calls = []
        executor = BatchExecutor(web, on_commit=lambda ops, result: calls.append((ops, result)))
        operations = [Operation("search", 1.0), Operation("search", 2.0)]
        result = executor.run(operations)
        assert len(calls) == 1
        ops, committed = calls[0]
        assert ops == tuple(operations)
        assert committed is result

    def test_journaled_batches_replay_through_executor(self, tmp_path):
        cluster, store = _journaled_cluster(tmp_path)
        cluster.batch([("search", 123.0), ("insert", 1.5), ("delete", KEYS[0])])
        digest = content_digest(cluster.structure)
        cluster.close()
        recovered = Cluster.recover(store)
        assert content_digest(recovered.structure) == digest
        recovered.close()
