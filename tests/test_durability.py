"""Crash-consistency layer: fault shim, record envelope, fsck, chaos.

The contracts under test, bottom-up:

* the :class:`FaultyFS` shim injects filesystem faults deterministically
  from (seed, site) — same seed, same faults — and the disabled
  :data:`NULL_FS` singleton is falsy so production code pays nothing;
* every durable record rides in a checksummed envelope: any torn write,
  truncation, bit flip, or stray bytes reads as :class:`CorruptRecord`,
  never as silently-wrong data, and neither does a document that is
  not an envelope;
* ``repro fsck`` detects every class of injected crash debris across
  the service, frontier, and flat-record layouts, and a repair pass
  leaves the directory clean without losing accepted work;
* the chaos campaign's seeded drills hold their oracles (no job lost,
  no attempt double-charged) at pinned seeds.
"""

import errno
import json
import os
import time
from pathlib import Path

import pytest

from repro.durability import (CorruptRecord, FSFaultConfig, FaultyFS,
                              InjectedCrash, NULL_FS, fsck, is_envelope,
                              quarantine, read_record, sweep_tmp,
                              unwrap, wrap, write_record)
from repro.durability.faultyfs import FS_OPS, corrupt_file
from repro.durability.records import (quarantine_count,
                                      read_or_quarantine, tmp_name)


# ----------------------------------------------------------------------
# The fault shim
# ----------------------------------------------------------------------

class TestFaultyFS:
    def test_null_fs_is_falsy_and_inert(self):
        assert not NULL_FS
        assert NULL_FS.enabled is False
        assert NULL_FS.summary() == {}

    def test_disabled_shim_writes_identical_bytes(self, tmp_path):
        plain = tmp_path / "plain.json"
        shimmed = tmp_path / "shimmed.json"
        write_record(plain, "generic", {"x": 1})
        write_record(shimmed, "generic", {"x": 1}, fs=NULL_FS)
        assert plain.read_bytes() == shimmed.read_bytes()

    def test_same_seed_same_faults(self, tmp_path):
        def drill(seed, sub):
            shim = FaultyFS(seed, FSFaultConfig(
                rate=0.5, ops=("torn",), site_budget=3))
            sizes = []
            for i in range(8):
                path = tmp_path / sub / f"f{i}"
                path.parent.mkdir(exist_ok=True)
                shim.write_text(path, "payload-" * 20, "site")
                sizes.append(path.stat().st_size)
            return sizes, shim.summary()
        assert drill(7, "a") == drill(7, "b")
        assert drill(7, "c") != drill(8, "d")

    def test_site_budget_and_skip(self, tmp_path):
        shim = FaultyFS(0, FSFaultConfig(
            ops=("eio",), site_budget=1, skip=2))
        outcomes = []
        for i in range(5):
            try:
                shim.write_text(tmp_path / f"f{i}", "x", "site")
                outcomes.append("ok")
            except OSError:
                outcomes.append("eio")
        # Two skipped opportunities, one injection, then budget spent.
        assert outcomes == ["ok", "ok", "eio", "ok", "ok"]
        assert shim.total_injections == 1

    def test_site_filter(self, tmp_path):
        shim = FaultyFS(0, FSFaultConfig(
            ops=("eio",), sites=("hot",), site_budget=10))
        shim.write_text(tmp_path / "cold", "x", "cold")  # no fault
        with pytest.raises(OSError):
            shim.write_text(tmp_path / "hot", "x", "hot")

    def test_enospc_leaves_partial_file(self, tmp_path):
        shim = FaultyFS(1, FSFaultConfig(ops=("enospc",)))
        data = "D" * 100
        with pytest.raises(OSError) as err:
            shim.write_text(tmp_path / "f", data, "site")
        assert err.value.errno == errno.ENOSPC
        assert (tmp_path / "f").stat().st_size < len(data)

    def test_crash_ops_straddle_the_rename(self, tmp_path):
        before = FaultyFS(2, FSFaultConfig(ops=("crash-before-rename",)))
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.write_text("x")
        with pytest.raises(InjectedCrash):
            before.publish(src, dst, "site")
        assert src.exists() and not dst.exists()

        after = FaultyFS(2, FSFaultConfig(ops=("crash-after-rename",)))
        src.write_text("x")
        with pytest.raises(InjectedCrash):
            after.publish(src, dst, "site")
        assert dst.read_text() == "x"

    def test_bitrot_flips_exactly_one_byte(self, tmp_path):
        shim = FaultyFS(3, FSFaultConfig(ops=("bitrot",)))
        src, dst = tmp_path / "src", tmp_path / "dst"
        data = b"0123456789" * 10
        src.write_bytes(data)
        shim.publish(src, dst, "site")
        rotted = dst.read_bytes()
        assert len(rotted) == len(data)
        assert sum(1 for a, b in zip(rotted, data) if a != b) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FSFaultConfig(rate=1.5).validate()
        with pytest.raises(ValueError):
            FSFaultConfig(ops=("nonsense",)).validate()
        FSFaultConfig(ops=FS_OPS).validate()


# ----------------------------------------------------------------------
# The record envelope
# ----------------------------------------------------------------------

class TestRecords:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        body = {"cycles": 42, "nested": {"a": [1, 2]}}
        assert write_record(path, "generic", body) is True
        assert read_record(path, "generic") == body
        doc = json.loads(path.read_text())
        assert is_envelope(doc)
        assert doc["schema"] == "generic"

    def test_document_without_envelope_is_corrupt(self, tmp_path):
        # One renamed key (a one-byte change) turns an envelope into
        # plain JSON; it must not be trusted as the record's body.
        path = tmp_path / "r.json"
        write_record(path, "job-record", {"id": "j"})
        path.write_text(path.read_text().replace('"sha256"', '"sha257"'))
        with pytest.raises(CorruptRecord) as err:
            read_record(path, "job-record")
        assert "envelope" in err.value.reason
        assert read_or_quarantine(path, "job-record") is None
        assert quarantine_count(tmp_path) == 1

    def test_missing_file_reads_as_none(self, tmp_path):
        assert read_record(tmp_path / "nope.json") is None

    def test_schema_mismatch_is_corrupt(self, tmp_path):
        path = tmp_path / "r.json"
        write_record(path, "artifact", {"x": 1})
        with pytest.raises(CorruptRecord) as err:
            read_record(path, "job-record")
        assert "schema" in err.value.reason
        assert unwrap(json.loads(path.read_text()), path) == {"x": 1}

    @pytest.mark.parametrize("mode", ["flip", "truncate", "zero"])
    def test_every_corruption_mode_is_detected(self, tmp_path, mode):
        path = tmp_path / "r.json"
        write_record(path, "generic", {"k": "v" * 50})
        corrupt_file(path, seed=4, mode=mode)
        with pytest.raises(CorruptRecord):
            read_record(path, "generic")

    def test_flipped_body_fails_the_checksum(self, tmp_path):
        # Surgical flip that keeps the JSON valid: change a body value.
        path = tmp_path / "r.json"
        write_record(path, "generic", {"k": "aaaa"})
        doc = json.loads(path.read_text())
        doc["body"]["k"] = "aaab"
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecord) as err:
            read_record(path, "generic")
        assert err.value.reason == "sha256 mismatch"

    def test_exclusive_write_is_first_writer_wins(self, tmp_path):
        path = tmp_path / "r.json"
        assert write_record(path, "generic", {"w": 1},
                            exclusive=True) is True
        assert write_record(path, "generic", {"w": 2},
                            exclusive=True) is False
        assert read_record(path)["w"] == 1
        assert not tmp_name(path).exists()

    def test_quarantine_moves_evidence_aside(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("garbage")
        dest = quarantine(path, reason="invalid-JSON")
        assert not path.exists()
        assert dest.parent.name == "quarantine"
        assert dest.read_text() == "garbage"
        # Collisions get numeric suffixes, nothing is overwritten.
        path.write_text("garbage2")
        dest2 = quarantine(path, reason="invalid-JSON")
        assert dest2 != dest
        assert quarantine_count(tmp_path) == 2

    def test_read_or_quarantine_reads_corrupt_as_missing(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert read_or_quarantine(path) is None
        assert not path.exists()
        assert quarantine_count(tmp_path) == 1

    def test_sweep_tmp_is_age_gated(self, tmp_path):
        old = tmp_path / "a.json.tmp123"
        old.write_text("x")
        os.utime(old, (time.time() - 3600, time.time() - 3600))
        fresh = tmp_path / "b.json.tmp123"
        fresh.write_text("x")
        assert sweep_tmp(tmp_path, max_age=60.0) == 1
        assert not old.exists() and fresh.exists()

    def test_wrap_digest_is_canonical(self):
        # Key order must not matter: the digest covers canonical JSON.
        a = wrap("generic", {"x": 1, "y": 2})
        b = wrap("generic", {"y": 2, "x": 1})
        assert a["sha256"] == b["sha256"]


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------

class TestFsck:
    def test_flat_records_detect_and_repair(self, tmp_path):
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        write_record(good, "generic", {"ok": True})
        write_record(bad, "generic", {"ok": False})
        corrupt_file(bad, seed=1)
        stale = tmp_path / "c.json.tmp99"
        stale.write_text("partial")
        os.utime(stale, (0, 0))

        detect = fsck(tmp_path, repair=False, tmp_age=60.0)
        assert detect.layout == "records"
        assert not detect.clean
        kinds = detect.counts()
        assert kinds["corrupt"] == 1 and kinds["tmp-orphan"] == 1

        repaired = fsck(tmp_path, repair=True, tmp_age=60.0)
        assert repaired.clean
        assert not stale.exists() and not bad.exists()
        assert read_record(good) == {"ok": True}
        assert fsck(tmp_path).problems == []

    def test_service_layout_full_round_trip(self, tmp_path):
        from repro.service.service import Service, ServiceConfig
        from repro.service.worker import Worker
        service = Service(ServiceConfig(
            data_dir=str(tmp_path / "svc"), workers=0))
        data = service.paths["data"]
        kept, _ = service.submit("synthetic", {"payload": "kept"})
        lost, _ = service.submit("synthetic", {"payload": "lost"})
        dangling, _ = service.submit("synthetic", {"payload": "dang"})

        # Stage one of every crash window fsck knows about.
        corrupt_file(data / "queue" / "pending"
                     / service.queue.pending()[0].name, seed=2)
        for entry in service.queue.pending():
            if entry.job == lost.id:
                (service.queue.pending_dir / entry.name).unlink()
        worker = Worker(data, "crashed")
        held = []
        claimed = worker.queue.claim()
        while claimed.job != dangling.id:      # leave others pending
            held.append(claimed)
            claimed = worker.queue.claim()
        for entry in held:
            worker.queue.requeue(entry.name)
        (data / "queue" / "pending"
         / "p1-00000000000000000000000000-feedfacefeedface.json"
         ).write_text(json.dumps(wrap("queue-entry", {"job": "x"})))

        detect = fsck(data, repair=False, tmp_age=0.0)
        kinds = detect.counts()
        assert kinds.get("corrupt", 0) >= 1
        assert kinds.get("lost-entry", 0) == 1
        assert kinds.get("dangling-running", 0) == 1
        assert kinds.get("orphan-entry", 0) >= 1

        assert fsck(data, repair=True, tmp_age=0.0).clean
        assert fsck(data, repair=False, tmp_age=0.0).clean

        # Nothing was lost: every real job still drains to done.
        Worker(data, "after").run(max_jobs=3)
        for record in (kept, lost, dangling):
            assert service.job(record.id).status == "done"

    @pytest.mark.parametrize("attempts", [1, 2])
    def test_service_repair_keeps_the_attempt_budget(self, tmp_path,
                                                     attempts):
        # A worker died during attempt ``attempts`` of 2: offline repair
        # judges the claim as the monitor does, so the last attempt
        # fails the job and an earlier one requeues it without a worker.
        from repro.service.service import Service, ServiceConfig
        from repro.service.worker import Worker
        service = Service(ServiceConfig(
            data_dir=str(tmp_path / "svc"), workers=0, max_attempts=2))
        data = service.paths["data"]
        record, _ = service.submit("synthetic", {"payload": "budget"})
        entry = service.queue.claim()
        record.status, record.worker, record.pid = "running", "gone", None
        record.attempts = attempts
        service.jobs.save(record)

        detect = fsck(data, repair=False, tmp_age=0.0)
        assert detect.counts().get("dangling-running") == 1
        assert service.job(record.id).status == "running"
        assert fsck(data, repair=True, tmp_age=0.0).clean
        assert fsck(data, repair=False, tmp_age=0.0).clean
        after = service.job(record.id)
        if attempts == 2:
            assert after.status == "failed"
            assert after.error["type"] == "WorkerLost"
            assert service.queue.depth() == 0
        else:
            assert (after.status, after.worker, after.pid) \
                == ("queued", None, None)
            assert [e.name for e in service.queue.pending()] \
                == [entry.name]
            Worker(data, "after").run(max_jobs=1)
            done = service.job(record.id)
            assert done.status == "done" and done.attempts == 2
        assert service.queue.inflight() == 0

    def test_read_only_scan_leaves_a_corrupt_job_record(self, tmp_path):
        # Judging the queue entries reads every job record; without
        # --repair that read must not quarantine the corrupt one.
        from repro.service.service import Service, ServiceConfig
        service = Service(ServiceConfig(
            data_dir=str(tmp_path / "svc"), workers=0))
        data = service.paths["data"]
        record, _ = service.submit("synthetic", {"payload": "half"})
        path = service.jobs.path(record.id)
        path.write_text("{half")

        detect = fsck(data, repair=False, tmp_age=0.0)
        assert [f.path for f in detect.findings if f.kind == "corrupt"] \
            == [str(path)]
        assert path.read_text() == "{half"
        assert service.jobs.quarantined() == 0

        fsck(data, repair=True, tmp_age=0.0)
        assert not path.exists()
        assert service.jobs.quarantined() == 1

    def test_frontier_layout_round_trip(self, tmp_path):
        from repro.modelcheck import explore
        spool = tmp_path / "spool"
        explore("sb", "tus", cores=2, lines=1, spool=spool)
        corrupt_file(spool / "checkpoint.json", seed=3)
        stale = spool / "checkpoint.json.tmp1"
        stale.write_text("partial")

        detect = fsck(spool, repair=False, tmp_age=0.0)
        assert detect.layout == "frontier"
        kinds = detect.counts()
        assert kinds["corrupt"] == 1 and kinds["tmp-orphan"] == 1
        assert fsck(spool, repair=True, tmp_age=0.0).clean
        assert fsck(spool, repair=False, tmp_age=0.0).clean
        # The quarantined checkpoint costs work, not coverage.
        rerun = explore("sb", "tus", cores=2, lines=1, spool=spool)
        assert rerun.complete and (spool / "checkpoint.json").exists()

    def test_missing_root_is_a_problem_not_a_crash(self, tmp_path):
        report = fsck(tmp_path / "nope")
        assert not report.clean


# ----------------------------------------------------------------------
# The chaos campaign (pinned seed; the full matrix runs in CI)
# ----------------------------------------------------------------------

class TestChaosCampaign:
    def test_service_drills_hold_their_oracles(self, tmp_path):
        from repro.durability.campaign import run_chaos
        results = run_chaos(
            seeds=(0,), base_dir=tmp_path,
            scenarios=("crash-mid-claim", "corrupt-artifact"))
        assert [r.ok for r in results] == [True, True]
        by_name = {r.scenario: r for r in results}
        crash = by_name["crash-mid-claim"]
        assert crash.faults  # the shim actually fired
        checks = {c["name"] for c in crash.checks}
        assert {"job-not-lost", "attempt-not-double-charged"} <= checks

    def test_unknown_scenario_is_rejected(self, tmp_path):
        from repro.durability.campaign import run_chaos
        with pytest.raises(ValueError):
            run_chaos(scenarios=("no-such-drill",), base_dir=tmp_path)

    def test_results_serialize(self, tmp_path):
        from repro.durability.campaign import (render_results,
                                               run_chaos)
        results = run_chaos(seeds=(0,), base_dir=tmp_path,
                            scenarios=("corrupt-pending-entry",))
        payload = json.dumps([r.to_dict() for r in results])
        assert "corrupt-pending-entry" in payload
        assert "1/1 drills green" in render_results(results)
