"""Simulation-as-a-service: queue, dedup, overload, crash recovery.

The contracts under test, bottom-up:

* spec validation normalises (defaults filled, keys sorted) so the
  content-addressed job id is spelling-independent;
* the disk queue drains strict-priority/FIFO, claims race-free, sheds
  only at the submission edge, and its state survives a restart;
* a worker retries transient failures, terminates deterministic ones
  (a DeadlockError's ProgressDump rides on the job record), and never
  re-executes work the artifact store already holds;
* the service end-to-end over HTTP: submit -> queue -> worker ->
  store -> fetch, identical resubmission re-simulates zero points,
  overload answers 429 without losing accepted jobs, and a SIGKILLed
  worker costs its job one attempt, never the job.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.common.errors import DeadlockError
from repro.service import (ArtifactStore, DiskQueue, JobValidationError,
                           QueueFull, Service, ServiceConfig, job_id,
                           parse_prometheus_text, validate_spec)
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.jobs import JobRecord, JobStore, submit_record
from repro.service.metrics import Counter, render_histogram
from repro.service.worker import Worker, service_paths

from .support import process_gone


# ----------------------------------------------------------------------
# Spec validation and content-addressed ids
# ----------------------------------------------------------------------

class TestSpecValidation:
    def test_defaults_filled_and_sorted(self):
        spec = validate_spec("synthetic", {})
        assert spec == {"duration_ms": 10, "fail": "", "payload": "",
                        "points": 1}
        assert list(spec) == sorted(spec)

    def test_all_problems_reported_at_once(self):
        with pytest.raises(JobValidationError) as err:
            validate_spec("sweep", {"bogus": 1, "st_length": 3})
        message = str(err.value)
        assert "bogus" in message
        assert "figure" in message         # missing required
        assert "st_length" in message      # below minimum

    def test_unknown_kind_and_figure_rejected(self):
        with pytest.raises(JobValidationError):
            validate_spec("nope", {})
        with pytest.raises(JobValidationError):
            validate_spec("sweep", {"figure": "fig999"})
        # Specs the executor could never run are refused up front.
        with pytest.raises(JobValidationError):
            validate_spec("check", {"mechanism": "all"})
        with pytest.raises(JobValidationError):
            validate_spec("check", {"scenario": "nope"})
        with pytest.raises(JobValidationError, match="dist_workers"):
            validate_spec("check", {"dist_workers": 2})
        with pytest.raises(JobValidationError):
            validate_spec("faults", {"mechanism": "all"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(JobValidationError):
            validate_spec("synthetic", {"duration_ms": True})

    @pytest.mark.parametrize("kind", ["check", "faults"])
    def test_model_field_refused(self, kind):
        # Checks and campaigns run the simulator, which is x86-TSO only.
        with pytest.raises(JobValidationError,
                           match="unknown field 'model'"):
            validate_spec(kind, {"model": "tso"})

    def test_job_id_is_spelling_independent(self):
        sparse = validate_spec("sweep", {"figure": "fig9"})
        spelled = validate_spec("sweep", {"figure": "fig9", "seed": 42,
                                          "st_length": 4000})
        assert job_id("sweep", sparse) == job_id("sweep", spelled)
        other = validate_spec("sweep", {"figure": "fig9", "seed": 43})
        assert job_id("sweep", sparse) != job_id("sweep", other)


# ----------------------------------------------------------------------
# The disk queue
# ----------------------------------------------------------------------

class TestDiskQueue:
    def test_priority_then_fifo(self, tmp_path):
        queue = DiskQueue(tmp_path)
        queue.submit("norm-a", "normal")
        queue.submit("norm-b", "normal")
        queue.submit("low-a", "low")
        queue.submit("high-a", "high")
        drained = [queue.claim().job for _ in range(4)]
        assert drained == ["high-a", "norm-a", "norm-b", "low-a"]

    def test_claim_moves_exactly_one_entry(self, tmp_path):
        queue = DiskQueue(tmp_path)
        queue.submit("only")
        entry = queue.claim()
        assert entry.job == "only"
        assert queue.depth() == 0 and queue.inflight() == 1
        assert queue.claim() is None

    def test_ack_and_requeue(self, tmp_path):
        queue = DiskQueue(tmp_path)
        queue.submit("job")
        entry = queue.claim()
        assert queue.requeue(entry.name)
        assert queue.depth() == 1 and queue.inflight() == 0
        entry = queue.claim()
        queue.ack(entry.name)
        assert queue.depth() == 0 and queue.inflight() == 0
        assert not queue.requeue(entry.name)   # already gone: benign
        queue.ack(entry.name)                  # second ack: benign too
        assert queue.depth() == 0 and queue.inflight() == 0

    def test_backlog_bound_sheds_at_submission_edge(self, tmp_path):
        queue = DiskQueue(tmp_path, max_backlog=2)
        queue.submit("a")
        queue.submit("b")
        with pytest.raises(QueueFull):
            queue.submit("c")
        # Claiming frees backlog space; accepted entries are never shed.
        queue.claim()
        queue.submit("c")
        assert queue.depth() == 2

    def test_state_survives_reopen(self, tmp_path):
        DiskQueue(tmp_path).submit("durable", "high")
        reopened = DiskQueue(tmp_path)
        assert reopened.depth() == 1
        assert reopened.claim().job == "durable"

    def test_depth_by_priority(self, tmp_path):
        queue = DiskQueue(tmp_path)
        queue.submit("a", "high")
        queue.submit("b", "low")
        queue.submit("c", "low")
        assert queue.depth_by_priority() == {"high": 1, "normal": 0,
                                             "low": 2}


# ----------------------------------------------------------------------
# Artifact store and metrics plumbing
# ----------------------------------------------------------------------

class TestArtifactStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert not store.has("abc") and store.get("abc") is None
        store.put("abc", {"answer": 42})
        assert store.has("abc")
        assert store.get("abc") == {"answer": 42}
        stats = store.stats()
        assert stats["artifacts"] == 1
        assert stats["artifact_bytes"] > 0


class TestMetrics:
    def test_histogram_is_cumulative(self):
        text = "\n".join(render_histogram(
            "t_seconds", "help.", [0.01, 0.2, 9.0], (0.1, 1.0)))
        families = parse_prometheus_text(text)
        samples = families["t_seconds"]
        assert samples['t_seconds_bucket{le="0.1"}'] == 1
        assert samples['t_seconds_bucket{le="1"}'] == 2
        assert samples['t_seconds_bucket{le="+Inf"}'] == 3
        assert samples["t_seconds_count"] == 3
        assert samples["t_seconds_sum"] == pytest.approx(9.21)

    def test_labeled_counter_roundtrip(self):
        counter = Counter("t_total", "help.")
        counter.inc(kind="a")
        counter.inc(kind="a")
        counter.inc(kind="b")
        families = parse_prometheus_text("\n".join(counter.render()))
        assert families["t_total"]['t_total{kind="a"}'] == 2
        assert families["t_total"]['t_total{kind="b"}'] == 1

    def test_malformed_exposition_rejected(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not prometheus text\n")


# ----------------------------------------------------------------------
# Worker semantics (inline, no processes)
# ----------------------------------------------------------------------

def make_service(tmp_path, **overrides):
    kwargs = dict(data_dir=str(tmp_path / "svc"), workers=0,
                  monitor_interval=0.05)
    kwargs.update(overrides)
    service = Service(ServiceConfig(**kwargs))
    service.start()
    return service


def inline_worker(service, **kwargs):
    return Worker(service.paths["data"], "inline", **kwargs)


class TestWorkerInline:
    def test_synthetic_job_end_to_end(self, tmp_path):
        service = make_service(tmp_path)
        try:
            record, created = service.submit(
                "synthetic", {"duration_ms": 0, "payload": "hi"})
            assert created and record.status == "queued"
            inline_worker(service).run(max_jobs=1)
            done = service.job(record.id)
            assert done.status == "done" and done.attempts == 1
            artifact = service.result(record.id)
            assert artifact["result"]["payload"] == "hi"
        finally:
            service.stop(timeout=2.0)

    def test_transient_failure_retried_to_budget(self, tmp_path):
        service = make_service(tmp_path, max_attempts=2)
        try:
            record, _ = service.submit(
                "synthetic", {"duration_ms": 0, "fail": "error"})
            inline_worker(service).run(max_jobs=10)   # drains to empty
            done = service.job(record.id)
            assert done.status == "failed"
            assert done.attempts == 2
            assert done.error["type"] == "RuntimeError"
        finally:
            service.stop(timeout=2.0)

    def test_deadlock_is_terminal_and_carries_dump(self, tmp_path):
        from repro.sim.progress import ProgressDump
        service = make_service(tmp_path, max_attempts=3)
        try:
            record, _ = service.submit(
                "synthetic", {"duration_ms": 0, "fail": "deadlock"})
            inline_worker(service).run(max_jobs=10)
            done = service.job(record.id)
            assert done.status == "failed"
            assert done.attempts == 1      # deterministic: no retry
            assert done.error["type"] == "DeadlockError"
            dump = ProgressDump.from_dict(done.error["progress_dump"])
            assert dump.reason == "no-progress"
            assert "WAIT-FOR CYCLE" in dump.render()
        finally:
            service.stop(timeout=2.0)

    def test_unknown_kind_fails_once_without_retry(self, tmp_path):
        # A record whose kind this version has no handler for (e.g. a
        # "bench" job persisted before that kind was removed) is
        # deterministic: it fails on its first attempt, not after the
        # retry budget.
        service = make_service(tmp_path, max_attempts=3)
        try:
            record = JobRecord(id="b" * 16, kind="bench",
                               spec={"suite": "micro"},
                               max_attempts=3)
            service.jobs.save(record)
            service.queue.submit(record.id)
            inline_worker(service).run(max_jobs=1)
            done = service.job(record.id)
            assert done.status == "failed"
            assert done.attempts == 1
            assert done.error["type"] == "JobValidationError"
            assert "'bench'" in done.error["message"]
            assert "sweep, check, faults, synthetic" \
                in done.error["message"]
            assert service.queue.depth() == 0
        finally:
            service.stop(timeout=2.0)

    def test_existing_artifact_completes_without_executing(self, tmp_path):
        # A prior attempt stored the artifact but died before its ack:
        # the next claimer completes the job without executing.
        service = make_service(tmp_path)
        try:
            jid, record = submit_record(
                "synthetic", {"duration_ms": 0, "fail": "error"},
                "normal")
            service.store.put(jid, {"payload": "already done"})
            service.jobs.save(record)
            service.queue.submit(jid)
            inline_worker(service).run(max_jobs=1)
            done = service.job(jid)
            assert done.status == "done"
            assert done.cache_hit
            assert done.attempts == 0      # nothing executed
        finally:
            service.stop(timeout=2.0)

    def test_dedup_active_then_done_then_artifact(self, tmp_path):
        service = make_service(tmp_path)
        try:
            spec = {"duration_ms": 0, "payload": "dedup"}
            record, created = service.submit("synthetic", spec)
            assert created
            again, created = service.submit("synthetic", spec)
            assert not created and again.id == record.id
            assert again.resubmits == 1
            inline_worker(service).run(max_jobs=1)
            done, created = service.submit("synthetic", spec)
            assert not created and done.status == "done"
            # Record lost (restart, GC) but the artifact survives:
            # submission answers from the store without executing.
            os.unlink(service.jobs.path(record.id))
            revived, created = service.submit("synthetic", spec)
            assert created and revived.status == "done"
            assert revived.cache_hit
            assert service.queue.depth() == 0
        finally:
            service.stop(timeout=2.0)

    def test_shed_submission_leaves_no_record(self, tmp_path):
        service = make_service(tmp_path, max_backlog=1)
        try:
            service.submit("synthetic", {"payload": "occupies"})
            with pytest.raises(QueueFull):
                service.submit("synthetic", {"payload": "shed"})
            jid = job_id("synthetic",
                         validate_spec("synthetic", {"payload": "shed"}))
            assert service.job(jid) is None
        finally:
            service.stop(timeout=2.0)

    def test_backlog_wait_does_not_count_against_the_lease(self, tmp_path):
        # The lease runs from the claim, not from the submission: an
        # entry that sat in the backlog past lease_seconds must not be
        # requeued while its live worker is still running it.  (No
        # monitor thread: the test drives the one repair pass itself.)
        service = make_service(tmp_path, lease_seconds=60.0,
                               monitor_interval=3600.0)
        try:
            record, _ = service.submit(
                "synthetic", {"duration_ms": 1500, "payload": "aged"})
            entry = service.queue.pending()[0]
            aged = time.time() - 3600.0
            os.utime(service.queue.pending_dir / entry.name, (aged, aged))
            worker = threading.Thread(
                target=inline_worker(service).run, kwargs={"max_jobs": 1})
            worker.start()
            try:
                wait_for(lambda: service.job(record.id).status
                         == "running")
                assert service._repair() == []
                assert (service.queue.running_dir / entry.name).exists()
                assert service.queue.depth() == 0
            finally:
                worker.join(timeout=30.0)
            done = service.job(record.id)
            assert done.status == "done" and done.attempts == 1
            assert service.queue.depth() == 0
            assert service.queue.inflight() == 0
        finally:
            service.stop(timeout=2.0)

    def test_fresh_claim_is_not_judged_worker_lost(self, tmp_path):
        # Between a worker's claim and its save of the record as
        # running, the record still reads queued with no worker: the
        # monitor must give that claim entry_repair_age before judging
        # it lost, or the job runs twice.
        service = make_service(tmp_path, monitor_interval=3600.0)
        try:
            service.submit("synthetic", {"duration_ms": 0,
                                         "payload": "claimed"})
            entry = service.queue.claim()
            assert service._repair() == []
            assert (service.queue.running_dir / entry.name).exists()
            aged = time.time() - 3600.0
            os.utime(service.queue.running_dir / entry.name, (aged, aged))
            assert len(service._repair()) == 1
            assert [e.name for e in service.queue.pending()] == [entry.name]
        finally:
            service.stop(timeout=2.0)


# ----------------------------------------------------------------------
# End-to-end over HTTP, with real worker processes
# ----------------------------------------------------------------------

def wait_for(predicate, timeout=20.0, poll=0.02):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError("condition not reached within "
                         f"{timeout:.0f}s")


class TestServiceHTTP:
    def test_submit_queue_worker_store_fetch(self, tmp_path):
        service = make_service(tmp_path, workers=2)
        client = ServiceClient(service.url)
        try:
            assert client.healthz()
            status, body = client.submit(
                "synthetic", {"duration_ms": 5, "payload": "e2e"})
            assert status == 202 and body["created"]
            record = client.wait(body["id"], timeout=20.0)
            assert record["status"] == "done"
            result = client.result(body["id"])
            assert result["payload"]["result"]["payload"] == "e2e"
            stats = client.stats()
            assert stats["jobs"]["by_status"]["done"] >= 1
            families = parse_prometheus_text(client.metrics())
            for name in ("repro_queue_depth", "repro_jobs_inflight",
                         "repro_worker_utilization", "repro_jobs_total",
                         "repro_jobs_shed_total",
                         "repro_job_latency_seconds"):
                assert name in families, name
        finally:
            service.stop(timeout=5.0)

    def test_concurrent_clients_dedup_and_drain(self, tmp_path):
        service = make_service(tmp_path, workers=2)
        clients, barrier = 4, threading.Barrier(4)
        submissions = []        # (spec payload, status, body)

        def client_loop(index):
            client = ServiceClient(service.url)
            barrier.wait()
            for payload in (f"c{index}-a", "shared", f"c{index}-b"):
                status, body = client.submit(
                    "synthetic", {"duration_ms": 100, "payload": payload})
                submissions.append((payload, status, body))

        try:
            threads = [threading.Thread(target=client_loop, args=(i,))
                       for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert all(status in (200, 202)
                       for _, status, _ in submissions)
            shared = [body for payload, _, body in submissions
                      if payload == "shared"]
            unique = {body["id"] for payload, _, body in submissions
                      if payload != "shared"}
            assert len(shared) == clients
            assert len({body["id"] for body in shared}) == 1
            assert sum(body["created"] for body in shared) == 1
            assert len(unique) == 2 * clients
            client = ServiceClient(service.url)
            for jid in unique | {shared[0]["id"]}:
                assert client.wait(jid, timeout=30.0)["status"] == "done"
            record = client.job(shared[0]["id"])
            assert record["attempts"] == 1          # ran once
            assert record["resubmits"] == clients - 1
            assert service.drain(timeout=5.0)
        finally:
            service.stop(timeout=5.0)

    def test_error_statuses(self, tmp_path):
        service = make_service(tmp_path)     # no workers: jobs sit queued
        client = ServiceClient(service.url)
        try:
            status, body = client.submit("synthetic", {"duration_ms": -1})
            assert status == 400
            assert "duration_ms" in body["error"]
            status, body = client.submit("bench", {})
            assert status == 400
            assert "unknown job kind 'bench'" in body["error"]
            with pytest.raises(ServiceClientError) as err:
                client.job("feedfacefeedface")
            assert err.value.status == 404
            status, body = client.submit("synthetic", {"payload": "q"})
            assert status == 202
            with pytest.raises(ServiceClientError) as err:
                client.result(body["id"])    # still queued
            assert err.value.status == 409
        finally:
            service.stop(timeout=2.0)

    def test_identical_resubmission_simulates_nothing(self, tmp_path):
        # The acceptance criterion: a second identical sweep submission
        # is a cache hit — zero points re-simulate, cross-client.
        service = make_service(tmp_path, workers=2)
        client = ServiceClient(service.url)
        spec = {"figure": "fig9", "benches": ["synth.burst"],
                "st_length": 2000}
        try:
            status, body = client.submit("sweep", spec)
            assert status == 202
            first = client.wait(body["id"], timeout=60.0)
            assert first["status"] == "done"
            assert first["points_simulated"] > 0

            def simulated():
                families = parse_prometheus_text(client.metrics())
                samples = families["repro_points_simulated_total"]
                return sum(samples.values())

            before = simulated()
            # Spelled-out defaults must still dedup (normalisation).
            status, body2 = client.submit(
                "sweep", dict(spec, seed=42, simpoints=1))
            assert status == 200           # answered, not re-queued
            assert body2["id"] == body["id"]
            assert body2["status"] == "done"
            assert simulated() == before
        finally:
            service.stop(timeout=5.0)

    def test_overload_sheds_without_losing_accepted_jobs(self, tmp_path):
        service = make_service(tmp_path, workers=1, max_backlog=2)
        client = ServiceClient(service.url)
        try:
            accepted, shed = [], 0
            for index in range(10):
                status, body = client.submit(
                    "synthetic", {"duration_ms": 150,
                                  "payload": f"ov-{index}"})
                if status == 429:
                    shed += 1
                    assert "backlog full" in body["error"]
                else:
                    assert status == 202
                    accepted.append(body["id"])
            assert shed > 0 and accepted
            for jid in accepted:
                record = client.wait(jid, timeout=30.0)
                assert record["status"] == "done"
            families = parse_prometheus_text(client.metrics())
            sheds = sum(families["repro_jobs_shed_total"].values())
            assert sheds == shed
        finally:
            service.stop(timeout=5.0)

    def test_killed_worker_costs_an_attempt_not_the_job(self, tmp_path):
        service = make_service(tmp_path, workers=1,
                               monitor_interval=0.05)
        client = ServiceClient(service.url)
        try:
            status, body = client.submit(
                "synthetic", {"duration_ms": 2000, "payload": "victim"})
            assert status == 202
            record = wait_for(
                lambda: (lambda r: r if r["status"] == "running"
                         and r["pid"] else None)(client.job(body["id"])))
            os.kill(record["pid"], signal.SIGKILL)
            done = client.wait(body["id"], timeout=30.0)
            assert done["status"] == "done"
            assert done["attempts"] == 2       # the kill cost one
            assert done["worker"] != record["worker"]
            families = parse_prometheus_text(client.metrics())
            requeues = sum(families["repro_jobs_requeued_total"].values())
            assert requeues >= 1
        finally:
            service.stop(timeout=5.0)

    def test_lease_expiry_kills_the_hung_worker(self, tmp_path):
        service = make_service(tmp_path, workers=2, lease_seconds=0.5)
        client = ServiceClient(service.url)
        try:
            status, body = client.submit(
                "synthetic", {"duration_ms": 3000, "payload": "hung"})
            assert status == 202
            first = wait_for(
                lambda: (lambda r: r if r["status"] == "running"
                         and r["pid"] else None)(client.job(body["id"])))
            # The monitor kills the presumed-hung worker before it
            # requeues the job; the next run gets a real lease.
            wait_for(lambda: process_gone(first["pid"]), timeout=10.0)
            service.config.lease_seconds = 60.0
            done = client.wait(body["id"], timeout=30.0)
            assert done["status"] == "done"
            assert done["attempts"] == 2
            assert done["worker"] != first["worker"]
        finally:
            service.stop(timeout=5.0)

    def test_accepted_jobs_survive_service_restart(self, tmp_path):
        service = make_service(tmp_path)     # no workers
        ids = []
        try:
            client = ServiceClient(service.url)
            for index in range(3):
                status, body = client.submit(
                    "synthetic", {"duration_ms": 0,
                                  "payload": f"restart-{index}"})
                assert status == 202
                ids.append(body["id"])
        finally:
            service.stop(timeout=2.0)
        revived = make_service(tmp_path, workers=2)
        try:
            client = ServiceClient(revived.url)
            assert revived.queue.depth() == 3
            for jid in ids:
                assert client.wait(jid, timeout=20.0)["status"] == "done"
        finally:
            revived.stop(timeout=5.0)


# ----------------------------------------------------------------------
# Crash consistency: corrupt records are quarantined, never trusted
# ----------------------------------------------------------------------

class TestDurableRecords:
    def test_zero_byte_queue_entry_still_drains(self, tmp_path):
        # Claim is a pure rename and the payload is a pure function of
        # the filename, so a torn entry write cannot lose the job.
        service = make_service(tmp_path)
        try:
            record, _ = service.submit("synthetic", {"payload": "torn"})
            entry = service.queue.pending()[0]
            (service.queue.pending_dir / entry.name).write_text("")
            inline_worker(service).run(max_jobs=1)
            done = service.job(record.id)
            assert done.status == "done" and done.attempts == 1
        finally:
            service.stop(timeout=2.0)

    def test_corrupt_entry_quarantined_then_repaired(self, tmp_path):
        from repro.durability.faultyfs import corrupt_file
        service = make_service(tmp_path, entry_repair_age=0.0)
        try:
            record, _ = service.submit("synthetic", {"payload": "rot"})
            entry = service.queue.pending()[0]
            corrupt_file(service.queue.pending_dir / entry.name, seed=5)
            # A status read hits the rot: quarantined, payload rebuilt
            # from the filename — never an exception, never garbage.
            payload = service.queue.entry_payload(
                service.queue.pending_dir, entry.name)
            assert payload == {"job": record.id, "priority": "normal"}
            assert service.queue.quarantined() == 1
            assert (service.queue.spool.root / "quarantine").is_dir()
            # The entry file moved aside; the record is now entry-less.
            # The monitor's lost-entry repair re-enqueues it.
            assert service.queue.depth() == 0
            service._repair()
            assert service.queue.depth() == 1
            inline_worker(service).run(max_jobs=1)
            assert service.job(record.id).status == "done"
        finally:
            service.stop(timeout=2.0)

    def test_corrupt_job_record_never_crashes_readers(self, tmp_path):
        service = make_service(tmp_path)
        try:
            record, _ = service.submit("synthetic", {"payload": "jr"})
            service.jobs.path(record.id).write_text("{half a rec")
            assert service.job(record.id) is None    # not an exception
            assert service.jobs.quarantined() == 1
            # The worker sees an orphan entry and retires it; the
            # monitor loop and snapshot survive untroubled.
            inline_worker(service).run(max_jobs=1)
            service._repair()
            snapshot = service.snapshot()
            assert snapshot["durability"]["quarantined_jobs"] == 1
        finally:
            service.stop(timeout=2.0)

    def test_rotted_artifact_is_not_deduped(self, tmp_path):
        from repro.durability.faultyfs import corrupt_file
        service = make_service(tmp_path)
        try:
            spec = {"duration_ms": 0, "payload": "dedup-rot"}
            record, _ = service.submit("synthetic", spec)
            inline_worker(service).run(max_jobs=1)
            corrupt_file(service.store.path(record.id), seed=6)
            # Identical resubmission must re-execute, not serve rot.
            again, created = service.submit("synthetic", spec)
            assert created and again.status == "queued"
            assert service.store.quarantined() == 1
            inline_worker(service).run(max_jobs=1)
            done = service.job(record.id)
            assert done.status == "done"
            assert service.result(record.id)["result"]["payload"] \
                == "dedup-rot"
        finally:
            service.stop(timeout=2.0)

    def test_truncated_artifact_fails_the_has_gate(self, tmp_path):
        service = make_service(tmp_path)
        try:
            record, _ = service.submit("synthetic", {"payload": "t"})
            inline_worker(service).run(max_jobs=1)
            service.store.path(record.id).write_text('{"trunc')
            assert not service.store.has(record.id)
            assert service.store.quarantined() == 1
        finally:
            service.stop(timeout=2.0)

    def test_metrics_expose_quarantine_and_sweeps(self, tmp_path):
        service = make_service(tmp_path)
        try:
            record, _ = service.submit("synthetic", {"payload": "m"})
            inline_worker(service).run(max_jobs=1)
            service.store.path(record.id).write_text("rot")
            assert not service.store.has(record.id)
            families = parse_prometheus_text(service.metrics_text())
            gauge = families["repro_quarantined_records"]
            assert any(value == 1 for sample, value in gauge.items()
                       if 'area="store"' in sample)
            assert "repro_tmp_files_swept_total" in families
            assert sum(families["repro_fsync_enabled"].values()) == 0
        finally:
            service.stop(timeout=2.0)

    def test_stores_sweep_stale_tmp_on_open(self, tmp_path):
        jobs_dir = tmp_path / "jobs"
        jobs_dir.mkdir()
        stale = jobs_dir / "j.json.tmp42"
        stale.write_text("partial")
        os.utime(stale, (0, 0))
        fresh = jobs_dir / "k.json.tmp42"
        fresh.write_text("partial")
        store = JobStore(jobs_dir)
        assert store.tmp_swept == 1
        assert not stale.exists() and fresh.exists()
