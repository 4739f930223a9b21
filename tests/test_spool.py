"""The durable spool every work queue in the repo is built on.

``repro.durability.spool.Spool`` is the one place the pending/running
protocol lives; the service queue (``tests/test_service.py``
``TestDiskQueue``), its one client, tests it through the queue (ack
and requeue after an ack, the claim clock, tmp sweep and quarantine).
This file pins what no client test reaches: exactly-once claims under
real multi-process contention, and the read-only view fsck scans
through.
"""

import multiprocessing

from repro.durability.spool import Spool


def _fill(root, count):
    spool = Spool.open(root)
    names = [f"e{index:04d}.json" for index in range(count)]
    for name in names:
        spool.write(spool.pending_dir / name, "spool-test", {"name": name})
    return spool, names


def _drain(root, out, go):
    """Claim and ack until pending/ is empty; log every claim won."""
    spool = Spool(root)
    won = []
    go.wait()
    while True:
        names = spool.pending()
        if not names:
            break
        for name in names:
            if spool.claim(name):
                won.append(name)
                spool.ack(name)
    with open(out, "w") as handle:
        handle.write("\n".join(won))


class TestSpool:
    def test_two_processes_claim_every_entry_exactly_once(self, tmp_path):
        root = tmp_path / "spool"
        spool, names = _fill(root, 200)
        ctx = multiprocessing.get_context("fork")
        go = ctx.Event()
        outs = [tmp_path / f"won-{index}.txt" for index in range(2)]
        procs = [ctx.Process(target=_drain, args=(root, out, go))
                 for out in outs]
        for proc in procs:
            proc.start()
        go.set()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        won = [line for out in outs
               for line in out.read_text().splitlines() if line]
        assert sorted(won) == names          # each name exactly once
        assert spool.pending() == [] and spool.running() == []

    def test_view_touches_nothing_until_opened(self, tmp_path):
        # fsck scans through a plain view and must not create the
        # layout it is inspecting.
        root = tmp_path / "spool"
        view = Spool(root)
        assert view.pending() == [] and view.running() == []
        assert not root.exists()
        Spool.open(root)
        assert view.pending_dir.is_dir() and view.running_dir.is_dir()
