"""Forward-progress diagnostics: every deadlock carries a usable dump.

The contracts under test: all three raise sites in the system loop
(no-progress-possible, the N-cycles-without-progress watchdog, and the
controlled run's cycle budget) attach a populated
:class:`~repro.sim.progress.ProgressDump`; the dump round-trips through
JSON-plain dicts; and rendering never throws on any of them.
"""

import dataclasses

import pytest

from repro.common.config import table_i
from repro.common.errors import DeadlockError
from repro.cpu.isa import alu, store
from repro.cpu.trace import Trace
from repro.modelcheck.scenarios import check_config
from repro.modelcheck.scheduler import DefaultScheduler
from repro.sim.progress import ProgressDump
from repro.sim.system import System


def tus_system(cores=2, n=60):
    traces = [Trace(f"c{cid}",
                    [store(0x60_0000 + (i % 4) * 64 + cid * 8, 8)
                     if i % 2 == 0 else alu() for i in range(n)])
              for cid in range(cores)]
    return System(check_config(cores, "tus"), traces)


def _strand(system):
    """Silence every core: no step progress, no wake-up, not done.

    With the event queue empty this is exactly the state the
    no-progress raise guards against; with a far-future event pending
    it becomes a watchdog trip instead.
    """
    for core in system.cores:
        core.step = lambda cycle: False
        core.next_wake = lambda cycle: None
        core.wake_cycle = None


class TestNoProgressBranch:
    def test_raises_with_dump(self):
        system = tus_system()
        _strand(system)
        with pytest.raises(DeadlockError) as excinfo:
            system.run()
        dump = excinfo.value.dump
        assert dump is not None
        assert dump.reason == "no-progress"
        assert dump.mechanism == "tus"
        assert len(dump.cores) == 2
        assert len(dump.mshrs) == 2

    def test_controlled_loop_same_branch(self):
        system = tus_system()
        _strand(system)
        with pytest.raises(DeadlockError) as excinfo:
            system.run_controlled(DefaultScheduler())
        assert excinfo.value.dump.reason == "no-progress"


class TestWatchdogBranch:
    def test_raises_with_dump(self):
        cfg = dataclasses.replace(check_config(1, "baseline"),
                                  deadlock_cycles=50)
        cfg.validate()
        system = System(cfg, [Trace("w", [store(0x60_0000, 8)])])
        _strand(system)
        # A far-future event keeps fast-forward legal, but the jump
        # exceeds the watchdog window.
        system.events.schedule(10_000, lambda: None, label="faraway")
        with pytest.raises(DeadlockError) as excinfo:
            system.run()
        dump = excinfo.value.dump
        assert dump.reason == "watchdog"
        assert dump.events["count"] == 1
        assert dump.events["head"][0]["label"] == "faraway"

    def test_controlled_loop_watchdog(self):
        cfg = dataclasses.replace(check_config(1, "baseline"),
                                  deadlock_cycles=50)
        cfg.validate()
        system = System(cfg, [Trace("w", [store(0x60_0000, 8)])])
        _strand(system)
        system.events.schedule(10_000, lambda: None, label="faraway")
        with pytest.raises(DeadlockError) as excinfo:
            system.run_controlled(DefaultScheduler())
        assert excinfo.value.dump.reason == "watchdog"


class TestWatchdogLivelock:
    def test_endless_directory_retry_trips_watchdog(self):
        # A known livelock point: core 2's GetS retries at the directory
        # forever while every other core has finished.  Fired retry
        # events are not core progress, so the watchdog must trip.
        from repro.harness.runner import Point, Runner
        runner = Runner(use_disk_cache=False, seed=25, par_length=600)
        with pytest.raises(DeadlockError) as excinfo:
            runner.simulate(Point("dedup", "baseline", 114))
        dump = excinfo.value.dump
        assert dump.reason == "watchdog"
        stuck = [t for t in dump.inflight
                 if t["requester"] == 2 and t["req"] == "GetS"]
        assert len(stuck) == 1
        assert stuck[0]["line"] == 0x4800c0240
        assert stuck[0]["retries"] > 100_000
        assert [c["core"] for c in dump.cores
                if c["committed"] < c["trace_len"]] == [2]


class TestCycleBudgetBranch:
    def test_raises_with_dump(self):
        system = tus_system()
        with pytest.raises(DeadlockError) as excinfo:
            system.run_controlled(DefaultScheduler(), max_cycles=3)
        dump = excinfo.value.dump
        assert dump.reason == "cycle-budget"
        assert dump.cycle >= 3
        # The run was healthy, merely over budget: cores have state.
        assert any(c["committed"] >= 0 for c in dump.cores)


class TestDumpContents:
    def capture_mid_run(self, mechanism="tus"):
        traces = [Trace(f"c{cid}",
                        [store(0x60_0000 + (i % 4) * 64 + cid * 8, 8)
                         for i in range(40)])
                  for cid in range(2)]
        system = System(check_config(2, mechanism), traces)
        system.run(max_cycles=40)
        return ProgressDump.capture(system, "watchdog", "mid-run probe")

    def test_core_sections_populated(self):
        dump = self.capture_mid_run()
        for core in dump.cores:
            assert {"core", "committed", "rob", "sb", "lq_occupancy",
                    "mechanism"} <= set(core)
            assert core["sb"]["capacity"] == 4
        # Mid-burst, at least one SB should be non-empty.
        assert any(c["sb"]["occupancy"] for c in dump.cores)

    def test_tus_mechanism_section(self):
        dump = self.capture_mid_run("tus")
        mechs = [c["mechanism"] for c in dump.cores]
        assert all("drained" in m for m in mechs)
        assert any("woq" in m or "wcb" in m for m in mechs)

    def test_round_trip_and_render(self):
        dump = self.capture_mid_run()
        clone = ProgressDump.from_dict(dump.to_dict())
        assert clone.to_dict() == dump.to_dict()
        text = clone.render()
        assert "progress dump" in text
        assert "core 0" in text and "core 1" in text
        assert "events:" in text

    def test_dump_is_json_plain(self):
        import json
        dump = self.capture_mid_run()
        json.dumps(dump.to_dict())   # must not raise

    def test_event_head_sorted(self):
        dump = self.capture_mid_run()
        head = dump.events["head"]
        assert head == sorted(head, key=lambda e: e["cycle"])

    def test_render_handles_deadlock_dump(self):
        system = tus_system()
        _strand(system)
        with pytest.raises(DeadlockError) as excinfo:
            system.run()
        text = excinfo.value.dump.render()
        assert "no-progress" in text


class TestCaptureIsReadOnly:
    def test_capture_does_not_perturb_the_run(self):
        def run(probe_at):
            traces = [Trace(f"c{cid}",
                            [store(0x60_0000 + (i % 4) * 64 + cid * 8, 8)
                             for i in range(40)])
                      for cid in range(2)]
            system = System(check_config(2, "tus"), traces)
            if probe_at:
                system.run(max_cycles=probe_at)
                ProgressDump.capture(system, "watchdog", "probe")
            result = system.run()
            return result
        plain = run(0)
        probed = run(20)
        assert probed.cycles == plain.cycles
        assert probed.stats == plain.stats
