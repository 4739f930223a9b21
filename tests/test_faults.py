"""Fault injection: determinism, boundedness, zero-cost disabled path,
and the campaign oracle.

The contracts under test: a (seed, config) pair names exactly one
perturbation schedule; injections never exceed the structural budget;
the disabled null object leaves simulation results bit-identical; and a
pinned-seed campaign per mechanism terminates, violates no invariant,
and matches the fault-free run's derived final-memory image.
"""

import os

import pytest

from repro.common.config import RetryConfig, table_i
from repro.common.errors import ConfigError
from repro.coherence.memsys import RetryPolicy
from repro.cpu.isa import alu, store
from repro.cpu.trace import Trace
from repro.faults import (FaultConfig, FaultInjector, FaultPlan,
                          INTENSITIES, NULL_FAULTS, SITES)
from repro.faults.campaign import (CampaignSpec, build_traces,
                                   derived_image, run_campaign,
                                   run_campaigns, sweep_specs)
from repro.faults import campaign
from repro.sim.system import System


def small_system(mechanism="tus", cores=2):
    traces = []
    for cid in range(cores):
        uops = [store(0x70_0000 + (i % 6) * 64 + cid * 8, 8)
                if i % 2 == 0 else alu() for i in range(80)]
        traces.append(Trace(f"c{cid}", uops))
    cfg = table_i().with_cores(cores).with_mechanism(mechanism)
    return System(cfg, traces)


class TestFaultConfig:
    def test_defaults_validate(self):
        FaultConfig().validate()
        for preset in INTENSITIES.values():
            preset.validate()

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(rate=1.5).validate()

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(sites=("dir-busy", "nonsense")).validate()

    def test_bad_magnitude_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(magnitude=0).validate()


class TestNullFaults:
    def test_falsy_and_inert(self):
        assert not NULL_FAULTS
        assert not NULL_FAULTS.enabled
        assert NULL_FAULTS.delay("dir-busy") == 0
        assert not NULL_FAULTS.refuse("mshr-full")
        assert not NULL_FAULTS.force_delay(0x1000, 0)
        assert NULL_FAULTS.summary() == {}

    def test_every_holder_starts_disabled(self):
        system = small_system()
        assert system.memsys.faults is NULL_FAULTS
        assert system.memsys.directory.faults is NULL_FAULTS
        assert system.memsys.dram.faults is NULL_FAULTS
        for port in system.memsys.ports:
            assert port.mshrs.faults is NULL_FAULTS


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        decisions_a = [FaultPlan(7).delay(site) for site in SITES * 20]
        decisions_b = [FaultPlan(7).delay(site) for site in SITES * 20]
        # Per-plan streams, so replay the same call sequence per plan.
        plan_a, plan_b = FaultPlan(7), FaultPlan(7)
        seq_a = [(plan_a.delay(s), plan_a.refuse(s)) for s in SITES * 50]
        seq_b = [(plan_b.delay(s), plan_b.refuse(s)) for s in SITES * 50]
        assert seq_a == seq_b
        assert decisions_a == decisions_b

    def test_different_seeds_differ(self):
        plan_a, plan_b = FaultPlan(1), FaultPlan(2)
        seq_a = [plan_a.delay(s) for s in SITES * 200]
        seq_b = [plan_b.delay(s) for s in SITES * 200]
        assert seq_a != seq_b

    def test_site_budget_caps_injections(self):
        config = FaultConfig(rate=1.0, site_budget=5)
        plan = FaultPlan(0, config)
        hits = sum(1 for _ in range(100) if plan.delay("dram-jitter"))
        assert hits == 5
        assert plan.counts["dram-jitter"] == 5

    def test_delay_magnitude_bounded(self):
        config = FaultConfig(rate=1.0, magnitude=16, site_budget=1000)
        plan = FaultPlan(3, config)
        delays = [plan.delay("fill-delay") for _ in range(500)]
        assert all(0 <= d <= 16 for d in delays)
        assert plan.injected_cycles["fill-delay"] == sum(delays)

    def test_burst_bounded_and_draining(self):
        config = FaultConfig(rate=1.0, burst=3, site_budget=1)
        plan = FaultPlan(5, config)
        # One budgeted burst: at most `burst` consecutive True answers,
        # then permanently False (budget exhausted).
        answers = [plan.force_delay(0x1000, 1) for _ in range(10)]
        streak = answers.index(False)
        assert 1 <= streak <= 3
        assert not any(answers[streak:])

    def test_summary_only_lists_active_sites(self):
        plan = FaultPlan(0, FaultConfig(rate=1.0, site_budget=2))
        plan.delay("dram-jitter")
        summary = plan.summary()
        assert set(summary) == {"dram-jitter"}
        assert summary["dram-jitter"]["count"] == 1


class TestInjector:
    def test_attach_detach_round_trip(self):
        system = small_system()
        plan = FaultPlan(0)
        with FaultInjector(system, plan):
            assert system.memsys.faults is plan
            assert system.memsys.directory.faults is plan
            assert system.memsys.dram.faults is plan
            for port in system.memsys.ports:
                assert port.mshrs.faults is plan
        assert system.memsys.faults is NULL_FAULTS
        for port in system.memsys.ports:
            assert port.mshrs.faults is NULL_FAULTS

    def test_double_attach_rejected(self):
        system = small_system()
        injector = FaultInjector(system, FaultPlan(0))
        injector.attach()
        with pytest.raises(RuntimeError):
            injector.attach()


class TestZeroImpact:
    @pytest.mark.parametrize("mechanism", ["baseline", "csb", "tus"])
    def test_disabled_hooks_bit_identical(self, mechanism):
        # Attach and immediately detach: the hook layer itself (swapped
        # back to NULL_FAULTS) must leave the run bit-identical.
        plain = small_system(mechanism).run()
        system = small_system(mechanism)
        injector = FaultInjector(system, FaultPlan(0)).attach()
        injector.detach()
        result = system.run()
        assert result.cycles == plain.cycles
        assert result.stats == plain.stats

    def test_faulted_run_is_deterministic(self):
        def run_once():
            system = small_system("tus")
            with FaultInjector(system, FaultPlan(11,
                                                 INTENSITIES["high"])):
                return system.run()
        a, b = run_once(), run_once()
        assert a.cycles == b.cycles
        assert a.stats == b.stats

    def test_faults_actually_perturb(self):
        plain = small_system("tus").run()
        system = small_system("tus")
        plan = FaultPlan(11, INTENSITIES["high"])
        with FaultInjector(system, plan):
            faulted = system.run()
        assert plan.total_injections > 0
        assert faulted.cycles != plain.cycles
        # Same work still retires.
        assert faulted.committed == plain.committed


class TestCampaign:
    def test_workload_is_single_writer(self):
        spec = CampaignSpec(seed=4)
        traces = build_traces(spec)
        stored = []
        for trace in traces:
            stored.append({uop.addr & ~63 for uop in trace
                           if uop.kind.is_store})
        assert not stored[0] & stored[1]

    def test_workload_seeded(self):
        a = build_traces(CampaignSpec(seed=9))
        b = build_traces(CampaignSpec(seed=9))
        c = build_traces(CampaignSpec(seed=10))
        key = lambda ts: [[(u.kind, u.addr) for u in t] for t in ts]
        assert key(a) == key(b)
        assert key(a) != key(c)

    @pytest.mark.parametrize("mechanism", ["baseline", "csb", "tus"])
    def test_pinned_seed_campaigns_green(self, mechanism):
        for seed in (0, 1, 2):
            result = run_campaign(CampaignSpec(
                seed=seed, mechanism=mechanism, intensity="high"))
            assert result.ok, f"{result.label}: {result.detail}"
            assert result.committed == result.ref_committed

    def test_campaign_result_round_trip(self):
        result = run_campaign(CampaignSpec(seed=0))
        clone = type(result).from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.ok == result.ok

    def test_unknown_intensity_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(seed=0, intensity="apocalyptic").fault_config()

    def test_sweep_specs_cover_matrix(self):
        specs = sweep_specs(seeds=(0, 1), mechanisms=("tus", "csb"),
                            intensities=("low", "high"))
        assert len(specs) == 8
        assert len({s.label() for s in specs}) == 8

    def test_label_names_a_scaled_machine(self):
        assert CampaignSpec(seed=3).label() == "tus/medium/seed3/c2"
        spec = CampaignSpec(seed=3, machine={"topology": "mesh",
                                             "dir_shards": 4})
        assert spec.label() == "tus/medium/seed3/c2/mesh-s4"

    def test_run_campaigns_records_worker_errors(self):
        # An invalid intensity raises inside the worker; the sweep must
        # record it and still finish the valid points.
        specs = [CampaignSpec(seed=0),
                 CampaignSpec(seed=1, intensity="bogus"),
                 CampaignSpec(seed=2)]
        results = run_campaigns(specs, workers=1)
        assert len(results) == 3
        outcomes = [r.outcome for r in results]
        assert outcomes[0] == "ok" and outcomes[2] == "ok"
        assert results[1].outcome == "error"
        assert "bogus" in results[1].detail

    def test_worker_crash_costs_only_its_own_spec(self, monkeypatch):
        # Seed 1's worker process dies outright (a pool break): only that
        # spec is an error, every other seed still runs, in spec order.
        monkeypatch.setattr(campaign, "run_campaign", _dies_on_seed_1)
        specs = [CampaignSpec(seed=seed) for seed in range(4)]
        results = run_campaigns(specs, workers=2)
        assert [r.seed for r in results] == [0, 1, 2, 3]
        assert [r.outcome for r in results] == ["ok", "error", "ok", "ok"]
        assert "BrokenProcessPool" in results[1].detail


_real_run_campaign = run_campaign


def _dies_on_seed_1(spec):
    if spec.seed == 1:
        os._exit(17)    # kills the worker process, breaking the pool
    return _real_run_campaign(spec)


class TestDerivedImage:
    def test_reference_image_well_formed(self):
        spec = CampaignSpec(seed=6)
        from repro.faults.campaign import _make_system
        traces = build_traces(spec)
        system, observer = _make_system(spec, traces)
        system.run()
        image = derived_image(observer, traces)
        # Every line maps to its designated owner.
        from repro.faults.campaign import campaign_lines
        ownership = campaign_lines(spec)
        for line, (owner, _) in image.items():
            assert line in ownership[owner]


class TestRetryPolicy:
    def test_fixed_policy_never_touches_rng(self):
        policy = RetryPolicy(RetryConfig())
        assert policy._rng is None
        assert policy.busy_delay(0) == 16
        assert policy.busy_delay(50) == 16

    def test_backoff_grows_and_caps(self):
        cfg = RetryConfig(policy="backoff", busy_retry=4,
                          backoff_factor=2, max_delay=64, jitter=0)
        policy = RetryPolicy(cfg)
        delays = [policy.busy_delay(a) for a in range(10)]
        assert delays[0] == 4
        assert delays == sorted(delays)
        assert max(delays) == 64
        # Huge attempt counts stay capped (no overflow blowup).
        assert policy.busy_delay(10_000) == 64

    def test_backoff_jitter_bounded_and_seeded(self):
        cfg = RetryConfig(policy="backoff", busy_retry=4, jitter=8,
                          max_delay=64, seed=3)
        a = [RetryPolicy(cfg).busy_delay(1) for _ in range(1)]
        b = [RetryPolicy(cfg).busy_delay(1) for _ in range(1)]
        assert a == b
        base = 8   # busy_retry * factor**1
        assert base <= a[0] <= base + 8

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RetryConfig(policy="chaotic").validate()
        with pytest.raises(ConfigError):
            RetryConfig(policy="backoff", max_delay=4,
                        busy_retry=16).validate()
        with pytest.raises(ConfigError):
            RetryConfig(jitter=-1).validate()

    def test_backoff_system_runs_and_is_deterministic(self):
        import dataclasses
        cfg = dataclasses.replace(
            table_i().with_cores(2).with_mechanism("tus"),
            retry=RetryConfig(policy="backoff", seed=5))
        cfg.validate()

        def run_once():
            traces = [Trace(f"c{cid}",
                            [store(0xAB_0000 + (i % 4) * 64, 8)
                             if i % 2 == 0 else alu()
                             for i in range(60)])
                      for cid in range(2)]
            return System(cfg, traces).run()
        a, b = run_once(), run_once()
        assert a.committed == 120
        assert a.cycles == b.cycles
        assert a.stats == b.stats
