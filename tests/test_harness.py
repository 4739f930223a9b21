"""The experiment harness: runner caching and experiment plumbing.

Experiments run on tiny benchmark subsets with short traces so the
whole file stays fast; the full-set versions live in ``benchmarks/``.
"""

import pytest

from repro.common.config import MECHANISMS
from repro.harness.experiments import (dse, fig8, fig9, fig10, fig11,
                                       fig12, fig13, fig15, l1d_writes,
                                       sb_cost)
from repro.harness.runner import Point, Runner, source_fingerprint

SMALL = ["synth.burst", "synth.scatter"]


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return Runner(cache_dir=str(tmp_path_factory.mktemp("cache")),
                  st_length=6000, par_length=400,
                  num_cores_parallel=4, simpoints=1, parsec_simpoints=1)


class TestRunnerCaching:
    def test_memory_cache_returns_same_object(self, runner):
        a = runner.run("synth.burst", "baseline", 114)
        b = runner.run("synth.burst", "baseline", 114)
        assert a is b

    def test_disk_cache_round_trip(self, tmp_path):
        r1 = Runner(cache_dir=str(tmp_path), st_length=3000, simpoints=1)
        first = r1.run("synth.burst", "baseline", 114)
        r2 = Runner(cache_dir=str(tmp_path), st_length=3000, simpoints=1)
        second = r2.run("synth.burst", "baseline", 114)
        assert first is not second
        assert first.cycles == second.cycles
        assert first.stats == second.stats

    def test_distinct_points_differ(self, runner):
        a = runner.run("synth.burst", "baseline", 114, point=0)
        b = runner.run("synth.burst", "baseline", 114, point=1)
        assert a.cycles != b.cycles   # different trace seeds

    def test_fingerprint_stable_within_process(self):
        assert source_fingerprint() == source_fingerprint()

    def test_speedup_definition(self, runner):
        assert runner.speedup("synth.burst", "baseline", 114) == 1.0

    def test_energy_attached(self, runner):
        assert runner.run("synth.burst", "tus", 114).energy > 0

    @pytest.mark.parametrize("bench", ["502.gcc2", "streamcluster"])
    def test_next_point_of_a_workload_reuses_its_traces(self, monkeypatch,
                                                         bench):
        """Every mechanism of one workload runs on one generated trace
        set, with the result a fresh runner gives; another seed or
        bench generates again."""
        import repro.harness.runner as runner_module
        made = []
        for name in ("make_trace", "make_parallel_traces"):
            real = getattr(runner_module, name)
            monkeypatch.setattr(runner_module, name, lambda *args, real=real:
                                made.append(args) or real(*args))

        def fresh(pt):
            return Runner(use_disk_cache=False, st_length=1500,
                          par_length=200, num_cores_parallel=4,
                          simpoints=2).simulate(pt)

        shared = Runner(use_disk_cache=False, st_length=1500, par_length=200,
                        num_cores_parallel=4, simpoints=2)
        points = [Point(bench, mech, 114) for mech in MECHANISMS] \
            + [Point(bench, "ssb", 114, point=1),
               Point("synth.burst", "ssb", 114)]
        results = [shared.simulate(pt).canonical_json() for pt in points]
        assert len(made) == 3
        assert results == [fresh(pt).canonical_json() for pt in points]


class TestExperiments:
    def test_fig9_structure(self, runner):
        result = fig9(runner, benches=SMALL)
        assert set(result.rows) == set(SMALL)
        assert "mean" in result.summary
        assert 0 <= result.value("mean", "baseline") <= 1

    def test_fig10_structure(self, runner):
        out = fig10(runner, benches=SMALL, all_benches=SMALL)
        assert set(out) == {"scurve", "breakdown"}
        assert out["breakdown"].value("geomean", "baseline") == 1.0

    def test_fig11_structure(self, runner):
        result = fig11(runner, benches=SMALL)
        assert result.value("geomean", "baseline") == pytest.approx(1.0)

    def test_fig13_uses_32_entry_base(self, runner):
        out = fig13(runner, benches=SMALL, all_benches=SMALL)
        assert out["breakdown"].value("geomean", "baseline") == 1.0

    def test_fig8_structure(self, runner):
        result = fig8(runner, benches=SMALL, parsec_benches=[])
        row = result.rows["spec+tf"]
        assert row["baseline@114"] == 1.0
        assert row["baseline@32"] <= row["baseline@114"] * 1.05

    def test_fig12_parsec_small(self, runner):
        out = fig12(runner, benches=["blackscholes"])
        assert "blackscholes" in out["speedup"].rows

    def test_fig15_structure(self, runner):
        result = fig15(runner, benches=SMALL)
        assert result.value("geomean", "baseline") == pytest.approx(1.0)

    def test_l1d_writes_baseline_is_one(self, runner):
        result = l1d_writes(runner, benches=SMALL)
        assert result.value("geomean", "baseline") == pytest.approx(1.0)

    def test_dse_runs_variants(self, runner):
        result = dse(runner, benches=["synth.burst"])
        assert "default(2wcb,64woq,16grp)" in result.rows
        assert len(result.rows) == 7

    def test_sb_cost_static(self):
        result = sb_cost()
        assert result.value("woq_storage_bytes", "model") == 272
