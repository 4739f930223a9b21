"""The command-line interface."""

import dataclasses
import json

import pytest

from repro.cli import build_parser, main
from repro.models import corpus as corpus_mod


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.bench == "502.gcc5"
        assert args.mechanism == "tus"
        assert args.sb == 114

    def test_mechanism_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mechanism", "magic"])


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--bench", "synth.burst",
                     "--length", "2000"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "IPC" in out

    def test_compare(self, capsys):
        assert main(["compare", "--bench", "synth.burst",
                     "--length", "2000", "--sb", "32"]) == 0
        out = capsys.readouterr().out
        for mechanism in ("baseline", "ssb", "csb", "spb", "tus"):
            assert mechanism in out

    def test_litmus(self, capsys):
        assert main(["litmus"]) == 0
        assert "VIOLATION" not in capsys.readouterr().out

    def test_litmus_mechanism_filter(self, capsys):
        assert main(["litmus", "--mechanism", "tus"]) == 0
        out = capsys.readouterr().out
        assert "tus" in out and "baseline" not in out

    def test_check_exhaustive_pass(self, capsys):
        assert main(["check", "--scenario", "sb", "--mechanism", "tus",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "exhaustive" in out
        assert "1/1 checks passed" in out

    def test_check_unsound_reports_counterexample(self, capsys):
        assert main(["check", "--scenario", "overlap", "--mechanism",
                     "tus", "--unsound-auth", "--workers", "1"]) == 1
        out = capsys.readouterr().out
        assert "wait-graph" in out
        assert "replay(" in out      # the pytest reproducer snippet

    def test_check_fuzz_mode(self, capsys):
        assert main(["check", "--scenario", "sb", "--mechanism",
                     "baseline", "--fuzz", "5", "--workers", "1"]) == 0
        assert "fuzz" in capsys.readouterr().out

    def test_bench_listing(self, capsys):
        assert main(["bench"]) == 0
        out = capsys.readouterr().out
        assert "502.gcc5" in out and "streamcluster" in out

    def test_figure_sbcost(self, capsys):
        assert main(["figure", "sbcost"]) == 0
        assert "272" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "nope"]) == 2


class TestModelCommands:
    def test_models_lists_backends(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "tso" in out and "relaxed" in out
        assert "default" in out

    def test_litmus_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["litmus", "--model", "sc"])

    def test_litmus_default_model_is_tso(self):
        args = build_parser().parse_args(["litmus"])
        assert args.model == "tso"

    def test_litmus_relaxed(self, capsys):
        assert main(["litmus", "--model", "relaxed"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        # The relaxed-only shapes must report their allowed criticals.
        assert "MP" in out and "IRIW" in out

    def test_litmus_relaxed_mechanism_filter(self, capsys):
        assert main(["litmus", "--model", "relaxed",
                     "--mechanism", "tus"]) == 0
        assert "MISMATCH" not in capsys.readouterr().out

    def test_litmus_explicit_tso_matches_default(self, capsys):
        # The default model is tso: same corpus, same output.
        assert main(["litmus"]) == 0
        default = capsys.readouterr().out
        assert main(["litmus", "--model", "tso"]) == 0
        assert capsys.readouterr().out == default

    def test_litmus_default_runs_whole_corpus(self, capsys):
        assert main(["litmus"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == \
            [entry.name for entry in corpus_mod.corpus()]
        assert all(" tso=" in row and " ax=" in row for row in rows)

    def test_litmus_verdict_disagreement_fails(self, capsys, monkeypatch):
        flipped = tuple(
            dataclasses.replace(entry, expectations={
                **entry.expectations, "tso": "forbidden"})
            if entry.name == "SB" else entry
            for entry in corpus_mod.corpus())
        monkeypatch.setattr(corpus_mod, "corpus", lambda: flipped)
        assert main(["litmus", "--mechanism", "baseline"]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert [row for row in rows if row.endswith("VIOLATION")] == \
            [row for row in rows if row.startswith("SB ")]

    def test_check_relaxed(self, capsys):
        assert main(["check", "--scenario", "sb", "--mechanism", "tus",
                     "--model", "relaxed", "--max-states", "4000",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "relaxed" in out

    def test_check_default_summary_omits_model(self, capsys):
        assert main(["check", "--scenario", "sb", "--mechanism", "tus",
                     "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "tso" not in out and "relaxed" not in out


class TestBenchSuite:
    """`repro bench --suite` runs the performance suite; `--check`
    compares against a committed baseline report."""

    @pytest.fixture(scope="class")
    def report_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "report.json"
        assert main(["bench", "--suite", "micro", "--quick",
                     "--trials", "2", "--json", str(path)]) == 0
        return path

    def test_micro_quick_smoke(self, report_path, capsys):
        assert report_path.exists()

    def test_report_schema(self, report_path):
        report = json.loads(report_path.read_text())
        assert report["version"] == 1
        for key in ("python", "platform", "machine", "commit"):
            assert key in report["environment"]
        assert report["protocol"] == {"warmup": 1, "trials": 2,
                                      "quick": True}
        names = [b["name"] for b in report["benchmarks"]]
        assert names == ["micro.event_queue", "micro.cache_lookup",
                         "micro.sb_drain", "micro.addr_helpers"]
        for bench in report["benchmarks"]:
            assert bench["suite"] == "micro"
            assert len(bench["samples"]) == bench["trials"] == 2
            assert 0 < bench["min"] <= bench["median"]
            assert bench["mad"] >= 0
            assert bench["meta"]

    def test_check_passes_against_self(self, report_path, capsys):
        # A huge threshold keeps this robust on loaded test hosts: the
        # assertion is about the pass path, not about host quietness.
        assert main(["bench", "--suite", "micro", "--quick",
                     "--trials", "2", "--check", str(report_path),
                     "--threshold", "50"]) == 0
        assert "no regression" in capsys.readouterr().out

    def test_check_fails_on_regression(self, report_path, tmp_path,
                                       capsys):
        # A baseline claiming everything used to be 1000x faster must
        # trip the threshold and exit nonzero.
        report = json.loads(report_path.read_text())
        for bench in report["benchmarks"]:
            bench["median"] /= 1000.0
        fast = tmp_path / "impossible.json"
        fast.write_text(json.dumps(report))
        assert main(["bench", "--suite", "micro", "--quick",
                     "--trials", "2", "--check", str(fast)]) == 1
        assert "REGRESSION" in capsys.readouterr().err

    def test_committed_baseline_is_current(self):
        # BENCH_4.json at the repo root must describe today's suite:
        # full (non-quick) runs of registered benchmarks.  The check is
        # additive — every committed entry must still be registered, but
        # a brand-new bench point may land a PR ahead of the next full
        # baseline refresh — except for the fingerprinted macro points,
        # which gate simulator-semantics drift and must always be there.
        from pathlib import Path

        from repro.bench import all_benchmarks
        committed = Path(__file__).parent.parent / "BENCH_4.json"
        report = json.loads(committed.read_text())
        assert report["version"] == 1
        assert report["protocol"]["quick"] is False
        names = {b["name"] for b in report["benchmarks"]}
        assert names <= {b.name for b in all_benchmarks("all")}
        assert {"macro.spec_single", "macro.parsec_4core",
                "macro.canneal_16"} <= names
