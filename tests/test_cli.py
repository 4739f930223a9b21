"""The command-line interface."""

import dataclasses

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

    def test_submit_kinds_are_the_service_job_kinds(self, capsys):
        from repro.service.jobs import JOB_KINDS
        for kind in JOB_KINDS:
            assert build_parser().parse_args(["submit", kind]).kind == kind
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["submit", "bench"])
        assert err.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


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

    def test_check_failed_cell_is_an_error_line(self, capsys, monkeypatch):
        from repro.harness import checks

        def boom(job):
            raise RuntimeError("cell exploded")
        monkeypatch.setattr(checks, "run_check", boom)
        assert main(["check", "--scenario", "sb", "--mechanism", "tus",
                     "--workers", "1"]) == 1
        out = capsys.readouterr().out
        assert "ERROR sb/tus: error: RuntimeError: cell exploded" in out
        assert "0/1 checks passed" in out

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
