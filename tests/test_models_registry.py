"""The memory-model registry, and the golden-set regressions.

No model's behaviour may drift silently: each backend's reference,
TUS-machine, mechanism, and random-walk outcome sets are pinned here
as SHA-256 fingerprints (so a semantic change cannot hide inside a
pass), and the committed ``BENCH_4.json`` macro fingerprints must be
untouched.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.config import MECHANISMS
from repro.common.errors import ModelError
from repro.harness.checks import CheckJob
from repro.models import (DEFAULT_MODEL, available_models,
                          enumerate_mechanism_outcomes,
                          enumerate_model_outcomes, enumerate_tus_outcomes,
                          get_model, random_walk_outcomes)
from repro.models.corpus import corpus, corpus_by_name
from repro.models.drivers import enumerate_machine
from repro.models.tso import enumerate_outcomes as sewell_outcomes

CORPUS = {entry.name: entry for entry in corpus()}

#: SHA-256 of ``repr(sorted(outcomes))`` of the pre-refactor x86-TSO
#: reference enumeration, per corpus program.  Pinned: any change to
#: the default model's semantics must show up here.
#:
#: The same digests pin the TUS machine and the ``baseline``/``tus``
#: mechanism enumerations: computed with the separate enumerators that
#: existed before the x86-TSO machines moved into ``repro.models.tso``,
#: every one of them matched this table program for program (on the
#: corpus, TUS on x86-TSO produces exactly the reference outcomes).
#: ``ssb``, ``csb`` and ``spb`` also matched it before the TSO and
#: relaxed TUS machines were folded into one, so all five are pinned.
TSO_GOLDEN = {
    "SB": "cd2a9064be931447f0b0793d990abdb875fdcb5c8aa8be79b25bfc16c06a02d5",
    "SB+fences": "13d06ba8eda01b1eecdd97be5cef3b70b36827b46dca1551e4793739b4f176b9",
    "MP": "3eb421ffe24024df7210617a01c87e0787586e28af16deebfcf174cf1bff2521",
    "MP+fences": "be76edae4256a5c68fdf54241d054985e9cd701650d27b23c0cc2490f7a2c73b",
    "LB": "67740462a03ef58d25734d1f45fc348763f2681ee39edb4640a78905a6f90a4a",
    "LB+fences": "67740462a03ef58d25734d1f45fc348763f2681ee39edb4640a78905a6f90a4a",
    "WRC": "c1dee2b212f9063545f9c5561358592cba02256de8a9a4281815d53a09df882f",
    "WRC+fences": "c1dee2b212f9063545f9c5561358592cba02256de8a9a4281815d53a09df882f",
    "IRIW": "1170a4651675905efaebb54d7238a22041add9e90021c610130b32562888680b",
    "IRIW+fences": "1170a4651675905efaebb54d7238a22041add9e90021c610130b32562888680b",
    "SF": "c450f3976c629c83435940939d6f4163bfd4d42c587ad7cec22deaaf4220a580",
    "ABA-coalesce": "5f5300250df45e5ba6bbace69d3879f75cba78c315991b5b4940e315b856e97f",
    "interleave": "0722634700a2bc4e7e326e26c06916248a48e36c7b059ab59a5e70899ff18412",
    "2+2W": "f68ec5a003130856ee9d3d4c62216567b30fdb3fa4ea78ba70bef746191b160c",
    "CoRR": "d4b127042aaf0d93c6622ce488505e7587b6c8b875c945d25c2bd0710a279263",
}

#: Digest of ``random_walk_outcomes(SB, walks=25, seed=7)``, computed
#: with the pre-fold random-walk wrapper: the seeded stream reaches all
#: four SB outcomes, so it also equals the SB reference digest.
SB_WALK_GOLDEN = \
    "cd2a9064be931447f0b0793d990abdb875fdcb5c8aa8be79b25bfc16c06a02d5"

#: Per corpus program, the ``relaxed`` backend's pinned digests:
#: ``(reference, machine, walk)``.  ``reference`` is the plain relaxed
#: enumeration, ``machine`` the TUS machine's, and ``walk`` that of
#: ``random_walk_outcomes(walks=25, seed=7)``.  Every mechanism's
#: enumeration (coalescing or not) is pinned to ``machine``: computed
#: before the TSO and relaxed TUS machines were folded into one, all
#: five matched it program for program.
RELAXED_GOLDEN = {
    "SB": (
        "cd2a9064be931447f0b0793d990abdb875fdcb5c8aa8be79b25bfc16c06a02d5",
        "cd2a9064be931447f0b0793d990abdb875fdcb5c8aa8be79b25bfc16c06a02d5",
        "67740462a03ef58d25734d1f45fc348763f2681ee39edb4640a78905a6f90a4a"),
    "SB+fences": (
        "13d06ba8eda01b1eecdd97be5cef3b70b36827b46dca1551e4793739b4f176b9",
        "13d06ba8eda01b1eecdd97be5cef3b70b36827b46dca1551e4793739b4f176b9",
        "13d06ba8eda01b1eecdd97be5cef3b70b36827b46dca1551e4793739b4f176b9"),
    "MP": (
        "cd2a9064be931447f0b0793d990abdb875fdcb5c8aa8be79b25bfc16c06a02d5",
        "cd2a9064be931447f0b0793d990abdb875fdcb5c8aa8be79b25bfc16c06a02d5",
        "e154cab8f96d6798413532466b490ccbbf25d6a644c2f0956b0fe85d91564422"),
    "MP+fences": (
        "be76edae4256a5c68fdf54241d054985e9cd701650d27b23c0cc2490f7a2c73b",
        "be76edae4256a5c68fdf54241d054985e9cd701650d27b23c0cc2490f7a2c73b",
        "ba50bb659e150ded22ed65e0009e9b2b1de63fd891b69f7647c188bb0fce4d88"),
    "LB": (
        "cd2a9064be931447f0b0793d990abdb875fdcb5c8aa8be79b25bfc16c06a02d5",
        "67740462a03ef58d25734d1f45fc348763f2681ee39edb4640a78905a6f90a4a",
        "394eec2993b76cdd1d435c99d0a1b57356d1a86c8a648166c04d1663938276b2"),
    "LB+fences": (
        "67740462a03ef58d25734d1f45fc348763f2681ee39edb4640a78905a6f90a4a",
        "67740462a03ef58d25734d1f45fc348763f2681ee39edb4640a78905a6f90a4a",
        "e0c231d73fde08c3c80ec3f11808f8c5cd100d489641667610d4c786cfe01e3e"),
    "WRC": (
        "1f29e2ce7b8792aa27d0f81d8a416755d98d9f4554eddb3b7a5e5ec1767e4511",
        "1f29e2ce7b8792aa27d0f81d8a416755d98d9f4554eddb3b7a5e5ec1767e4511",
        "f590589cea73e4683e8dd7f11e2ffb7b18a41704ca981e20347bb3e1179ef127"),
    "WRC+fences": (
        "c1dee2b212f9063545f9c5561358592cba02256de8a9a4281815d53a09df882f",
        "c1dee2b212f9063545f9c5561358592cba02256de8a9a4281815d53a09df882f",
        "3ab88de38af1d428ce8180556b36802f44ddb93fc2540cd86687592d8709392e"),
    "IRIW": (
        "36a96106ca5cca6237be8ae896ab9f52fbf751016a08a284d70217424e2a2a69",
        "36a96106ca5cca6237be8ae896ab9f52fbf751016a08a284d70217424e2a2a69",
        "a6aa67503399384f83fb2915461f5dbf942cdff7db53b429b90ae55a6de02751"),
    "IRIW+fences": (
        "1170a4651675905efaebb54d7238a22041add9e90021c610130b32562888680b",
        "1170a4651675905efaebb54d7238a22041add9e90021c610130b32562888680b",
        "40c5e3cf0da9b188d2ecb145aeb76b0f3a9e78da6795a6e85bb59284e52e83f0"),
    "SF": (
        "c450f3976c629c83435940939d6f4163bfd4d42c587ad7cec22deaaf4220a580",
        "c450f3976c629c83435940939d6f4163bfd4d42c587ad7cec22deaaf4220a580",
        "c450f3976c629c83435940939d6f4163bfd4d42c587ad7cec22deaaf4220a580"),
    "ABA-coalesce": (
        "b3845598dbfa7b685846f31db451ec6bcd6817918f6b5c0c1ce9b4049c2a9cc4",
        "b3845598dbfa7b685846f31db451ec6bcd6817918f6b5c0c1ce9b4049c2a9cc4",
        "95473b52f61e250d9fc64721bb0c96f5a312f4134e3f5cbf5e364dfa46b1833d"),
    "interleave": (
        "e43bbf4d13893fd3391d9357f1a55d5c2cd2ee2d25f02928e6c2672f0098c1fa",
        "e43bbf4d13893fd3391d9357f1a55d5c2cd2ee2d25f02928e6c2672f0098c1fa",
        "bf36c30ca3448d9077d8f248dc9061fb98a1b50cf3d6ff96d73fdba5d21f0df1"),
    "2+2W": (
        "469409eb723e7056bf458c2ce086a664bfa7ccd2b3d7f077b7ae14d698b9faf5",
        "469409eb723e7056bf458c2ce086a664bfa7ccd2b3d7f077b7ae14d698b9faf5",
        "f68ec5a003130856ee9d3d4c62216567b30fdb3fa4ea78ba70bef746191b160c"),
    "CoRR": (
        "d4b127042aaf0d93c6622ce488505e7587b6c8b875c945d25c2bd0710a279263",
        "d4b127042aaf0d93c6622ce488505e7587b6c8b875c945d25c2bd0710a279263",
        "d4b127042aaf0d93c6622ce488505e7587b6c8b875c945d25c2bd0710a279263"),
}

#: The committed macro-benchmark fingerprints of BENCH_4.json.  The
#: refactor must not change what the macro workloads simulate.
BENCH_4_MACRO = {
    "macro.spec_single":
        "9142b4d4a52744ca315c0130ca5bdb028c593926fc4b7dc4aab416f705d7efb5",
    "macro.parsec_4core":
        "8c1b84fd8d3899ce58d982c6d14de4d230467db1f2e54e3c6218a797d3b70a80",
    "macro.canneal_16":
        "efe3c605e5d662021df835a566af7fc12e80c81883dfec8d2282a74e7ad5d570",
}

#: The committed counts of BENCH_4.json's model-checker slice
#: (``explore("overlap", "tus", cores=2, lines=2, max_states=200)``).
BENCH_4_MODELCHECK_SLICE = {"unique_states": 144, "terminal_states": 0,
                            "executions": 200}


def fingerprint(outcomes):
    return hashlib.sha256(repr(sorted(outcomes)).encode()).hexdigest()


class TestRegistry:
    def test_available_models(self):
        assert available_models() == ["relaxed", "tso"]
        assert DEFAULT_MODEL == "tso"

    def test_get_model_roundtrip(self):
        for name in available_models():
            model = get_model(name)
            assert model.name == name
            assert model.description
            assert model.axiom_names()

    def test_unknown_model_lists_known(self):
        with pytest.raises(ValueError, match="relaxed.*tso"):
            get_model("sc")

    def test_model_flags(self):
        tso = get_model("tso")
        relaxed = get_model("relaxed")
        assert tso.multi_copy_atomic
        assert not relaxed.multi_copy_atomic


class TestTSOGoldenSet:
    """Registry-TSO must reproduce the pre-refactor enumerations, as
    pinned by the fingerprints above."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_reference_matches_legacy(self, name):
        program = CORPUS[name].program
        assert fingerprint(enumerate_model_outcomes(
            program, model="tso")) == TSO_GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_reference_fingerprint_pinned(self, name):
        program = CORPUS[name].program
        assert fingerprint(sewell_outcomes(program)) == TSO_GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_tus_machine_matches_legacy(self, name):
        program = CORPUS[name].program
        assert fingerprint(enumerate_tus_outcomes(
            program, model="tso")) == TSO_GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_mechanisms_match_legacy_on_litmus(self, name):
        program = CORPUS[name].program
        for mechanism in MECHANISMS:
            assert fingerprint(enumerate_mechanism_outcomes(
                program, mechanism, model="tso")) == TSO_GOLDEN[name]

    def test_random_walks_reproduce_legacy_stream(self):
        program = CORPUS["SB"].program
        assert fingerprint(random_walk_outcomes(
            program, walks=25, seed=7, model="tso")) == SB_WALK_GOLDEN

    def test_baseline_machine_is_sewell_reference(self):
        # The tso backend's reference machine (non-coalescing TUS) must
        # agree with Sewell's independent enumeration on every corpus
        # program.
        model = get_model("tso")
        for entry in corpus():
            assert enumerate_machine(
                model.reference_machine(entry.program)) == \
                sewell_outcomes(entry.program)

    @pytest.mark.parametrize("model", ["tso", "relaxed"])
    def test_reference_honours_max_states(self, model):
        program = CORPUS["IRIW"].program
        with pytest.raises(ModelError,
                           match=f"too large for exhaustive {model} search"):
            enumerate_model_outcomes(program, model=model, max_states=5)


class TestRelaxedGoldenSet:
    """The relaxed backend's enumerations, pinned like TSO's."""

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_reference_pinned(self, name):
        program = CORPUS[name].program
        assert fingerprint(enumerate_model_outcomes(
            program, model="relaxed")) == RELAXED_GOLDEN[name][0]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_tus_machine_pinned(self, name):
        program = CORPUS[name].program
        assert fingerprint(enumerate_tus_outcomes(
            program, model="relaxed")) == RELAXED_GOLDEN[name][1]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_mechanisms_pinned(self, name):
        program = CORPUS[name].program
        for mechanism in MECHANISMS:
            assert fingerprint(enumerate_mechanism_outcomes(
                program, mechanism, model="relaxed")) == \
                RELAXED_GOLDEN[name][1], mechanism

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_random_walks_pinned(self, name):
        program = CORPUS[name].program
        assert fingerprint(random_walk_outcomes(
            program, walks=25, seed=7, model="relaxed")) == \
            RELAXED_GOLDEN[name][2]


class TestBench4Fingerprints:
    @pytest.fixture(scope="class")
    def committed(self):
        path = Path(__file__).resolve().parent.parent / "BENCH_4.json"
        data = json.loads(path.read_text())
        return {b["name"]: b.get("meta") or {} for b in data["benchmarks"]}

    def test_macro_points_present(self, committed):
        assert set(BENCH_4_MACRO) <= set(committed)

    def test_macro_fingerprints_untouched(self, committed):
        for name, digest in BENCH_4_MACRO.items():
            assert committed[name].get("fingerprint") == digest

    def test_modelcheck_slice_counts_untouched(self, committed):
        meta = committed["macro.modelcheck_slice"]
        for key, count in BENCH_4_MODELCHECK_SLICE.items():
            assert meta[key] == count


class TestCorpus:
    def test_corpus_names_unique_and_indexed(self):
        entries = corpus()
        assert len({e.name for e in entries}) == len(entries)
        assert corpus_by_name()["MP"].verdict("relaxed") == "allowed"

    def test_every_entry_has_verdicts_for_every_model(self):
        for entry in corpus():
            for name in available_models():
                assert entry.verdict(name) in ("allowed", "forbidden")

    def test_legacy_litmus_shapes_are_covered(self):
        # Sewell's x86-TSO set plus the paper's two coalescing shapes.
        legacy = {"SB", "SB+fences", "MP", "SF", "ABA-coalesce",
                  "interleave", "IRIW"}
        assert legacy <= set(corpus_by_name())


class TestCheckJobModel:
    def test_default_label_unchanged(self):
        assert CheckJob("sb", "tus").label == "sb/tus"

    def test_scaled_machine_label_unchanged(self):
        job = CheckJob("sb", "tus", machine={"topology": "mesh",
                                             "dir_shards": 4})
        assert job.label == "sb/tus"

    def test_report_summary_default_unchanged(self):
        from repro.modelcheck import CheckReport
        summary = CheckReport("sb", "tus", 2, 2, mode="exhaustive",
                              complete=True).summary()
        assert "model" not in summary and "tso" not in summary

    def test_check_runs_every_invariant(self):
        # No model filters the mechanism's list: store-order included.
        from repro.modelcheck.explorer import CheckRunner
        runner = CheckRunner("sb", "tus")
        runner((), False)
        assert "store-order" in runner.invariant_names
        assert runner.invariant_names == \
            runner.build()[0].cores[0].mechanism.modelcheck_invariants()
