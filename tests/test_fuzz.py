"""Differential fuzzing harness: generator, checks, shrinker, corpus.

The corpus replay at the bottom is the regression net for every latent
bug the fuzzer has found: each ``tests/fuzz_corpus/*.json`` document is a
minimal program that diverged under a since-fixed bug, replayed through
the same checks on every test run.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile

import pytest

import repro.ir.passes as passes
from repro.__main__ import main
from repro.fuzz import build_program, generate_spec, run_checks, shrink
from repro.fuzz.harness import CHECK_GROUPS, check_cache, run_campaign
from repro.fuzz.reference import run_reference
from repro.fuzz.spec import OpSpec, ProgramSpec, SpecError
from repro.ir.ops import Opcode
from repro.sim.dataflow import DataflowSim

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")


def _buggy_cse_key(op):
    """The pre-fix CSE key: opcode+operands only, blind to type/attrs."""
    if op.is_side_effecting or op.opcode is Opcode.REG:
        return None
    if op.opcode is Opcode.CONST:
        return (op.opcode, op.result.type, repr(op.attrs.get("value")))
    return (op.opcode, tuple(id(v) for v in op.operands))


class TestGenerator:
    def test_deterministic_per_seed_and_index(self):
        assert generate_spec(2020, 9).to_dict() == generate_spec(2020, 9).to_dict()

    def test_different_indices_differ(self):
        dicts = [generate_spec(2020, i).to_dict() for i in range(8)]
        assert len({json.dumps(d, sort_keys=True) for d in dicts}) > 1

    def test_generated_programs_build_and_roundtrip(self):
        for index in range(25):
            spec = generate_spec(11, index)
            built = build_program(spec)
            assert built.design.name == spec.name
            again = ProgramSpec.from_json(spec.to_json())
            assert again.to_dict() == spec.to_dict()

    def test_stimuli_cover_every_read(self):
        # rate-matching invariant: the reference must drain without underflow
        for index in range(15):
            built = build_program(generate_spec(3, index))
            result = run_reference(built.design, built.stimuli, params=built.params)
            assert result.firings  # every loop fired its full trip count


class TestChecks:
    def test_clean_programs_produce_no_divergences(self):
        for index in range(15):
            spec = generate_spec(2020, index)
            assert run_checks(spec, checks=("oracle", "passes")) == []

    def test_oracle_matches_simulator_outputs(self):
        spec = generate_spec(2020, 0)
        built = build_program(spec)
        reference = run_reference(built.design, built.stimuli, params=built.params)
        sim = DataflowSim(
            build_program(spec).design, built.stimuli, params=built.params
        )
        assert sim.run().outputs == reference.outputs

    def test_broken_pass_is_caught(self, monkeypatch):
        monkeypatch.setattr(passes, "_cse_key", _buggy_cse_key)
        caught = []
        for index in range(120):
            divs = run_checks(generate_spec(7, index), checks=("passes",))
            caught.extend(d for d in divs if d.check == "passes:cse")
            if caught:
                break
        assert caught, "differential harness missed a miscompiling CSE"

    def test_unknown_check_rejected(self):
        with pytest.raises(Exception):
            run_checks(generate_spec(2020, 0), checks=("bogus",))


class TestShrinker:
    def failing_spec(self, monkeypatch):
        monkeypatch.setattr(passes, "_cse_key", _buggy_cse_key)
        for index in range(120):
            spec = generate_spec(7, index)
            if any(
                d.check == "passes:cse"
                for d in run_checks(spec, checks=("passes",))
            ):
                return spec
        pytest.fail("no failing program found for the shrinker to chew on")

    def test_shrinks_monotonically_and_still_fails(self, monkeypatch):
        spec = self.failing_spec(monkeypatch)

        def still_fails(candidate):
            return any(
                d.check == "passes:cse"
                for d in run_checks(candidate, checks=("passes",))
            )

        small = shrink(spec, still_fails)
        assert small is not None
        assert small.size() <= spec.size()
        assert still_fails(small)

    def test_non_reproducing_failure_returns_none(self):
        assert shrink(generate_spec(2020, 0), lambda _s: False) is None

    def test_invalid_candidates_are_skipped(self, monkeypatch):
        # a predicate that raises SpecError on anything but the original
        spec = generate_spec(2020, 1)
        original = spec.to_json()

        def picky(candidate):
            if candidate.to_json() != original:
                raise SpecError("mutant")
            return True

        assert shrink(spec, picky).to_json() == original


class TestCampaign:
    def test_clean_campaign(self, tmp_path):
        report = run_campaign(
            seed=2020, count=5, checks=CHECK_GROUPS, corpus_dir=str(tmp_path)
        )
        assert report.ok
        assert report.programs == 5
        document = report.to_dict()
        assert document["schema"] == "repro-fuzz-report/1"
        assert document["divergences"] == []
        assert list(tmp_path.iterdir()) == []  # nothing to reproduce

    def test_budget_cuts_generation_short(self):
        report = run_campaign(
            seed=2020, count=10_000, checks=("oracle",), budget_s=0.0
        )
        assert report.budget_exhausted
        assert report.programs < 10_000

    def test_temporary_stage_stores_are_removed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        report = run_campaign(seed=2020, count=2, checks=("cache",))
        assert report.ok and report.programs == 2
        assert check_cache(generate_spec(2020, 0)) == []
        assert list(tmp_path.glob("repro-fuzz-*")) == []

    def test_divergence_written_to_corpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(passes, "_cse_key", _buggy_cse_key)
        report = run_campaign(
            seed=7,
            count=25,
            checks=("passes",),
            corpus_dir=str(tmp_path),
        )
        assert not report.ok
        entries = list(tmp_path.glob("*.json"))
        assert entries
        document = json.loads(entries[0].read_text())
        assert document["schema"] == "repro-fuzz-corpus/1"
        ProgramSpec.from_dict(document["program"])  # must round-trip


class TestCli:
    def test_fuzz_exit_zero_when_clean(self, capsys):
        assert main(["fuzz", "--seed", "2020", "--count", "3",
                     "--checks", "oracle,passes"]) == 0
        assert "divergences=0" in capsys.readouterr().out

    def test_seed_accepted_before_subcommand(self, capsys):
        assert main(["--seed", "5", "fuzz", "--count", "2",
                     "--checks", "oracle", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5

    def test_unknown_check_is_usage_error(self):
        assert main(["fuzz", "--checks", "bogus"]) == 2


def _corpus_documents():
    paths = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
    assert paths, "fuzz corpus is empty"
    return paths


@pytest.mark.parametrize(
    "path", _corpus_documents(), ids=lambda p: os.path.basename(p)
)
def test_corpus_replay(path):
    """Every archived reproducer must stay clean under its checks."""
    with open(path) as handle:
        document = json.load(handle)
    assert document["schema"] == "repro-fuzz-corpus/1"
    spec = ProgramSpec.from_dict(document["program"])
    divergences = run_checks(spec, checks=tuple(document["checks"]))
    assert divergences == [], [d.summary() for d in divergences]


def test_corpus_entries_detect_their_bug(monkeypatch):
    """Sensitivity guard: the CSE reproducers must fail under the old key
    (proving the corpus actually exercises the fixed code path)."""
    monkeypatch.setattr(passes, "_cse_key", _buggy_cse_key)
    for name in ("cse_slice_lsb", "cse_zext_width"):
        with open(os.path.join(CORPUS_DIR, f"{name}.json")) as handle:
            document = json.load(handle)
        spec = ProgramSpec.from_dict(document["program"])
        divs = run_checks(spec, checks=tuple(document["checks"]))
        assert any(d.check == "passes:cse" for d in divs), name
