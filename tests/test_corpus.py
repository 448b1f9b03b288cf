import importlib.util
import json
import os
import pathlib
import re
import sys

import pytest

import gen
from hhtkit.corpus import cases, data_path, load_text
from hhtkit.errors import SchemaMismatch
from hhtkit.instantiation import EXACT, Bounded, instantiate
from hhtkit.kernel import TheoryLevel, check_proof, conclusion_for_pipeline
from hhtkit.parser import parse_proof_file, parse_prop_file, parse_subst_file
from hhtkit.semantics import ht_valid
from hhtkit.syntax import prop_atoms

PIPELINE = [c for c in cases() if c.proof and c.expect_proof == "accepted"]
PROPS = [c for c in cases() if c.prop]
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("case", PIPELINE, ids=lambda c: c.name)
def test_corpus_proof_accepted_and_instance_behaves(case):
    proof = parse_proof_file(load_text(case.proof))
    check_proof(proof)
    conclusion = conclusion_for_pipeline(proof)
    subst = parse_subst_file(load_text(case.subst))
    assert subst.signature == proof.signature
    mode = EXACT if case.depth is None else Bounded(case.depth)
    instance = instantiate(subst, conclusion, mode)  # UnmappedAtom if an entry is missing
    counter = ht_valid(instance)
    if case.expect_instance == "valid":
        assert counter is None
        assert ht_valid(instance, evaluator="literal") is None
    else:
        assert counter is not None


def test_example7_must_run_bounded():
    case = next(c for c in cases() if c.name == "example7")
    assert case.depth is not None
    proof = parse_proof_file(load_text(case.proof))
    assert proof.level == TheoryLevel.HHT2_DCA


@pytest.mark.parametrize("case", PROPS, ids=lambda c: c.name)
def test_prop_corpus(case):
    f = parse_prop_file(load_text(case.prop))
    counter = ht_valid(f)
    if case.expect_instance == "valid":
        assert counter is None
    else:
        assert counter is not None


def test_classical_axiom_rejected_with_schema_mismatch():
    proof = parse_proof_file(load_text("classical.proof"))
    with pytest.raises(SchemaMismatch) as err:
        check_proof(proof)
    assert err.value.line == 1


def test_accepted_conclusions_valid_under_random_substitutions():
    # the pipeline guarantee: an accepted proof plus any exact substitution
    # never yields a refutable instance
    import random

    rng = random.Random(97)
    for case in PIPELINE:
        if case.depth is not None:
            continue
        proof = parse_proof_file(load_text(case.proof))
        conclusion = conclusion_for_pipeline(proof)
        for _ in range(5):
            subst = gen.rand_substitution(rng, proof.signature)
            assert ht_valid(instantiate(subst, conclusion)) is None, case.name


def test_valid_corpus_instances_are_classically_valid():
    for case in PIPELINE:
        if case.expect_instance != "valid":
            continue
        proof = parse_proof_file(load_text(case.proof))
        conclusion = conclusion_for_pipeline(proof)
        subst = parse_subst_file(load_text(case.subst))
        mode = EXACT if case.depth is None else Bounded(case.depth)
        instance = instantiate(subst, conclusion, mode)
        atoms = sorted(prop_atoms(instance))
        for bits in range(2 ** len(atoms)):
            total = frozenset(a for k, a in enumerate(atoms) if bits >> k & 1)
            assert gen.classical_eval(total, gen.tree(instance))


def load_tool(name: str, monkeypatch):
    """The module `tools/<name>.py`; changes it makes to `sys.path` are undone
    after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mkcorpus_regenerates_the_shipped_corpus(monkeypatch):
    # tools/mkcorpus.py round-trips every proof and substitution through the
    # parser; run it with its writes captured, so nothing lands on disk
    mkcorpus = load_tool("mkcorpus", monkeypatch)
    written = {}
    monkeypatch.setattr(mkcorpus, "write", written.__setitem__)
    mkcorpus.main()
    shipped = os.listdir(os.path.dirname(data_path("lem.prop")))
    assert sorted(written) == sorted(shipped)
    for name, text in written.items():
        assert text == load_text(name), name


def test_cli_snapshot_repeats(tmp_path, monkeypatch):
    cli_snapshot = load_tool("cli_snapshot", monkeypatch)
    out = tmp_path / "snapshot.json"
    assert cli_snapshot.main([str(ROOT), str(out), "--workloads", "corpus", "--seeds", "1"]) == 0
    text = out.read_text(encoding="utf-8")
    assert str(ROOT) not in text
    records = json.loads(text)
    assert records == cli_snapshot.snapshot(ROOT, ["corpus"], [1])
    assert len(records) == len(cases())
    for r in records.values():
        assert r["exit"] in (0, 1) and r["stderr"] == ""
        assert '"seconds": N' in r["stdout"] and not re.search(r'"seconds": \d', r["stdout"])
