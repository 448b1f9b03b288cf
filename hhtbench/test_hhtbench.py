"""Tests of the benchmark itself: report keys, seeded generators, known
answers, self-time arithmetic, percentiles and canonical indices.  Run with `python3 -m pytest hhtbench`."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from verdicts import canonical_index, mismatches  # noqa: E402

from hhtkit.corpus import cases, data_path, load_text  # noqa: E402
from hhtkit.instantiation import instantiate  # noqa: E402
from hhtkit.parser import parse_formula_file, parse_prop_file, parse_subst_file  # noqa: E402
from hhtkit.semantics import ht_valid  # noqa: E402
from hhtkit.syntax import prop_atoms, prop_to_text, rank  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "herbrand", "--seed", "3",
           "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_report_keys(trace, section):
    report = _run(trace)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in report["metrics"].items()} == declared


def test_workloads_declared():
    assert [w["name"] for w in SPEC["workloads"]] == ["corpus", "ht_atoms", "herbrand",
                                                       "universe"]


def _generate(seed):
    return {
        "corpus": workloads.corpus(seed, cases, data_path),
        "ht_atoms": workloads.ht_atoms(seed),
        "herbrand": workloads.herbrand(seed, data_path("excluded_middle.fof")),
        "universe": workloads.universe(seed),
    }


def test_generators_repeat_for_a_seed():
    first, again, other = _generate(5), _generate(5), _generate(6)
    for name in first:
        assert first[name] == again[name], name
        assert first[name] != other[name], name
    assert len(first["corpus"]) == 18


def test_self_times_on_a_span_tree():
    def span(start, end, parent):
        return spans.Span("s", "parser", start, end, parent, None)

    tree = [
        span(0.0, 10.0, None),  # root
        span(1.0, 3.0, 0),
        span(2.0, 5.0, 0),  # overlaps its sibling
        span(8.0, 9.0, 0),
        span(1.5, 2.0, 1),  # grandchild
    ]
    tree[0].layer = "cli"
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 3.0, 1.0, 0.5])
    totals = spans.layer_totals(tree)
    assert totals["cli.self_s"] == pytest.approx(5.0)
    assert totals["parser.self_s"] == pytest.approx(6.0)
    assert (totals["cli.calls"], totals["parser.calls"]) == (1, 4)
    assert totals["kernel.calls"] == 0

    # a second pass appended to the same list: parents stay absolute indices
    second = [spans.Span(s.name, s.layer, s.start + 20, s.end + 20,
                         None if s.parent is None else s.parent + len(tree), None)
              for s in tree]
    assert spans.layer_totals(tree + second, len(tree)) == totals


@pytest.mark.parametrize("name", ["lem.prop", "dne.prop"])
def test_canonical_index_of_first_countermodel(name):
    f = parse_prop_file(load_text(name))
    counter = ht_valid(f, evaluator="literal")
    states = [2 if a in counter.here else 1 if a in counter.there else 0
              for a in sorted(prop_atoms(f))]
    assert canonical_index(states) == 1  # p there-only: the second interpretation

    recorder = spans.Recorder()
    traced = recorder.wrap("semantics.ht_valid", "semantics", ht_valid,
                           spans._counters()("ht_valid"))
    traced(f)
    metrics = spans.work_metrics(spans.layer_totals(recorder.spans), recorder.counts)
    assert metrics["semantics.interpretations"] == 2
    assert metrics["semantics.examined_share"] == pytest.approx(2 / 3)


def test_canonical_index_digits():
    assert canonical_index([]) == 0
    assert canonical_index([2, 2, 1]) == 3 ** 3 - 2
    assert canonical_index([0, 1, 0, 0]) == 9


@pytest.mark.parametrize("shape", workloads.HT_SHAPES)
def test_ht_shapes_match_literal_semantics(shape):
    names = workloads.atom_names(random.Random(1), 4)
    text, expected = workloads.ht_shape(shape, names)
    counter = ht_valid(parse_prop_file(text), evaluator="literal")
    got = None if counter is None else {
        a: "both" if a in counter.here else "there-only" if a in counter.there else "absent"
        for a in names}
    assert got == expected


@pytest.mark.parametrize("make", [workloads.example6_case, workloads.subsum4_case])
@pytest.mark.parametrize("k", [1, 3])
def test_universe_oracle_matches_instantiate(make, k):
    case = make(random.Random(k), k)
    fof, sub = (case.files[n] for n in sorted(case.files))
    _, f = parse_formula_file(fof)
    instance = instantiate(parse_subst_file(sub), f)
    assert prop_to_text(instance) == case.json["instance"]
    assert len(prop_atoms(instance)) == case.json["instantiation.atoms"]
    assert rank(instance) == case.json["instantiation.rank"]


def test_verdict_percentiles_take_each_inputs_median_first():
    # one slow call of "b" must not move the median, which falls between
    # the inputs "b" and "c"
    samples = {"a": [0.001] * 3, "b": [0.010, 0.010, 0.090], "c": [0.020] * 3,
               "d": [0.030] * 3}
    p50, p90 = run.verdict_percentiles(samples)
    assert p50 == pytest.approx(15.0)
    assert p90 == pytest.approx(27.0)


def test_oracle_names_each_mismatch():
    case = workloads.Case("x", [], 1, json={"validity.verdict": "countermodel",
                                            "validity.countermodel": {"p": "there-only"}})
    good = json.dumps({"validity": {"verdict": "countermodel",
                                    "countermodel": {"p": "there-only"}}})
    assert mismatches(case, 1, good) == []
    bad = json.dumps({"validity": {"verdict": "countermodel", "countermodel": {"p": "both"}}})
    assert len(mismatches(case, 0, bad)) == 2
    assert mismatches(case, 1, "not json")[0].startswith("no JSON report")
