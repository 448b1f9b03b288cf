import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import hhtkit
from hhtkit import cli, semantics, syntax
from hhtkit.cli import run
from hhtkit.corpus import data_path
from hhtkit.syntax import prop_dag


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_pipeline_exact_certifies(capsys):
    code, out, _ = invoke(
        capsys, "pipeline", data_path("subsum4.proof"), data_path("subsum4.subst")
    )
    assert code == 0
    assert "certificate: VALID" in out


def test_pipeline_bounded_never_certifies(capsys):
    code, out, _ = invoke(
        capsys,
        "pipeline",
        data_path("example5_alt.proof"),
        data_path("example5_alt.subst"),
        "--depth", "2",
    )
    assert code == 1
    assert "non-validity-preserving" in out
    assert "HT-valid" in out  # instance itself checks out, yet no certificate


def test_pipeline_bounded_truncation_countermodel(capsys):
    code, out, _ = invoke(
        capsys,
        "pipeline",
        data_path("example7.proof"),
        data_path("example7.subst"),
        "--depth", "3",
    )
    assert code == 1
    assert "countermodel" in out
    assert "non-validity-preserving" in out


def test_pipeline_walks_its_instance_once(monkeypatch, capsys):
    # the instantiation stage's program is the one the model checker runs
    walks = []

    def traced(f):
        walks.append(f)
        return prop_dag(f)

    for module in (cli, semantics, syntax):
        monkeypatch.setattr(module, "prop_dag", traced)
    code, out, _ = invoke(capsys, "pipeline", data_path("example6.proof"),
                          data_path("example6.subst"))
    assert code == 0 and "certificate: VALID" in out
    assert len(walks) == 1


_PROOF_KEYS = ["verdict", "level", "lines", "conclusion", "parse_seconds", "check_seconds",
               "seconds"]


@pytest.mark.parametrize("argv, keys", [
    (["check-proof", data_path("example6.proof")], _PROOF_KEYS),
    (["pipeline", data_path("example5.proof"), data_path("example5.subst")], _PROOF_KEYS),
    (["check-proof", data_path("classical.proof")],
     ["verdict", "line", "kind", "reason", "justification", "parse_seconds", "check_seconds",
      "seconds"]),
])
def test_json_proof_stage_splits_parse_from_check(argv, keys, capsys):
    _, out, _ = invoke(capsys, *argv, "--json")
    stage = json.loads(out)["proof"]
    assert list(stage) == keys
    parse, check = stage["parse_seconds"], stage["check_seconds"]
    assert parse > 0 and check > 0
    assert abs(parse + check - stage["seconds"]) <= 2e-6  # each rounded to 1 us


def test_ht_valid_countermodel_rendering(capsys):
    code, out, _ = invoke(capsys, "ht-valid", data_path("lem.prop"))
    assert code == 1
    assert "p: there-only" in out


def test_countermodel_subcommand(capsys):
    code, out, _ = invoke(capsys, "countermodel", data_path("dne.prop"))
    assert code == 1
    assert out.strip().endswith("p: there-only")


def test_ht_valid_accepts(capsys):
    code, out, _ = invoke(capsys, "ht-valid", data_path("hosoi.prop"))
    assert code == 0
    assert "HT-valid" in out


def test_check_proof_rejects_classical(capsys):
    code, out, _ = invoke(capsys, "check-proof", data_path("classical.proof"))
    assert code == 1
    assert "SchemaMismatch" in out
    assert "line 1" in out


def test_empty_signature_rejected(tmp_path, capsys):
    bad = tmp_path / "nosig.fof"
    bad.write_text("pred P/1.\nforall x P(x)\n")
    code, _, err = invoke(capsys, "eliminate-restrictors", str(bad))
    assert code == 2
    assert "object constant" in err


def test_json_report_matches_text_verdict(capsys):
    code, out, _ = invoke(
        capsys, "pipeline", data_path("example5.proof"), data_path("example5.subst"),
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["proof"]["verdict"] == "accepted"
    assert doc["validity"]["verdict"] == "valid"
    assert doc["certifying"] is True
    assert doc["exit"] == 0


def test_json_countermodel(capsys):
    code, out, _ = invoke(capsys, "--json", "ht-valid", data_path("lem.prop"))
    assert code == 1
    doc = json.loads(out)
    assert doc["validity"]["countermodel"] == {"p": "there-only"}


def test_countermodel_lists_its_absent_atoms(tmp_path, capsys):
    # shown over every atom of the checked formula, absent ones included
    path = tmp_path / "lem_q.prop"
    path.write_text("(p | not p) & (q -> q)\n")
    assert invoke(capsys, "ht-valid", str(path)) == (
        1, "countermodel found:\np: there-only\nq: absent\n", "")
    code, out, _ = invoke(capsys, "--json", "ht-valid", str(path))
    validity = json.loads(out)["validity"]
    assert code == 1
    assert list(validity) == ["verdict", "countermodel", "seconds"]
    assert validity["countermodel"] == {"p": "there-only", "q": "absent"}
    code, out, _ = invoke(capsys, "--json", "pipeline", data_path("example7.proof"),
                          data_path("example7.subst"), "--depth", "3")
    assert code == 1
    assert json.loads(out)["validity"]["countermodel"] == {
        "f0": "there-only", "f1": "there-only", "f2": "there-only", "f3": "there-only",
        "f4": "absent"}


def test_herbrand_json_countermodel(tmp_path, capsys):
    # the one validity report: `ht-valid --json`'s countermodel object, over
    # the whole Herbrand base and keyed by each atom's text
    path = tmp_path / "lem.fof"
    path.write_text("const a, b.  pred P/1, Q/0.\nP(b) | not P(b)\n")
    code, out, _ = invoke(capsys, "--json", "herbrand-check", str(path))
    assert code == 1
    doc = json.loads(out)
    assert list(doc["validity"]) == ["verdict", "mode", "countermodel", "seconds"]
    assert doc["validity"]["countermodel"] == {
        "P(a)": "absent", "P(b)": "there-only", "Q": "absent"}
    code, out, _ = invoke(capsys, "--json", "herbrand-check", data_path("hosoi_ground.fof"))
    assert code == 0
    assert list(json.loads(out)["validity"]) == ["verdict", "mode", "seconds"]


def test_instantiate_reports_stats(capsys):
    code, out, _ = invoke(
        capsys, "instantiate", data_path("subsum4.fof"), data_path("subsum4.subst")
    )
    assert code == 0
    assert "atoms=4" in out


def test_herbrand_check(capsys):
    code, out, _ = invoke(capsys, "herbrand-check", data_path("hosoi_ground.fof"))
    assert code == 0
    code, out, _ = invoke(capsys, "herbrand-check", data_path("excluded_middle.fof"))
    assert code == 1
    assert "P(a): there-only" in out


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HHTKIT_BUDGET", "10")
    code, _, err = invoke(capsys, "herbrand-check", data_path("hosoi_ground.fof"))
    assert code == 2
    assert "budget" in err


def test_unknown_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "ht-valid", "no-such-file.prop")
    assert code == 2
    assert err


def test_instantiate_reports_missing_entries(tmp_path, capsys):
    subst = tmp_path / "partial.subst"
    subst.write_text("const c1, c2, c3.  pred P/1, Q/0.\nP(c1) := f1;\n")
    code, out, _ = invoke(
        capsys, "instantiate", data_path("subsum4.fof"), str(subst)
    )
    assert code == 2
    assert "missing entries" in out
    assert "Q" in out and "P(c2)" in out


_GUARDED_FOF = ("const a, b, c.  pred P/1.  restrictor R/1.\n"
                "forall (x:R, y:R) (P(x) -> P(y))\n")
# R(c) has no entry, so the tuples with c are skipped and P(c) is not missing
_GUARDED_SUBST = ("const a, b, c.  pred P/1.  restrictor R/1.\n"
                  "R(a) := top;  R(b) := top;  P(b) := q;\n")


@pytest.mark.parametrize("json_flag, expected", [
    ([], "substitution is missing entries for: P(a), R(c)\n"),
    (["--json"], '{\n  "command": "instantiate",\n  "missing": [\n    "P(a)",\n'
                 '    "R(c)"\n  ],\n  "exit": 2\n}\n'),
], ids=["text", "json"])
def test_instantiate_missing_guard_and_body(json_flag, expected, tmp_path, capsys):
    (tmp_path / "guarded.fof").write_text(_GUARDED_FOF)
    (tmp_path / "guarded.subst").write_text(_GUARDED_SUBST)
    got = invoke(capsys, "instantiate", str(tmp_path / "guarded.fof"),
                 str(tmp_path / "guarded.subst"), *json_flag)
    assert got == (2, expected, "")


def test_instantiate_deep_image(tmp_path, capsys):
    # the instance nests 400 sets deep through the image of P(c1)
    deep = "And{" * 400 + "p" + "}" * 400
    subst = tmp_path / "deep.subst"
    subst.write_text("const c1, c2, c3.  pred P/1, Q/0.\n"
                     f"P(c1) := {deep};  P(c2) := f2;  P(c3) := f3;  Q := g;\n")
    instance = ("And{And{Or{f1; f2; f3}; g} -> Or{And{f1; g}; And{f2; g}; And{f3; g}}; "
                "Or{And{f1; g}; And{f2; g}; And{f3; g}} -> And{Or{f1; f2; f3}; g}}")
    expected = (f"mode: exact\ninstance: {instance.replace('f1', deep)}\n"
                "atoms=4 rank=404 nodes=413\n")
    got = invoke(capsys, "instantiate", data_path("subsum4.fof"), str(subst))
    assert got == (0, expected, "")


def test_directory_argument_is_usage_error(tmp_path, capsys):
    code, out, err = invoke(capsys, "ht-valid", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_deep_nesting_is_usage_error(json_flag, tmp_path, capsys):
    path = tmp_path / "deep.prop"
    path.write_text("not " * 3000 + "p\n")
    code, out, err = invoke(capsys, *json_flag, "ht-valid", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, name, text, exit_code, expected", [
    ("ht-valid", "parens.prop", "(" * 300 + "p | not p" + ")" * 300 + "\n", 1,
     "countermodel found:\np: there-only\n"),
    ("ht-valid", "sets.prop", "And{" * 300 + "p" + "}" * 300 + "\n", 1,
     "countermodel found:\np: absent\n"),
    ("eliminate-restrictors", "parens.fof",
     "const a. pred P/1.\n" + "(" * 300 + "P(a) | not P(a)" + ")" * 300 + "\n", 0,
     "P(a) | not P(a)\n"),
    ("ht-valid", "negations.prop", "not " * 900 + "p\n", 1,
     "countermodel found:\np: absent\n"),
], ids=["parens", "sets", "fof-parens", "negations"])
def test_deep_nesting_gets_a_verdict(command, name, text, exit_code, expected,
                                     tmp_path, capsys):
    path = tmp_path / name
    path.write_text(text)
    assert invoke(capsys, command, str(path)) == (exit_code, expected, "")


@pytest.mark.parametrize("shape", ["and", "forall"])
def test_deep_forall_elim_line_is_accepted(shape, tmp_path, capsys):
    # the kernel compares the line with its schema instance by identity, so
    # a flat 490-conjunct `F`, or 490 nested `forall y`, ends in no RecursionError
    body = "(" + " & ".join(["P(x)"] * 490) + ")" if shape == "and" else "forall y " * 490 + "P(x)"
    line = (f"1: forall x {body} -> {body.replace('P(x)', 'P(a)')} by axiom forall-elim "
            f"with x := x, F := {body}, t := a;")
    path = tmp_path / f"{shape}.proof"
    path.write_text(f"const a.  pred P/1.\nlevel HHT;\n{line}\n")
    code, out, err = invoke(capsys, "check-proof", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("proof: accepted (level HHT, 1 lines)\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_function_variable_outside_truncated_universe(json_flag, tmp_path, capsys):
    # at depth 1 the universe is {a, f(a)}, so g(f(x)) needs g on f(f(a))
    path = tmp_path / "outside.fof"
    path.write_text("const a. fn f/1. pred P/1.\n"
                    "forall g^1 forall x (P(g(f(x))) | not P(g(f(x))))\n")
    code, out, err = invoke(capsys, *json_flag, "herbrand-check", str(path),
                            "--depth", "1", "--budget", "100000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "(f(f(a)))" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_internal_fault_is_one_line(json_flag, monkeypatch, capsys):
    def fault(args, report):
        raise AttributeError("no attribute 'x'")

    monkeypatch.setattr(cli, "_cmd_ht_valid", fault)
    code, out, err = invoke(capsys, *json_flag, "ht-valid", data_path("lem.prop"))
    assert (code, out, err) == (2, "", "internal error: AttributeError: no attribute 'x'\n")


def test_shared_parser_matches_fresh_parser(capsys, monkeypatch):
    # options given in one call must not leak into the next
    argvs = [
        ["herbrand-check", data_path("hosoi_ground.fof"), "--budget", "10"],
        ["herbrand-check", data_path("hosoi_ground.fof")],
        ["--json", "ht-valid", data_path("lem.prop")],
        ["ht-valid", data_path("lem.prop")],
        ["pipeline", data_path("example7.proof"), data_path("example7.subst"),
         "--depth", "3", "--json"],
        ["ht-valid"],
        ["pipeline", data_path("subsum4.proof"), data_path("subsum4.subst")],
        ["no-such-command", "x"],
        ["countermodel", data_path("dne.prop")],
    ]

    def results():
        got = []
        for argv in argvs:
            code, out, err = invoke(capsys, *argv)
            got.append((code, re.sub(r'\[\d+\.\d ms\]|seconds": [^,\n]+', "N", out), err))
        return got

    shared = results()
    monkeypatch.setattr(cli, "_arg_parser", cli.build_arg_parser)
    assert shared == results()
    assert [code for code, _, _ in shared] == [2, 0, 1, 1, 1, 2, 0, 2, 1]


# exact text reports, one per shape; stage timings are masked

_PINNED = {
    "pipeline-accepted": (
        ["pipeline", "subsum4.proof", "subsum4.subst"], 0,
        "proof: accepted (level HHT, 210 lines) [N ms]\n"
        "conclusion: exists x P(x) & Q <-> exists x (P(x) & Q)\n"
        "instantiation: exact; atoms=4 rank=4 nodes=13 [N ms]\n"
        "validity: HT-valid (exact) [N ms]\n"
        "certificate: VALID (accepted proof + exact instance)\n",
    ),
    "check-proof-rejected": (
        ["check-proof", "classical.proof"], 1,
        "proof: REJECTED at line 1: SchemaMismatch: schema efq with this "
        "binding yields bot -> P(c1)\n"
        "claimed justification: axiom efq with F := P(c1)\n",
    ),
    "pipeline-rejected": (
        ["pipeline", "classical.proof", "example1a.subst"], 1,
        "proof: REJECTED at line 1: SchemaMismatch: schema efq with this "
        "binding yields bot -> P(c1)\n"
        "claimed justification: axiom efq with F := P(c1)\n",
    ),
    "check-proof-accepted": (
        ["check-proof", "subsum4.proof"], 0,
        "proof: accepted (level HHT, 210 lines)\n"
        "conclusion: exists x P(x) & Q <-> exists x (P(x) & Q)\n",
    ),
    "pipeline-bounded-valid": (
        ["pipeline", "example5_alt.proof", "example5_alt.subst", "--depth", "2"], 1,
        "proof: accepted (level HHT, 138 lines) [N ms]\n"
        "conclusion: forall x P(x) -> forall x P(f(x))\n"
        "instantiation: bounded depth 2 (non-validity-preserving); "
        "atoms=2 rank=2 nodes=6 [N ms]\n"
        "validity: HT-valid (bounded depth 2 (non-validity-preserving)) [N ms]\n"
        "certificate: NOT CERTIFYING (bounded mode: non-validity-preserving)\n",
    ),
    "pipeline-bounded-countermodel": (
        ["pipeline", "example7.proof", "example7.subst", "--depth", "3"], 1,
        "proof: accepted (level HHT2+DCA, 165 lines) [N ms]\n"
        "conclusion: P(a) & forall x (P(x) -> P(s(x))) <-> forall x P(x)\n"
        "instantiation: bounded depth 3 (non-validity-preserving); "
        "atoms=5 rank=5 nodes=15 [N ms]\n"
        "validity: countermodel found (bounded depth 3 (non-validity-preserving)) [N ms]\n"
        "f0: there-only\nf1: there-only\nf2: there-only\nf3: there-only\nf4: absent\n"
        "certificate: NOT CERTIFYING (bounded mode: non-validity-preserving)\n",
    ),
    "ht-valid-countermodel": (
        ["ht-valid", "lem.prop"], 1, "countermodel found:\np: there-only\n",
    ),
    "ht-valid-valid": (["ht-valid", "hosoi.prop"], 0, "HT-valid\n"),
    "countermodel-found": (["countermodel", "dne.prop"], 1, "p: there-only\n"),
    "countermodel-none": (
        ["countermodel", "hosoi.prop"], 0, "no countermodel: formula is HT-valid\n",
    ),
    "instantiate-missing": (
        ["instantiate", "subsum4.fof", "{tmp}/partial.subst"], 2,
        "substitution is missing entries for: P(c2), P(c3), Q\n",
    ),
}


@pytest.mark.parametrize("shape", sorted(_PINNED))
def test_text_report_is_pinned(shape, tmp_path, capsys):
    argv, exit_code, expected = _PINNED[shape]
    (tmp_path / "partial.subst").write_text(
        "const c1, c2, c3.  pred P/1, Q/0.\nP(c1) := f1;\n"
    )
    argv = [
        a.format(tmp=tmp_path) if "{tmp}" in a
        else data_path(a) if "." in a else a
        for a in argv
    ]
    code, out, err = invoke(capsys, *argv)
    assert (code, re.sub(r"\[\d+\.\d ms\]", "[N ms]", out), err) == (exit_code, expected, "")


# One step budget gates both checkers (see `semantics._engine_steps`).

_C13 = ("const a, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12.  pred P/1.\n"
        "forall x (P(x) -> P(x)) & exists x (P(x) | not P(x) | P(a))\n")


def _example6_instance(k: int) -> str:
    """The exact instance of example6's conclusion with k constants in each
    restrictor: 2k atoms, all of them referenced on both sides."""
    ps = [f"p{i}" for i in range(k)]
    qs = [f"q{i}" for i in range(k)]
    left = f"And{{Or{{{'; '.join(ps)}}}; Or{{{'; '.join(qs)}}}}}"
    right = "Or{" + "; ".join(f"And{{{p}; {q}}}" for p in ps for q in qs) + "}"
    return f"And{{{left} -> {right}; {right} -> {left}}}\n"


def test_herbrand_13_constants_gets_a_verdict(tmp_path, capsys):
    # refused by the old 3^|base| x estimate_cost gate; grounding makes it cheap
    path = tmp_path / "c13.fof"
    path.write_text(_C13)
    code, out, err = invoke(capsys, "herbrand-check", str(path))
    assert (code, err) == (1, "")
    assert out.splitlines()[:4] == [
        "countermodel found (exact):",
        "P(a): there-only",
        "P(c1): there-only",
        "P(c10): there-only",
    ]
    assert len(out.splitlines()) == 14


def test_herbrand_deep_universe_refused_before_building(tmp_path, capsys):
    # 458,330 terms at depth 5, 17,991,276 nodes together: building them
    # and the Herbrand base ran for minutes before any check
    path = tmp_path / "f2.fof"
    path.write_text("const a.  fn f/2.  pred P/1.\nforall x P(x)\n")
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "herbrand-check", "--depth", "5", str(path))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == "error: enumeration needs 17991276 steps, budget is 5000000\n"


def test_herbrand_second_order_refused_before_grounding(tmp_path, capsys):
    path = tmp_path / "f2.fof"
    path.write_text("const a, b, c, d.  pred Q/0.\nforall f^2 (Q | not Q)\n")
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "herbrand-check", str(path))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    # 4^16 function names, each charged its 7 nodes and its 16 table entries
    assert err == "error: enumeration needs 98784247809 steps, budget is 5000000\n"


_SECOND_ORDER_REFUSED = [
    # 3^12 predicate names x (5 nodes + 12 table entries) + 1; ran 12.3 s
    # when the tables were not charged
    (12, "forall p/1 (p(c1) -> p(c1))", 9034498),
    # 7^7 function names x (5 nodes + 7 table entries) + 1; ran 16.5 s
    (7, "forall f^1 (Q(f(c1)) -> Q(f(c1)))", 9882517),
]


@pytest.mark.parametrize("k, formula, steps", _SECOND_ORDER_REFUSED)
def test_herbrand_charges_second_order_tables(k, formula, steps, tmp_path, capsys):
    path = tmp_path / "so.fof"
    consts = ", ".join(f"c{i}" for i in range(1, k + 1))
    path.write_text(f"const {consts}.  pred Q/1.\n{formula}\n")
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "herbrand-check", str(path))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == f"error: enumeration needs {steps} steps, budget is 5000000\n"


def test_herbrand_small_predicate_quantifier_answered(tmp_path, capsys):
    path = tmp_path / "p2.fof"
    path.write_text("const c1, c2.  pred Q/1.\nforall p/1 (p(c1) -> p(c1))\n")
    assert invoke(capsys, "herbrand-check", str(path)) == (
        0, "valid over all interpretations (exact)\n", "")


def test_herbrand_function_variable_outside_universe_message(tmp_path, capsys):
    # depth 1: the universe is {a, s(a)}, and g is applied to s(s(a))
    path = tmp_path / "outside.fof"
    path.write_text("const a. fn s/1. pred P/1.\nforall g^1 forall x P(g(s(x)))\n")
    assert invoke(capsys, "herbrand-check", "--depth", "1", str(path)) == (
        2, "", "error: a function variable is applied to (s(s(a))), "
        "which lies outside the depth-truncated universe\n")


def test_ht_valid_refuses_large_instance_before_evaluating(tmp_path, capsys):
    path = tmp_path / "example6_k10.prop"
    path.write_text(_example6_instance(10))
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "ht-valid", str(path))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    # the parse shares each repeated `And{..}`/`Or{..}` group, so the program
    # is the one `pipeline` builds for the same instance and costs what it does
    assert err == "error: enumeration needs 19368072 steps, budget is 5000000\n"


def test_budget_env_counts_steps_in_both_checkers(tmp_path, capsys, monkeypatch):
    # the same instance both ways: the engine runs the same 4 child references,
    # and herbrand-check first charges the 9 nodes estimate_cost lets grounding
    # visit, checked alone before grounding and with the engine's 4 after it
    prop, fof = tmp_path / "f.prop", tmp_path / "f.fof"
    prop.write_text("p -> p | q\n")
    fof.write_text("const a, b.  pred P/1.\nP(a) -> P(a) | P(b)\n")

    def both(budget):
        monkeypatch.setenv("HHTKIT_BUDGET", str(budget))
        return [invoke(capsys, "ht-valid", str(prop))[::2],
                invoke(capsys, "herbrand-check", str(fof))[::2]]

    refused = "error: enumeration needs {} steps, budget is {}\n"
    assert both(3) == [(2, refused.format(4, 3)), (2, refused.format(9, 3))]
    assert both(12) == [(0, ""), (2, refused.format(13, 12))]
    assert both(13) == [(0, ""), (0, "")]


@pytest.mark.parametrize("value", ["0", "-3", "ten"])
def test_budget_must_be_positive(value, capsys, monkeypatch):
    fof = data_path("hosoi_ground.fof")
    code, out, err = invoke(capsys, "herbrand-check", fof, "--budget", value)
    assert (code, out, err) == (
        2, "", f"error: --budget must be a positive integer, got {value!r}\n")
    monkeypatch.setenv("HHTKIT_BUDGET", value)
    for argv in (["herbrand-check", fof], ["ht-valid", data_path("lem.prop")]):
        assert invoke(capsys, *argv) == (
            2, "", f"error: HHTKIT_BUDGET must be a positive integer, got {value!r}\n")


def _nested_iff_files(tmp_path, n):
    fof, subst = tmp_path / f"iff{n}.fof", tmp_path / "iff.subst"
    fof.write_text(f"const a.  pred P/0.\n{gen.nested_iff(n)}\n")
    subst.write_text("const a.  pred P/0.\nP := p;\n")
    return str(fof), str(subst)


def test_instantiate_nested_iff_is_linear(tmp_path, capsys):
    # 655,358 nodes as a tree; took 14 s when the walk followed the tree
    fof, subst = _nested_iff_files(tmp_path, 18)
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "instantiate", fof, subst, "--json")
    assert time.perf_counter() - t0 < 5
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert {k: report["instantiation"][k] for k in ("atoms", "rank", "nodes")} == {
        "atoms": 1, "rank": 36, "nodes": 54}
    assert report["instance"].count("p") == 2 ** 19 - 2


def test_instantiate_refuses_oversized_text(tmp_path, capsys):
    # the instance is 90 nodes; its text would hold 9 x 2^29 - 5 of them
    t0 = time.perf_counter()
    for flag in ([], ["--json"]):
        code, out, err = invoke(capsys, "instantiate", *_nested_iff_files(tmp_path, 30), *flag)
        assert (code, out) == (2, "")
        assert err == "error: printing the instance needs 4831838203 steps, budget is 5000000\n"
    assert time.perf_counter() - t0 < 5


def test_instantiate_text_gate_counts_tree_nodes(tmp_path, capsys, monkeypatch):
    # n = 2: And{And{p -> p} -> p; p -> And{p -> p}} has 13 nodes as a tree
    files = _nested_iff_files(tmp_path, 2)
    monkeypatch.setenv("HHTKIT_BUDGET", "12")
    assert invoke(capsys, "instantiate", *files) == (
        2, "", "error: printing the instance needs 13 steps, budget is 12\n")
    monkeypatch.setenv("HHTKIT_BUDGET", "13")
    assert invoke(capsys, "instantiate", *files)[0] == 0
    # subsum4's instance is 35 nodes as a tree and 20 engine steps: the
    # pipeline prints no instance, so it is not gated on the text
    monkeypatch.setenv("HHTKIT_BUDGET", "20")
    subsum4 = data_path("subsum4.fof"), data_path("subsum4.subst")
    assert invoke(capsys, "instantiate", *subsum4) == (
        2, "", "error: printing the instance needs 35 steps, budget is 20\n")
    code, out, _ = invoke(capsys, "pipeline", data_path("subsum4.proof"), subsum4[1])
    assert code == 0 and "certificate: VALID" in out


def test_herbrand_nested_iff_refused_at_once(tmp_path, capsys):
    # the tree's estimate, (10 x 4^30 - 7) / 3, computed once per shared node;
    # computing it over the tree took more than 60 s
    fof, _ = _nested_iff_files(tmp_path, 30)
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "herbrand-check", fof)
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (2, "")
    assert err == "error: enumeration needs 3843071682022823251 steps, budget is 5000000\n"


# Each of these ran for 17 s to minutes computing a budget count or building
# a universe, or printed Python's 4,300-digit conversion error: the counts
# now saturate at `errors.STEP_CAP`, and `instantiate`/`pipeline --depth`
# count the universe first.  A subprocess with a timeout keeps a relapse
# from hanging the suite.
_AT_CAP = "error: enumeration needs at least 10^4300 steps, budget is 5000000\n"
_F2_UNIVERSE = "error: enumeration needs 17991276 steps, budget is 5000000\n"
_F2 = "const a.  fn f/2.  pred P/1.\n"


def _p3_over(n: int) -> str:
    consts = ", ".join(f"c{i}" for i in range(n))
    return f"const {consts}.  pred Q/0.\nforall p/3 (p(c1,c1,c1) -> p(c1,c1,c1))\n"


_HUGE_COUNTS = [
    (["herbrand-check", "{p3_1000}"], _AT_CAP),
    (["herbrand-check", "{p3_300}"], _AT_CAP),
    (["herbrand-check", "--depth", "25", "{f2_fof}"], _AT_CAP),
    (["herbrand-check", "--depth", "40", "{f2_fof}"], _AT_CAP),
    (["ht-valid", "{or10000}"], _AT_CAP),
    (["instantiate", "--depth", "5", "{f2_fof}", "{f2_subst}"], _F2_UNIVERSE),
    (["pipeline", "--depth", "5", "{f2_proof}", "{f2_subst}"], _F2_UNIVERSE),
]


@pytest.mark.parametrize("argv, err", _HUGE_COUNTS, ids=[
    "p3-1000", "p3-300", "depth25", "depth40", "or10000", "instantiate", "pipeline"])
def test_huge_counts_are_refused_at_once(argv, err, tmp_path):
    files = {
        "p3_1000": _p3_over(1000),
        "p3_300": _p3_over(300),
        "f2_fof": _F2 + "forall x P(x)\n",
        "f2_subst": _F2 + "default P := p;\n",
        "f2_proof": _F2 + "level HHT;\n"
                          "1: P(a) -> P(a) -> P(a) by axiom k with F := P(a), G := P(a);\n",
        "or10000": "Or{" + "; ".join(f"a{i}" for i in range(10_000)) + "}\n",
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(hhtkit.__file__).parents[1])}
    env.pop("HHTKIT_BUDGET", None)
    got = subprocess.run([sys.executable, "-m", "hhtkit.cli",
                          *(a.format(**paths) for a in argv)],
                         capture_output=True, text=True, timeout=5, env=env)
    assert (got.returncode, got.stdout, got.stderr) == (2, "", err)


@pytest.mark.parametrize("depth, steps", [(10**6, 500001500001), (10**7, 10000002)])
def test_linear_universe_is_counted_at_once(depth, steps, tmp_path, capsys, monkeypatch):
    # one unary function: c (d + 1) terms of c (d + 2) (d + 1) / 2 nodes,
    # counted in closed form; one loop pass per level took 4.4 s at 10^6
    monkeypatch.delenv("HHTKIT_BUDGET", raising=False)
    fof = tmp_path / "s.fof"
    fof.write_text("const a.  fn s/1.  pred P/1.\nforall x P(x)\n")
    t0 = time.perf_counter()
    code, out, err = invoke(capsys, "herbrand-check", "--depth", str(depth), str(fof))
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err == f"error: enumeration needs {steps} steps, budget is 5000000\n"
