"""Property: whatever text the CLI reads, it ends with a verdict (exit 0/1)
or with exit 2 and one error line, never a traceback or an unexplained exit;
with `--json` an exit 1 report carries a verdict field.  And `ht-valid`'s
verdict on a random formula of at most five atoms, first countermodel
included, is that of the literal satisfaction relation.

Inputs are random text and single-token mutations of the small corpus files,
run in-process under a small step budget so that no input runs long.
"""

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hhtkit.cli import run  # noqa: E402
from hhtkit.corpus import data_path  # noqa: E402
from hhtkit.semantics import STATE_NAMES, ht_valid  # noqa: E402
from hhtkit.syntax import prop_atoms, prop_to_text  # noqa: E402

import gen  # noqa: E402

_EXAMPLE4_SUBST = ("const c1, c2, c3.  pred P/1.\n"
                   "P(c1) := f1;\nP(c2) := f2;\nP(c3) := f3;\n")


def _read(name: str) -> str:
    with open(data_path(name), encoding="utf-8") as fh:
        return fh.read()


def _seeds(*names: str) -> list[tuple[str, str]]:
    return [(name.rsplit(".", 1)[1], _read(name)) for name in names]


# command -> the argument lists to start from, as (file suffix, text) pairs
_ARGS = {
    "ht-valid": [[seed] for seed in _seeds(
        "lem.prop", "dne.prop", "hosoi.prop", "sqht_inst.prop", "bad_direct.prop")],
    "check-proof": [[seed] for seed in _seeds("classical.proof", "example4.proof")],
    "eliminate-restrictors": [[seed] for seed in _seeds("subsum4.fof")],
    "herbrand-check": [[seed] for seed in _seeds("excluded_middle.fof", "hosoi_ground.fof")],
    "instantiate": [_seeds("subsum4.fof", "subsum4.subst")],
    "pipeline": [_seeds("example4.proof") + [("subst", _EXAMPLE4_SUBST)]],
}
_TOKEN = re.compile(r"\w+|\s+|:=|->|<->|!=|\S")
_REPLACEMENTS = ["(", ")", "{", "}", ";", ",", ".", ":", ":=", "->", "<->", "|", "&",
                 "not", "bot", "top", "forall", "exists", "And", "Or", "x", "P",
                 "P(x)", "c1", "f^1", "p/2", "0", "99", "level", "by", "axiom", "gen",
                 "\n", " ", ""]


@st.composite
def _cases(draw):
    """A command, its (suffix, text) arguments, one of them random text, a
    corpus file with one token replaced or a corpus file as shipped, and
    whether to ask for `--json`."""
    command = draw(st.sampled_from(sorted(_ARGS)))
    files = list(draw(st.sampled_from(_ARGS[command])))
    j = draw(st.integers(0, len(files) - 1))
    suffix, text = files[j]
    how = draw(st.sampled_from(("random", "mutated", "as shipped")))
    if how == "random":
        text = draw(st.text(st.characters(codec="utf-8"), max_size=80))
    elif how == "mutated":
        tokens = _TOKEN.findall(text)
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_REPLACEMENTS))
        text = "".join(tokens)
    files[j] = (suffix, text)
    return command, files, draw(st.booleans())


@pytest.fixture(autouse=True, scope="module")
def _small_budget():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HHTKIT_BUDGET", str(10**4))
        yield


def _run(command: str, files: list[tuple[str, str]], flags: list[str]) -> tuple[int, str, str]:
    """`command` on the (suffix, text) files, written to a temporary directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        argv = [command, *flags]
        for j, (suffix, text) in enumerate(files):
            argv.append(os.path.join(workdir, f"input{j}.{suffix}"))
            with open(argv[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_every_input_ends_in_a_verdict_or_one_error_line(case):
    command, files, as_json = case
    code, out, err = _run(command, files, ["--json"] if as_json else [])
    event(f"{command} exit {code}{' --json' if as_json else ''}")
    assert code in (0, 1, 2)
    if code != 2:
        assert err == ""
    elif err:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        # the one exit 2 with a report: a substitution without every entry
        assert command in ("instantiate", "pipeline")
        assert "substitution is missing entries for: " in out
    if code == 1 and as_json:
        assert _carries_verdict(out), out


def _carries_verdict(report: str) -> bool:
    """Some stage of a `--json` report has a "verdict" field."""
    return any(isinstance(s, dict) and "verdict" in s for s in json.loads(report).values())


@pytest.mark.parametrize("command", sorted(_ARGS))
def test_json_exit_1_carries_a_verdict_on_shipped_inputs(command):
    codes = []
    for files in _ARGS[command]:
        code, out, _ = _run(command, files, ["--json"])
        codes.append(code)
        if code == 1:
            assert _carries_verdict(out), out
    assert set(codes) <= {0, 1}


_ATOMS = ("a", "b", "c", "d", "e")
_PROPS = st.recursive(
    st.sampled_from([gen.atom(a) for a in _ATOMS] + [gen.TOP, gen.BOT]),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3).map(gen.conj),
        st.lists(kids, max_size=3).map(gen.disj),
        st.tuples(kids, kids).map(lambda lr: gen.imp(*lr)),
    ),
    max_leaves=12,
).map(gen.program)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_PROPS)
def test_ht_valid_agrees_with_literal_semantics(f):
    code, out, err = _run("ht-valid", [("prop", prop_to_text(f) + "\n")], ["--json"])
    counter = ht_valid(f, evaluator="literal")
    event("countermodel" if counter else "valid")
    assert err == ""
    validity = json.loads(out)["validity"]
    if counter is None:
        assert (code, validity["verdict"]) == (0, "valid")
    else:
        assert (code, validity["verdict"]) == (1, "countermodel")
        assert validity["countermodel"] == {
            a: STATE_NAMES[counter.atom_state(a)] for a in sorted(prop_atoms(f))}
