"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from contextlib import contextmanager

import pytest

import gen
from hhtkit.cli import run as cli_run
from hhtkit.corpus import cases, data_path, load_text
from hhtkit.errors import SchemaMismatch, SignatureError
from hhtkit.herbrand import hht_valid_bruteforce
from hhtkit.instantiation import (
    EXACT,
    Bounded,
    Substitution,
    herbrand_base,
    instantiate,
    universe,
)
from hhtkit.kernel import (
    TheoryLevel,
    build_axiom_instance,
    check_proof,
    conclusion_for_pipeline,
    list_schemas,
)
from hhtkit.parser import (
    parse_formula_file,
    parse_formula_text,
    parse_proof_file,
    parse_prop_file,
    parse_subst_file,
)
from hhtkit.semantics import (
    HTInterpretation,
    World,
    ht_valid,
    render_countermodel,
    satisfies,
)
from hhtkit.syntax import (
    BOT,
    TOP,
    FnApp,
    FuncVar,
    GenVar,
    PAtom,
    PredVar,
    Quant,
    Signature,
    Var,
    const,
    eliminate_restrictors,
    formula_to_text,
    prop_atoms,
)


@contextmanager
def criterion(cid: str, desc: str):
    try:
        yield
    except BaseException:
        print(f"{cid} FAIL: {desc}")
        raise
    print(f"{cid} PASS: {desc}")


# ---------------------------------------------------------------------------
# A1: corpus soundness

def _family_signature(template: Signature, n_constants: int) -> Signature:
    consts = {f"c{i}": 0 for i in range(1, n_constants + 1)}
    preds = dict(template.predicates)
    return Signature.make(consts, preds, template.restrictors)


def _family_subst(sig: Signature, carve: dict[str, set[str]]) -> Substitution:
    entries = {}
    for atom in herbrand_base(sig, universe(sig, EXACT)):
        if sig.is_restrictor(atom.pred):
            entries[atom] = TOP if atom.args[0].fn in carve[atom.pred] else BOT
        else:
            suffix = "_".join(t.fn for t in atom.args)
            entries[atom] = PAtom(f"{atom.pred.lower()}{'_' + suffix if suffix else ''}")
    return gen.make_subst(sig, entries)


def test_a1_corpus_soundness():
    with criterion("A1", "shipped proofs accepted; exact instances valid at sizes 1..4"):
        started = time.monotonic()
        exact_cases = [
            c for c in cases()
            if c.proof and c.expect_proof == "accepted" and c.depth is None
        ]
        bounded_cases = [
            c for c in cases() if c.proof and c.expect_proof == "accepted" and c.depth
        ]
        assert {c.name for c in exact_cases} >= {
            "example1a", "example1b", "subsum4", "example2", "example3",
            "example4", "example5", "example6", "bad_rewritten",
        }
        conclusions: dict[str, tuple] = {}
        for case in exact_cases + bounded_cases:
            proof = parse_proof_file(load_text(case.proof))
            check_proof(proof)
            conclusions[case.name] = (proof.signature, conclusion_for_pipeline(proof))

        for case in exact_cases:
            template, conclusion = conclusions[case.name]
            text = formula_to_text(conclusion)
            restrictors = sorted(template.restrictors)
            if case.name == "example6":
                sizes = [(k1, k2) for k1 in range(1, 5) for k2 in range(1, 5)]
                for k1, k2 in sizes:
                    sig = _family_signature(template, k1 + k2)
                    names = sig.object_constants()
                    carve = {"R1": set(names[:k1]), "R2": set(names[k1:])}
                    subst = _family_subst(sig, carve)
                    instance = instantiate(subst, parse_formula_text(text, sig))
                    assert ht_valid(instance) is None, (case.name, k1, k2)
            elif restrictors:
                for k in range(1, 5):
                    sig = _family_signature(template, k)
                    names = sig.object_constants()
                    for m in range(0, k + 1):
                        carve = {r: set(names[:m]) for r in restrictors}
                        subst = _family_subst(sig, carve)
                        instance = instantiate(subst, parse_formula_text(text, sig))
                        assert ht_valid(instance) is None, (case.name, k, m)
            else:
                for k in range(1, 5):
                    sig = _family_signature(template, k)
                    subst = _family_subst(sig, {})
                    instance = instantiate(subst, parse_formula_text(text, sig))
                    assert ht_valid(instance) is None, (case.name, k)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"corpus soundness took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# A2: countermodel correctness (exact, discrete)

def test_a2_countermodel_correctness():
    with criterion("A2", "canonical countermodels and fixed validities"):
        expected = HTInterpretation.of([], ["p"])
        for name in ("lem.prop", "dne.prop"):
            f = parse_prop_file(load_text(name))
            for evaluator in ("g3", "literal"):
                cm = ht_valid(f, evaluator=evaluator)
                assert cm == expected, name
                assert render_countermodel(cm, ["p"]) == "p: there-only"
        for name in ("hosoi.prop", "sqht_inst.prop", "top_iff_not_bot.prop"):
            f = parse_prop_file(load_text(name))
            for evaluator in ("g3", "literal"):
                assert ht_valid(f, evaluator=evaluator) is None, name
        # a larger quantifier-shift instance, built instead of shipped:
        # the disjunction over a three-element family of (member -> whole)
        from hhtkit.syntax import PAnd, PImp, POr

        family = tuple(PAtom(a) for a in ("p", "q", "r"))
        shift = POr(PImp(g, PAnd(family)) for g in family)
        for evaluator in ("g3", "literal"):
            assert ht_valid(shift, evaluator=evaluator) is None


# ---------------------------------------------------------------------------
# A3: every axiom schema produces only brute-force-valid instances

SIG_N2 = Signature.make({"a": 0, "b": 0}, {"P": 1, "Q": 0})
SIG_N3 = Signature.make({"a": 0, "b": 0, "c": 0}, {"P": 1, "Q": 0})
SIG_CET = Signature.make({"a": 0, "b": 0, "s": 1}, {})
Z = Var("z")


def _rand_fg(rng, sig, scope=()):
    return gen.rand_formula(rng, sig, depth=2, scope=scope)


def _rand_term(rng, sig, extra=()):
    pool = [const(c) for c in sig.object_constants()] + list(extra)
    return rng.choice(pool)


def _rand_binding(rng, schema_id, sig):
    """Random metavariable binding for one schema over `sig`."""
    if schema_id in ("k", "and-elim-left", "and-elim-right", "and-intro",
                     "or-intro-left", "or-intro-right", "hosoi"):
        return {"F": _rand_fg(rng, sig), "G": _rand_fg(rng, sig)}
    if schema_id in ("s", "or-elim"):
        return {"F": _rand_fg(rng, sig), "G": _rand_fg(rng, sig),
                "H": _rand_fg(rng, sig)}
    if schema_id == "efq":
        return {"F": _rand_fg(rng, sig)}
    if schema_id in ("forall-elim", "exists-intro"):
        return {
            "x": Z,
            "F": _rand_fg(rng, sig, scope=(Z,)),
            "t": _rand_term(rng, sig, extra=(Z,)),
        }
    if schema_id == "eq-refl":
        return {"t": _rand_term(rng, sig, extra=(Var("w"),))}
    if schema_id == "eq-subst":
        return {
            "x": Z,
            "F": _rand_fg(rng, sig, scope=(Z,)),
            "t1": _rand_term(rng, sig, extra=(Var("w"),)),
            "t2": _rand_term(rng, sig, extra=(Var("w"),)),
        }
    if schema_id == "sqht":
        return {"x": Z, "F": _rand_fg(rng, sig, scope=(Z,))}
    if schema_id == "dec-eq":
        return {
            "t1": _rand_term(rng, sig, extra=(Var("w"),)),
            "t2": _rand_term(rng, sig, extra=(Var("w1"),)),
        }
    if schema_id == "cet-distinct":
        f_name, g_name = rng.sample(["a", "b", "s"], 2)
        def args_for(name):
            if sig.function_arity(name) == 0:
                return ()
            return (_rand_term(rng, sig, extra=(Var("w"),)),)
        return {"f": f_name, "g": g_name,
                "ss": args_for(f_name), "ts": args_for(g_name)}
    if schema_id == "cet-inject":
        return {"f": "s",
                "ss": (_rand_term(rng, sig, extra=(Var("w"),)),),
                "ts": (_rand_term(rng, sig, extra=(Var("w1"),)),)}
    if schema_id == "cet-acyclic":
        t = Z
        for _ in range(rng.randrange(1, 4)):
            t = FnApp("s", (t,))
        return {"t": t, "x": Z}
    raise AssertionError(schema_id)


def test_a3_schema_soundness():
    with criterion("A3", "randomized schema instances are valid by brute force"):
        rng = random.Random(2024)
        per_schema = 200
        base_schemas = [s.schema_id for s in list_schemas(TheoryLevel.HHT)]
        assert len(base_schemas) == 19
        for schema_id in base_schemas:
            cet = schema_id.startswith("cet-")
            for trial in range(per_schema):
                if cet:
                    sig, mode = SIG_CET, Bounded(2)
                else:
                    sig = SIG_N3 if trial % 4 == 0 else SIG_N2
                    mode = EXACT
                binding = _rand_binding(rng, schema_id, sig)
                inst = build_axiom_instance(sig, schema_id, binding)
                closed = gen.universal_closure(inst)
                counter = hht_valid_bruteforce(sig, closed, mode, budget=10**7)
                assert counter is None, (schema_id, formula_to_text(closed))

        # second-order postulates: comprehension, choice and domain closure
        for trial in range(20):
            sig = SIG_N2
            n = trial % 2
            xs = tuple(Var(f"x{i}") for i in range(n))
            p = PredVar("p", n)
            body = gen.rand_formula(rng, sig, depth=2, scope=xs)
            inst = build_axiom_instance(
                sig, "comprehension", {"p": p, "xs": xs, "F": body}
            )
            assert hht_valid_bruteforce(sig, inst, budget=10**7) is None

        sig_choice = Signature.make({"a": 0, "b": 0}, {"Q": 0})
        for trial in range(20):
            names = (f"p{trial}", f"g{trial}")
            inst = build_axiom_instance(
                sig_choice,
                "choice",
                {"p": PredVar(names[0], 2), "f": FuncVar(names[1], 1),
                 "xs": (Var("x"), Var("y"))},
            )
            closed = gen.universal_closure(inst)
            assert hht_valid_bruteforce(sig_choice, closed, budget=10**7) is None

        for trial in range(20):
            k = 1 + trial % 2
            consts = {f"e{i}": 0 for i in range(k)}
            preds = {"P": 1} if trial % 3 == 0 else {"Q": 0}
            sig_dca = Signature.make(consts, preds)
            inst = build_axiom_instance(sig_dca, "dca", {})
            assert hht_valid_bruteforce(sig_dca, inst, budget=10**7) is None


# ---------------------------------------------------------------------------
# A4: satisfaction transfers between the two model classes

def test_a4_satisfaction_transfer():
    with criterion("A4", "1000 randomized lifting transfers agree at both worlds"):
        rng = random.Random(4096)
        sig = Signature.make(
            {"c1": 0, "c2": 0, "c3": 0}, {"P": 1, "Q": 0, "R": 1}, {"R"}
        )
        for trial in range(1000):
            f = gen.rand_formula(rng, sig, depth=4, restrictor_share=0.35)
            subst = gen.rand_substitution(rng, sig)
            i = gen.rand_interpretation(rng)
            assert gen.lifting_check(subst, i, f), (trial, formula_to_text(f))


# ---------------------------------------------------------------------------
# A5: restrictor coherence

def _has_genvar(f) -> bool:
    from hhtkit.syntax import Binary, Quant as Q_

    match f:
        case Q_(_, binder, body):
            return isinstance(binder, GenVar) or _has_genvar(body)
        case Binary(_, l, r):
            return _has_genvar(l) or _has_genvar(r)
        case _:
            return False


def test_a5_restrictor_coherence():
    with criterion("A5", "direct and unfolded instances agree on all models"):
        rng = random.Random(555)
        sig = Signature.make({"c1": 0, "c2": 0}, {"P": 1, "Q": 0, "R": 1}, {"R"})
        for trial in range(500):
            f = gen.rand_formula(rng, sig, depth=3, restrictor_share=0.6)
            if not _has_genvar(f):
                kind = rng.choice(("forall", "exists"))
                f = Quant(kind, GenVar(((Var("x9"), "R"),)), f)
            subst = gen.rand_substitution(rng, sig)
            direct = instantiate(subst, f)
            unfolded = instantiate(subst, eliminate_restrictors(f))
            atoms = prop_atoms(direct) | prop_atoms(unfolded)
            for i in gen.all_interpretations_over(atoms):
                for w in World:
                    assert satisfies(i, w, direct) == satisfies(i, w, unfolded), trial


# ---------------------------------------------------------------------------
# A6: bounded-mode honesty

def test_a6_bounded_mode_honesty(capsys):
    with criterion("A6", "truncated induction instance refuted and labeled"):
        proof = parse_proof_file(load_text("example7.proof"))
        check_proof(proof)
        conclusion = conclusion_for_pipeline(proof)
        subst = parse_subst_file(load_text("example7.subst"))
        instance = instantiate(subst, conclusion, Bounded(3))
        assert ht_valid(instance) is not None

        code = cli_run([
            "pipeline", data_path("example7.proof"), data_path("example7.subst"),
            "--depth", "3",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "non-validity-preserving" in out
        assert "NOT CERTIFYING" in out


# ---------------------------------------------------------------------------
# A7: persistence and three-valued agreement

def test_a7_persistence_and_g3():
    with criterion("A7", "10000 random pairs: persistence and evaluator agreement"):
        rng = random.Random(777)
        for _ in range(10_000):
            f = gen.rand_prop(rng, depth=3)
            i = gen.rand_interpretation(rng)
            sat_h = satisfies(i, World.H, f)
            sat_t = satisfies(i, World.T, f)
            assert not sat_h or sat_t
            v = gen.engine_value(i, f)
            assert sat_h == (v == 2)
            assert sat_t == (v >= 1)


# ---------------------------------------------------------------------------
# A8: negative controls

def test_a8_negative_controls(capsys):
    with criterion("A8", "classical axiom rejected; empty signature refused"):
        proof = parse_proof_file(load_text("classical.proof"))
        with pytest.raises(SchemaMismatch) as err:
            check_proof(proof)
        assert err.value.line == 1
        # the claimed axiom's propositional instance has a countermodel
        dne = parse_prop_file(load_text("dne.prop"))
        assert ht_valid(dne) == HTInterpretation.of([], ["p"])

        with pytest.raises(SignatureError):
            Signature.make({}, {"P": 1})
        with pytest.raises(Exception) as perr:
            parse_formula_file("pred P/1.\nforall x P(x)\n")
        assert "object constant" in str(perr.value)

        code = cli_run(["check-proof", data_path("classical.proof")])
        out = capsys.readouterr().out
        assert code == 1 and "SchemaMismatch" in out
