import itertools
import random
import time

import pytest

import gen
from hhtkit import cli, herbrand, instantiation
from hhtkit.cli import run
from hhtkit.errors import STEP_CAP, BudgetExceeded, capped_pow
from hhtkit.errors import OutsideUniverse
from hhtkit.herbrand import (
    _Grounding,
    _hat,
    all_function_names,
    all_predicate_names,
    count_function_names,
    count_predicate_names,
    estimate_cost,
    h_satisfies,
    hht_valid_bruteforce,
)
from hhtkit.instantiation import EXACT, Bounded, herbrand_base, universe
from hhtkit.parser import parse_formula_text
from hhtkit.semantics import (
    ABSENT,
    THERE_ONLY,
    HTInterpretation,
    World,
    enumerate_interpretations,
    render_countermodel,
)
from hhtkit.syntax import (
    Atom,
    Binary,
    FnApp,
    FnVarApp,
    FuncVar,
    Quant,
    Signature,
    Var,
    const,
    eliminate_restrictors,
)

SIG_AB = Signature.make({"a": 0, "b": 0}, {"P": 1, "Q": 0})
SIG_A = Signature.make({"a": 0}, {"P": 1})


def fof(sig, text):
    return parse_formula_text(text, sig)


def interp(here=(), there=()):
    return HTInterpretation.of(here, there)


def pa(name, *consts):
    return Atom(name, tuple(const(c) for c in consts))


# --- hat evaluation ----------------------------------------------------------

G1 = FuncVar("g", 1)
TABLE_AB = {(const("a"),): const("b"), (const("b"),): const("b")}


def test_hat_constant_is_itself():
    assert _hat(const("a"), {}) == const("a")


def test_hat_applies_table():
    assert _hat(FnVarApp(G1, (const("a"),)), {G1: TABLE_AB}) == const("b")


def test_hat_recurses_under_constructors():
    t = FnApp("f", (FnVarApp(G1, (Var("x"),)), const("a")))
    assert _hat(t, {G1: TABLE_AB, Var("x"): const("a")}) == FnApp("f", (const("b"), const("a")))


# --- satisfaction clauses -----------------------------------------------------

def test_atom_clause_uses_worlds():
    j = interp(there=[pa("P", "a")])
    f = fof(SIG_AB, "P(a)")
    assert not h_satisfies(SIG_AB, j, World.H, f)
    assert h_satisfies(SIG_AB, j, World.T, f)


def test_equality_clause():
    j = interp()
    assert h_satisfies(SIG_AB, j, World.H, fof(SIG_AB, "a = a"))
    assert not h_satisfies(SIG_AB, j, World.H, fof(SIG_AB, "a = b"))


def test_object_quantifier_ranges_over_universe():
    j = interp(there=[pa("P", "a"), pa("P", "b")], here=[pa("P", "a"), pa("P", "b")])
    assert h_satisfies(SIG_AB, j, World.H, fof(SIG_AB, "forall x P(x)"))
    j2 = interp(here=[pa("P", "a")], there=[pa("P", "a")])
    assert not h_satisfies(SIG_AB, j2, World.H, fof(SIG_AB, "forall x P(x)"))
    assert h_satisfies(SIG_AB, j2, World.H, fof(SIG_AB, "exists x P(x)"))


def test_predicate_name_counts_and_comprehension_over_singleton():
    assert count_predicate_names(1, 1) == 3
    assert len(list(all_predicate_names((const("a"),), 1))) == 3
    f = fof(SIG_A, "exists p/1 forall x (p(x) <-> P(x))")
    for j in enumerate_interpretations(herbrand_base(SIG_A, universe(SIG_A, EXACT))):
        assert h_satisfies(SIG_A, j, World.H, f)


def test_predicate_names_come_in_a_fixed_order():
    # a name's extension ranges over the argument tuples in product order
    # of the universe, first tuple most significant, states counted absent <
    # there-only < both: the k-th name holds the base-3 digits of k
    a, b = universe(SIG_AB, EXACT)
    for arity, keys in ((1, [(a,), (b,)]), (2, [(a, a), (a, b), (b, a), (b, b)])):
        names = list(all_predicate_names((a, b), arity))
        got = ["".join(str(n.atom_state(k)) for k in keys) for n in names]
        digits = itertools.product("012", repeat=len(keys))
        assert got == ["".join(d) for d in digits]
        assert all(n.there <= set(keys) for n in names)
    assert got[:4] == ["0000", "0001", "0002", "0010"] and len(got) == 81


def test_function_name_counts():
    assert count_function_names(2, 1) == 4
    names = list(all_function_names((const("a"), const("b")), 1))
    assert len(names) == 4
    exts = {tuple(n.values()) for n in names}
    assert len(exts) == 4


def test_restrictor_formulas_eliminated_before_evaluation():
    sig = Signature.make({"a": 0}, {"P": 1, "R": 1}, {"R"})
    j = interp(here=[Atom("R", (const("a"),))], there=[Atom("R", (const("a"),))])
    f = parse_formula_text("forall (x:R) P(x)", sig)
    g = parse_formula_text("forall x (R(x) -> P(x))", sig)
    for w in World:
        assert h_satisfies(sig, j, w, f) == h_satisfies(sig, j, w, g)


# --- brute-force validity ------------------------------------------------------

def test_hosoi_instance_valid():
    f = fof(SIG_AB, "P(a) | (P(a) -> Q) | not Q")
    assert hht_valid_bruteforce(SIG_AB, f) is None


def test_excluded_middle_countermodel_canonical():
    f = fof(SIG_A, "P(a) | not P(a)")
    j = hht_valid_bruteforce(SIG_A, f)
    assert j is not None
    assert j.atom_state(pa("P", "a")) == THERE_ONLY
    assert render_countermodel(j, [pa("P", "a")]) == "P(a): there-only"


def test_dca_instance_valid_over_two_constants():
    f = fof(SIG_AB, "forall p/1 (p(a) & p(b) -> forall x p(x))")
    assert hht_valid_bruteforce(SIG_AB, f) is None


def test_choice_instance_valid():
    f = gen.universal_closure(
        fof(SIG_AB, "forall x exists y p(x, y) -> exists g^1 forall x p(x, g(x))")
    )
    assert hht_valid_bruteforce(SIG_AB, f, budget=10**7) is None


def test_capped_pow_is_the_power_capped():
    for base in range(13):
        for exp in (0, 1, 2, 4299, 4300, 4301, 9012, 9013, 14284, 14285, 14286):
            assert capped_pow(base, exp) == min(base**exp, STEP_CAP)
    assert capped_pow(3, 10**9) == capped_pow(10**9, 10**9) == STEP_CAP
    assert capped_pow(1, STEP_CAP) == 1


def test_name_counts_and_estimate_saturate_at_the_cap():
    # 3^(1000^3) predicate names: computing the power ran past 60 s
    assert count_predicate_names(1000, 3) == count_function_names(1000, 2) == STEP_CAP
    assert count_function_names(300, 1) == 300**300  # below the cap: exact
    sig = Signature.make({f"c{i}": 0 for i in range(1000)}, {"Q": 0})
    f = fof(sig, "forall p/3 (p(c1,c1,c1) -> p(c1,c1,c1))")
    assert estimate_cost(f, 1000) == STEP_CAP
    with pytest.raises(BudgetExceeded) as err:
        hht_valid_bruteforce(sig, f)
    assert err.value.required == STEP_CAP


def test_budget_exceeded_reports_count():
    f = fof(SIG_AB, "forall p/2 (p(a, b) -> p(a, b))")
    with pytest.raises(BudgetExceeded) as err:
        hht_valid_bruteforce(SIG_AB, f, budget=100)
    assert err.value.required > 100
    assert "100" in str(err.value)


@pytest.mark.parametrize("formula, required", [
    ("forall x P(x)", 17991276),  # the universe's nodes: 458,330 terms
    ("forall x forall y (P(x) | P(y))", 458330 ** 2 * 3 + 458330 + 1),  # estimate_cost
])
def test_both_checkers_count_the_universe_before_building_it(formula, required):
    sig = Signature.make({"a": 0, "f": 2}, {"P": 1})
    f = fof(sig, formula)
    j = HTInterpretation.of([], [])
    for check in (lambda: hht_valid_bruteforce(sig, f, Bounded(5)),
                  lambda: h_satisfies(sig, j, World.H, f, Bounded(5))):
        with pytest.raises(BudgetExceeded) as err:
            check()
        assert err.value.required == required


def test_bounded_mode_evaluates_truncated_universe():
    sig = Signature.make({"a": 0, "s": 1}, {"P": 1})
    f = fof(sig, "forall x (s(x) != x)")
    assert hht_valid_bruteforce(sig, f, Bounded(1)) is None


# --- grounded validity against the literal definition -----------------------

def _literal_first_failure(sig, f, mode=EXACT):
    """The first interpretation in canonical order that `h_satisfies` fails
    at world h, by walking the formula once per interpretation."""
    for j in enumerate_interpretations(herbrand_base(sig, universe(sig, mode))):
        if not h_satisfies(sig, j, World.H, f, mode, budget=10**8):
            return j
    return None


def _agrees_with_literal(sig, f, mode=EXACT):
    got = hht_valid_bruteforce(sig, f, mode, budget=10**8)
    assert got == _literal_first_failure(sig, f, mode), f
    if got is not None:  # here is a subset of there
        assert all(isinstance(a, Atom) and not a.free for a in got.there), f
    return got


SIG_A2B = Signature.make({"a": 0, "b": 0}, {"P": 1, "Q": 0, "R": 0})


@pytest.mark.parametrize("sig", [SIG_AB, SIG_A2B], ids=["P1Q0", "P1Q0R0"])
def test_grounded_validity_matches_literal_on_random_formulas(sig):
    rng = random.Random(73)
    outcomes = set()
    for _ in range(400):
        f = gen.universal_closure(gen.rand_formula(rng, sig, depth=4))
        outcomes.add(_agrees_with_literal(sig, f) is None)
    assert outcomes == {True, False}


def test_grounded_validity_matches_literal_in_bounded_mode():
    # depth 1: universe {a, s(a)}; s(s(a)) is outside it, so P(s(s(a))) is
    # an atom outside the base
    sig = Signature.make({"a": 0, "s": 1}, {"P": 1, "Q": 0})
    texts = (
        "forall x (P(x) -> P(s(x)))",
        "forall x (P(x) -> P(s(x))) | Q",
        "forall x (s(x) = x | not P(x) | Q)",
        "exists x (P(s(x)) & not Q) | not not Q",
        "forall x exists y (y = s(x) -> P(y)) -> Q",
    )
    for text in texts:
        _agrees_with_literal(sig, fof(sig, text), Bounded(1))
    rng = random.Random(79)
    for _ in range(150):
        f = gen.universal_closure(gen.rand_formula(rng, sig, depth=3))
        _agrees_with_literal(sig, f, Bounded(1))


@pytest.mark.parametrize("text, valid", [
    ("exists p/1 forall x (p(x) <-> P(x))", True),
    ("forall p/0 (not not p -> p)", False),  # p there-only fails at h
    ("forall p/0 (not not p -> p) | Q", False),
    ("exists p/0 (p <-> Q) & (P(a) | not P(b))", False),
    ("forall p/1 (p(a) & p(b) -> forall x p(x))", True),
    ("exists g^1 (P(g(a)) -> P(a))", True),
    ("forall g^1 exists x (P(g(x)) -> Q) | not Q", False),
])
def test_grounded_second_order_matches_literal(text, valid):
    assert (_agrees_with_literal(SIG_AB, fof(SIG_AB, text)) is None) == valid


@pytest.mark.parametrize("text", [
    "P(a) | not P(a) | Q",
    "forall p/0 (not not p -> p) | Q",
    "forall g^1 exists x (P(g(x)) -> Q) | not Q",
])
def test_countermodel_renders_as_herbrand_check_prints(text, tmp_path, capsys):
    j = _agrees_with_literal(SIG_AB, fof(SIG_AB, text))
    path = tmp_path / "counter.fof"
    path.write_text(f"const a, b.  pred P/1, Q/0.\n{text}\n")
    assert run(["herbrand-check", str(path)]) == 1
    base = herbrand_base(SIG_AB, universe(SIG_AB, EXACT))
    lines = render_countermodel(j, base)
    assert capsys.readouterr().out == f"countermodel found (exact):\n{lines}\n"


def test_grounded_choice_matches_literal():
    sig = Signature.make({"a": 0, "b": 0}, {"Q": 0})
    f = gen.universal_closure(
        fof(sig, "forall x exists y p(x, y) -> exists g^1 forall x p(x, g(x))")
    )
    assert _agrees_with_literal(sig, f) is None
    g = fof(sig, "forall p/1 exists g^1 (p(g(a)) | Q)")
    assert _agrees_with_literal(sig, g) is not None


def test_grounded_shadowed_binders_match_literal():
    # the shape of a closed forall-elim instance: forall z (forall z F -> F)
    z = Var("z")
    pz_or_q = Binary("|", Atom("P", (z,)), Atom("Q"))
    cases = (
        Quant("forall", z, Binary("->", Quant("forall", z, pz_or_q), pz_or_q)),
        Quant("exists", z, Binary("&", Quant("forall", z, Atom("P", (z,))),
                                  Binary("->", Atom("P", (z,)), Atom("Q")))),
        Quant("forall", z, Binary("|", Quant("exists", z, Atom("P", (z,))),
                                  Binary("->", Atom("P", (z,)), Atom("Q")))),
    )
    for f in cases:
        _agrees_with_literal(SIG_AB, f)


@pytest.mark.parametrize("text, valid", [
    ("forall x (x = x)", True),
    ("a = b", False),
    ("bot -> P(a)", True),
    ("forall x (P(x) & x = a)", False),  # P(a), P(b) drop out: all absent
    ("P(a) -> P(a) | a = b", True),
])
def test_grounded_constant_roots_match_literal(text, valid):
    got = _agrees_with_literal(SIG_AB, fof(SIG_AB, text))
    assert (got is None) == valid
    if got is not None:
        assert got.there == frozenset()


# --- the type-dispatch grounding against the structural-`match` one ---------

def _grounds_as_reference(sig, f, mode=EXACT):
    terms = universe(sig, mode)
    new, old = _Grounding(sig, terms), gen.GroundingReference(sig, terms)
    new_root, old_root = new.ground(f, {}), old.ground(f, {})
    assert (new.prog, new_root) == (old.prog, old_root), f


SIG_FN = Signature.make({"a": 0, "b": 0, "s": 1}, {"P": 1, "Q": 0, "R1": 1}, {"R1"})


@pytest.mark.parametrize("sig, mode, share", [
    (SIG_A2B, EXACT, 0.0),
    (Signature.make({"a": 0, "b": 0, "c": 0}, {"P": 1, "R1": 1, "R2": 1}, {"R1", "R2"}),
     EXACT, 0.6),
    (SIG_FN, Bounded(1), 0.5),
    (SIG_FN, Bounded(2), 0.5),
], ids=["exact", "restricted", "fn-depth1", "fn-depth2"])
def test_grounding_matches_the_match_reference_on_random_formulas(sig, mode, share):
    rng = random.Random(83)
    for _ in range(100):
        f = gen.rand_formula(rng, sig, depth=4, restrictor_share=share)
        _grounds_as_reference(sig, eliminate_restrictors(f), mode)


@pytest.mark.parametrize("text", [
    "exists p/1 forall x (p(x) <-> P(x))",
    "forall p/0 (not not p -> p) | Q",
    "forall p/1 (p(a) & p(b) -> forall x p(x))",
    "forall g^1 exists x (P(g(x)) -> Q) | not Q",
    "forall g^1 forall x (g(x) = s(x) | exists p/1 (p(g(x)) -> P(s(x))))",
    "forall x (P(x) & forall x (x = s(x) -> P(s(x))))",
])
def test_grounding_matches_the_match_reference_on_names_and_terms(text):
    _grounds_as_reference(SIG_FN, fof(SIG_FN, text), Bounded(1))
    if "s(" not in text:
        _grounds_as_reference(SIG_AB, fof(SIG_AB, text))


def test_grounding_and_reference_refuse_a_term_outside_the_universe():
    f = fof(SIG_FN, "exists g^1 forall x P(g(s(x)))")
    terms = universe(SIG_FN, Bounded(1))
    messages = []
    for grounding in (_Grounding(SIG_FN, terms), gen.GroundingReference(SIG_FN, terms)):
        with pytest.raises(OutsideUniverse) as err:
            grounding.ground(f, {})
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# --- the Herbrand base, built by the CLI only to show a countermodel ------------

def _count_base_calls(monkeypatch) -> list:
    calls = []

    def counted(sig, terms):
        calls.append(sig)
        return herbrand_base(sig, terms)

    monkeypatch.setattr(instantiation, "herbrand_base", counted)
    monkeypatch.setattr(cli, "herbrand_base", counted)
    return calls


def test_a_valid_verdict_builds_no_herbrand_base(monkeypatch, tmp_path):
    calls = _count_base_calls(monkeypatch)
    assert hht_valid_bruteforce(SIG_AB, fof(SIG_AB, "forall x (P(x) -> P(x)) & (Q -> Q)")) is None
    path = tmp_path / "valid.fof"
    path.write_text("const a, b.  pred P/1, Q/0.\nP(a) -> P(a)\n")
    assert run(["herbrand-check", str(path)]) == 0
    assert calls == []


def test_the_checker_builds_no_herbrand_base(monkeypatch):
    # a countermodel is the pair <H, T>; the atoms it is shown over are the caller's
    assert not hasattr(herbrand, "herbrand_base")
    calls = _count_base_calls(monkeypatch)
    got = hht_valid_bruteforce(SIG_AB, fof(SIG_AB, "P(a) | not P(a)"))
    assert got == interp(there=[pa("P", "a")]) and calls == []


def test_a_countermodel_builds_the_herbrand_base_once(monkeypatch, tmp_path, capsys):
    calls = _count_base_calls(monkeypatch)
    path = tmp_path / "counter.fof"
    path.write_text("const a, b.  pred P/1, Q/0.\nP(a) | not P(a)\n")
    assert run(["herbrand-check", str(path)]) == 1
    assert len(calls) == 1
    shown = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert shown == ["P(a)", "P(b)", "Q"]


def test_herbrand_check_of_a_valid_formula_over_a_huge_base_is_quick(tmp_path, capsys):
    # the base has 2^20 atoms, none of which the formula mentions
    path = tmp_path / "p20.fof"
    path.write_text("const a, b.  pred P/20.\nbot -> bot\n")
    t0 = time.perf_counter()
    assert run(["herbrand-check", str(path)]) == 0
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().out == "valid over all interpretations (exact)\n"


def test_an_atom_over_a_term_outside_the_universe_folds_to_absent(tmp_path, capsys):
    # depth 1: the universe is {a, s(a)}, so P(s(s(a))) is outside the base
    sig = Signature.make({"a": 0, "s": 1}, {"P": 1})
    grounding = _Grounding(sig, universe(sig, Bounded(1)))
    assert grounding.ground(fof(sig, "P(s(s(a)))"), {}) == ABSENT
    assert grounding.ground(fof(sig, "P(s(a))"), {}) >= 3  # an atom, past the constants
    path = tmp_path / "outside.fof"
    path.write_text("const a. fn s/1. pred P/1.\nnot P(s(s(a)))\n")
    run(["herbrand-check", "--depth", "1", str(path)])
    assert capsys.readouterr().out.startswith("valid over all interpretations (bounded depth 1")
    run(["herbrand-check", "--depth", "2", str(path)])
    assert "P(s(s(a))): there-only" in capsys.readouterr().out


# --- persistence -----------------------------------------------------------------

def test_persistence_randomized_first_order():
    rng = random.Random(53)
    for _ in range(300):
        f = gen.rand_formula(rng, SIG_AB, depth=3)
        base = herbrand_base(SIG_AB, universe(SIG_AB, EXACT))
        j = _rand_interp(rng, base)
        if h_satisfies(SIG_AB, j, World.H, f):
            assert h_satisfies(SIG_AB, j, World.T, f)


def test_persistence_second_order():
    rng = random.Random(59)
    base = herbrand_base(SIG_A, universe(SIG_A, EXACT))
    quantified = (
        "forall p/1 (p(a) -> P(a))",
        "exists p/1 forall x (p(x) <-> P(x))",
        "exists g^1 (P(g(a)) -> P(a))",
        "forall g^1 exists x (g(x) = x | P(x) -> P(g(x)))",
    )
    for text in quantified:
        f = fof(SIG_A, text)
        for j in enumerate_interpretations(base):
            if h_satisfies(SIG_A, j, World.H, f):
                assert h_satisfies(SIG_A, j, World.T, f)
    del rng


def _rand_interp(rng, base):
    here, there = [], []
    for atom in base:
        state = rng.randrange(3)
        if state >= 1:
            there.append(atom)
        if state == 2:
            here.append(atom)
    return interp(here, there)


# --- lifting ----------------------------------------------------------------------

def _carving_subst():
    sig = Signature.make({"c1": 0, "c2": 0, "c3": 0}, {"P": 1, "R": 1}, {"R"})
    entries = {}
    members = {"c2", "c3"}
    for c in sig.object_constants():
        entries[Atom("P", (const(c),))] = gen.atom(f"f_{c}")
        entries[Atom("R", (const(c),))] = gen.TOP if c in members else gen.BOT
    return sig, gen.tree_subst(sig, entries), members


def test_lift_definition_unfolds():
    sig, subst, members = _carving_subst()
    i = gen.rand_interpretation(random.Random(61), atoms=("f_c1", "f_c2", "f_c3"))
    j = gen.lift(subst, i)
    for c in sig.object_constants():
        atom = Atom("P", (const(c),))
        assert (atom in j.here) == (f"f_{c}" in i.here)
        assert (atom in j.there) == (f"f_{c}" in i.there)
        r_atom = Atom("R", (const(c),))
        # restrictor images are top or bot, so membership is two-valued
        assert (r_atom in j.here) == (c in members)
        assert (r_atom in j.there) == (c in members)
    assert j.here <= j.there


def test_lifting_check_universal_and_restricted():
    sig, subst, _ = _carving_subst()
    rng = random.Random(67)
    i = gen.rand_interpretation(rng, atoms=("f_c1", "f_c2", "f_c3"))
    assert gen.lifting_check(subst, i, parse_formula_text("forall x P(x)", sig))
    assert gen.lifting_check(subst, i, parse_formula_text("forall (x:R) P(x)", sig))
    assert gen.lifting_check(
        subst, i, parse_formula_text("exists (x:R) P(x) & forall y P(y)", sig)
    )


def test_lifting_check_randomized():
    rng = random.Random(71)
    sig = Signature.make({"c1": 0, "c2": 0}, {"P": 1, "Q": 0, "R": 1}, {"R"})
    for _ in range(300):
        f = gen.rand_formula(rng, sig, depth=3, restrictor_share=0.4)
        subst = gen.rand_substitution(rng, sig)
        i = gen.rand_interpretation(rng)
        assert gen.lifting_check(subst, i, f)
