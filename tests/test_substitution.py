"""`syntax.substitute` against the three walkers it replaced, kept here as
literal references: term substitution for object variables, renaming of a
second-order variable, and application of a predicate abstraction.  Both
sides must give equal formulas or both raise CaptureViolation."""

import random
import re

import pytest

from hhtkit.errors import CaptureViolation
from hhtkit.syntax import (
    BOTTOM,
    Atom,
    Binary,
    Equals,
    Falsum,
    FnApp,
    FnVarApp,
    FOFormula,
    FuncVar,
    GenVar,
    PredVar,
    Quant,
    Term,
    Var,
    binder_variables,
    const,
    free_variables,
    substitute,
)

X, Y, Z = Var("x"), Var("y"), Var("z")
P, Q = PredVar("p", 1), PredVar("q", 1)
F, G = FuncVar("f", 1), FuncVar("g", 1)
OBJECT_VARS = (X, Y, Z)
SO_VARS = (P, Q, F, G)


# --- literal references: the three walkers `substitute` replaced ------------

def ref_term_subst(t: Term, mapping) -> Term:
    match t:
        case Var():
            return mapping.get(t, t)
        case FnApp(fn, args):
            return FnApp(fn, tuple(ref_term_subst(a, mapping) for a in args))
        case FnVarApp(v, args):
            return FnVarApp(v, tuple(ref_term_subst(a, mapping) for a in args))
    raise TypeError(f"not a term: {t!r}")


def ref_subst_terms(f: FOFormula, mapping) -> FOFormula:
    if not mapping:
        return f
    match f:
        case Falsum():
            return f
        case Equals(l, r):
            return Equals(ref_term_subst(l, mapping), ref_term_subst(r, mapping))
        case Atom(p, args):
            return Atom(p, tuple(ref_term_subst(a, mapping) for a in args))
        case Binary(op, l, r):
            return Binary(op, ref_subst_terms(l, mapping), ref_subst_terms(r, mapping))
        case Quant(kind, binder, body):
            bound = binder_variables(binder)
            inner = {v: t for v, t in mapping.items() if v not in bound}
            if not inner:
                return f
            free_below = free_variables(body)
            for v, t in inner.items():
                if v in free_below and bound & t.free:
                    captured = sorted(
                        x.name for x in bound & t.free if not isinstance(x, (PredVar, FuncVar))
                    ) or sorted(str(x) for x in bound & t.free)
                    raise CaptureViolation(
                        f"substituting for {v.name} would capture {', '.join(captured)}"
                    )
            return Quant(kind, binder, ref_subst_terms(body, inner))
    raise TypeError(f"not a formula: {f!r}")


def ref_subst_sovar(f: FOFormula, v, w) -> FOFormula:
    def sub_term(t: Term) -> Term:
        match t:
            case Var():
                return t
            case FnApp(fn, args):
                return FnApp(fn, tuple(sub_term(a) for a in args))
            case FnVarApp(fv, args):
                new_args = tuple(sub_term(a) for a in args)
                return FnVarApp(w if fv == v else fv, new_args)
        raise TypeError(f"not a term: {t!r}")

    def rec(g: FOFormula) -> FOFormula:
        match g:
            case Falsum():
                return g
            case Equals(l, r):
                return Equals(sub_term(l), sub_term(r))
            case Atom(p, args):
                return Atom(w if p == v else p, tuple(sub_term(a) for a in args))
            case Binary(op, l, r):
                return Binary(op, rec(l), rec(r))
            case Quant(kind, binder, body):
                bound = binder_variables(binder)
                if v in bound:
                    return g
                if w in bound and v in free_variables(body):
                    raise CaptureViolation(
                        f"substituting {w.name} for {v.name} under a binder of {w.name}"
                    )
                return Quant(kind, binder, rec(body))
        raise TypeError(f"not a formula: {g!r}")

    return rec(f)


def ref_pred_abstraction(g: FOFormula, p: PredVar, params, body) -> FOFormula:
    spare = free_variables(body) - set(params)

    def rec(f: FOFormula, scope: frozenset) -> FOFormula:
        match f:
            case Falsum() | Equals():
                return f
            case Atom(pred, args):
                if pred == p:
                    captured = scope & spare
                    if captured:
                        names = sorted(getattr(x, "name", str(x)) for x in captured)
                        raise CaptureViolation(
                            f"abstraction body variable(s) {', '.join(names)} would be captured"
                        )
                    return ref_subst_terms(body, dict(zip(params, args)))
                return f
            case Binary(op, l, r):
                return Binary(op, rec(l, scope), rec(r, scope))
            case Quant(kind, binder, inner):
                if p in binder_variables(binder):
                    return f
                return Quant(kind, binder, rec(inner, scope | binder_variables(binder)))
        raise TypeError(f"not a formula: {f!r}")

    return rec(g, frozenset())


# --- random formulas over x, y, z, p/1, q/1, f^1, g^1 -----------------------

def rand_term(rng: random.Random, depth: int = 2) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.6:
        return rng.choice((X, Y, Z, X, Y, Z, const("a")))
    if roll < 0.7:
        return FnApp("s", (rand_term(rng, depth - 1),))
    return FnVarApp(rng.choice((F, G)), (rand_term(rng, depth - 1),))


def rand_formula(rng: random.Random, depth: int = 4) -> FOFormula:
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.05:
            return BOTTOM
        if roll < 0.2:
            return Equals(rand_term(rng), rand_term(rng))
        return Atom(rng.choice(("C", P, Q, P, Q)), (rand_term(rng),))
    if rng.random() < 0.5:
        op = rng.choice(("&", "|", "->"))
        return Binary(op, rand_formula(rng, depth - 1), rand_formula(rng, depth - 1))
    roll = rng.random()
    if roll < 0.1:
        a, b = rng.sample(OBJECT_VARS, 2)
        binder = GenVar(((a, "R"), (b, "R")))
    elif roll < 0.6:
        binder = rng.choice(OBJECT_VARS)
    else:
        binder = rng.choice(SO_VARS)
    return Quant(rng.choice(("forall", "exists")), binder, rand_formula(rng, depth - 1))


def rand_case(rng: random.Random):
    """(kind, formula, mapping, reference thunk) for one random substitution;
    the mapped variables are drawn among those free in the formula where it
    has some."""
    f = rand_formula(rng)
    free = free_variables(f)

    def pick(pool):
        return rng.choice([v for v in pool if v in free] or pool)

    kind = rng.choice(("term", "terms", "sovar", "abstraction"))
    if kind == "term":
        v, t = pick(OBJECT_VARS), rand_term(rng)
        return kind, f, {v: t}, lambda: ref_subst_terms(f, {v: t})
    if kind == "terms":
        mapping = {v: rand_term(rng) for v in rng.sample(OBJECT_VARS, 2)}
        return kind, f, mapping, lambda: ref_subst_terms(f, mapping)
    if kind == "sovar":
        v = pick(SO_VARS)
        w = rng.choice((P, Q) if isinstance(v, PredVar) else (F, G))
        return kind, f, {v: w}, lambda: ref_subst_sovar(f, v, w)
    p, params, body = pick((P, Q)), (rng.choice(OBJECT_VARS),), rand_formula(rng, 2)
    return kind, f, {p: (params, body)}, lambda: ref_pred_abstraction(f, p, params, body)


def _outcome(thunk):
    try:
        return thunk(), None
    except CaptureViolation as e:
        return None, str(e)


# a captured function variable was printed as its dataclass repr
_FUNCVAR_REPR = re.compile(r"FuncVar\(name='(\w+)', arity=\d+\)")


@pytest.mark.parametrize("seed", range(3))
def test_substitute_agrees_with_the_replaced_walkers(seed):
    rng = random.Random(seed)
    tally: dict[tuple[str, str], int] = {}
    for _ in range(3000):
        kind, f, mapping, reference = rand_case(rng)
        want, want_err = _outcome(reference)
        got, got_err = _outcome(lambda: substitute(f, mapping))
        assert (got_err is None) == (want_err is None), (f, mapping, got_err, want_err)
        if want_err is None:
            assert got == want, (f, mapping)
        elif kind in ("term", "terms"):
            # first-order messages are unchanged, but for the variable's name
            assert got_err == _FUNCVAR_REPR.sub(r"\1", want_err)
        else:
            # one wording for every capture, including one met while an
            # abstraction's body takes the arguments of an occurrence
            assert re.fullmatch(r"substituting for \w+ would capture [\w, ]+", got_err)
        outcome = "raised" if want_err else "unchanged" if want == f else "changed"
        tally[kind, outcome] = tally.get((kind, outcome), 0) + 1
    # every kind of substitution both changes formulas and is refused, so
    # the generator still reaches every capture rule
    for kind in ("term", "terms", "sovar", "abstraction"):
        assert tally.get((kind, "changed"), 0) >= 150, tally
        assert tally.get((kind, "raised"), 0) >= 25, tally


def test_unchanged_subformulas_are_returned_as_they_are():
    shared = Quant("forall", X, Atom(P, (X,)))
    f = Binary("->", shared, Atom(Q, (Y,)))
    assert substitute(f, {X: Y}) is f  # x is bound wherever it occurs
    assert substitute(f, {Y: const("a")}).left is shared


def test_simultaneous_replacement():
    # each replacement is read in the original formula, not in the result of
    # another one
    f = Binary("&", Atom(P, (X,)), Atom("C", (Y,)))
    got = substitute(f, {X: Y, Y: X, P: ((Z,), Atom(Q, (Z,)))})
    assert got == Binary("&", Atom(Q, (Y,)), Atom("C", (X,)))
