"""Seeded random generators shared by the randomized tests, and the
literal references and engine probe those tests check against."""

from __future__ import annotations

import itertools
import random

from hhtkit.instantiation import EXACT, Substitution, herbrand_base, universe
from hhtkit.semantics import DEFAULT_BUDGET, HTInterpretation, first_countermodel
from hhtkit.syntax import (
    ATOM,
    BOT,
    BOTTOM,
    CONST,
    TOP,
    Atom,
    Binary,
    Equals,
    FOFormula,
    FuncVar,
    GenVar,
    PAnd,
    PAtom,
    PImp,
    POr,
    PredVar,
    PropFormula,
    Quant,
    Signature,
    Var,
    const,
    free_variables,
    prop_dag,
)

SIGMA_ATOMS = ("u", "v", "w")


def rand_prop(rng: random.Random, depth: int = 2, atoms=SIGMA_ATOMS) -> PropFormula:
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.8:
            return PAtom(rng.choice(atoms))
        return rng.choice((TOP, BOT))
    kind = rng.randrange(3)
    if kind == 0:
        return PAnd(rand_prop(rng, depth - 1, atoms) for _ in range(rng.randrange(3)))
    if kind == 1:
        return POr(rand_prop(rng, depth - 1, atoms) for _ in range(rng.randrange(3)))
    return PImp(rand_prop(rng, depth - 1, atoms), rand_prop(rng, depth - 1, atoms))


def rand_interpretation(rng: random.Random, atoms=SIGMA_ATOMS) -> HTInterpretation:
    here, there = [], []
    for a in atoms:
        state = rng.randrange(3)
        if state >= 1:
            there.append(a)
        if state == 2:
            here.append(a)
    return HTInterpretation.of(here, there)


def rand_term(rng: random.Random, sig: Signature, scope: tuple[Var, ...]):
    pool = [const(c) for c in sig.object_constants()] + list(scope)
    return rng.choice(pool)


def rand_formula(
    rng: random.Random,
    sig: Signature,
    depth: int = 3,
    scope: tuple[Var, ...] = (),
    restrictor_share: float = 0.0,
) -> FOFormula:
    """Closed when called with an empty scope (quantifiers introduce the
    variables atoms use)."""
    non_restrictors = [
        (p, a) for p, a in sig.predicates if not sig.is_restrictor(p)
    ]
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return BOTTOM
        if roll < 0.3:
            return Equals(rand_term(rng, sig, scope), rand_term(rng, sig, scope))
        pred, arity = rng.choice(non_restrictors)
        return Atom(pred, tuple(rand_term(rng, sig, scope) for _ in range(arity)))
    kind = rng.randrange(4)
    if kind < 2:
        op = rng.choice(("&", "|", "->"))
        return Binary(
            op,
            rand_formula(rng, sig, depth - 1, scope, restrictor_share),
            rand_formula(rng, sig, depth - 1, scope, restrictor_share),
        )
    quant = rng.choice(("forall", "exists"))
    fresh = Var(f"x{len(scope)}")
    restrictors = sorted(sig.restrictors)
    if restrictors and rng.random() < restrictor_share:
        if len(restrictors) > 1 and rng.random() < 0.3:
            fresh2 = Var(f"x{len(scope) + 1}")
            binder = GenVar(
                ((fresh, rng.choice(restrictors)), (fresh2, rng.choice(restrictors)))
            )
            body = rand_formula(
                rng, sig, depth - 1, scope + (fresh, fresh2), restrictor_share
            )
            return Quant(quant, binder, body)
        binder = GenVar(((fresh, rng.choice(restrictors)),))
        body = rand_formula(rng, sig, depth - 1, scope + (fresh,), restrictor_share)
        return Quant(quant, binder, body)
    body = rand_formula(rng, sig, depth - 1, scope + (fresh,), restrictor_share)
    return Quant(quant, fresh, body)


def rand_substitution(
    rng: random.Random, sig: Signature, prop_depth: int = 2
) -> Substitution:
    """Total on the Herbrand base; restrictor atoms get top or bot."""
    entries: dict[Atom, PropFormula] = {}
    for atom in herbrand_base(sig, universe(sig, EXACT)):
        if sig.is_restrictor(atom.pred):
            entries[atom] = TOP if rng.random() < 0.5 else BOT
        else:
            entries[atom] = rand_prop(rng, prop_depth)
    return Substitution(sig, entries)


def nested_iff(n: int) -> str:
    """`P <-> (P <-> ... (P <-> P))` with `n` connectives `<->`: each level
    shares its right side twice, so as a tree the formula doubles per level."""
    text = "P <-> P"
    for _ in range(n - 1):
        text = f"P <-> ({text})"
    return text


def all_interpretations_over(atoms):
    """Plain product enumeration for test-local oracles."""
    atoms = sorted(atoms)
    for states in itertools.product((0, 1, 2), repeat=len(atoms)):
        here = frozenset(a for a, s in zip(atoms, states) if s == 2)
        there = frozenset(a for a, s in zip(atoms, states) if s != 0)
        yield HTInterpretation(here, there)


def engine_value(i: HTInterpretation, f: PropFormula) -> int:
    """2 when `i` satisfies `f` at h, 1 when only at t, else 0, as the
    bit-parallel engine finds it: each atom of the program becomes the
    constant of its state under `i`, so `first_countermodel` decides `i`
    alone, and `f` holds at t iff `not not f` holds at h."""
    def holds_at_h(g: PropFormula) -> bool:
        prog = [(CONST, i.atom_state(arg)) if op == ATOM else (op, arg)
                for op, arg in prop_dag(g)]
        return first_countermodel(prog, [], DEFAULT_BUDGET) is None

    return holds_at_h(f) + holds_at_h(PImp(PImp(f, BOT), BOT))


def classical_eval(true_atoms: frozenset[str], f: PropFormula) -> bool:
    """Ordinary two-valued evaluation; the two worlds collapse to it when
    here equals there."""
    match f:
        case PAtom(name):
            return name in true_atoms
        case PAnd(items):
            return all(classical_eval(true_atoms, g) for g in items)
        case POr(items):
            return any(classical_eval(true_atoms, g) for g in items)
        case PImp(l, r):
            return (not classical_eval(true_atoms, l)) or classical_eval(true_atoms, r)
    raise TypeError(f"not a propositional formula: {f!r}")


def universal_closure(f: FOFormula) -> FOFormula:
    """Quantify all free variables universally (second-order outermost)."""

    def key(v):
        if isinstance(v, PredVar):
            return (0, v.name, v.arity)
        if isinstance(v, FuncVar):
            return (1, v.name, v.arity)
        return (2, v.name, 0)

    for v in sorted(free_variables(f), key=key, reverse=True):
        f = Quant("forall", v, f)
    return f
