"""Seeded random generators shared by the randomized tests, and the
literal references and engine probe those tests check against."""

from __future__ import annotations

import itertools
import pathlib
import random
import sys

from hhtkit.errors import NotClosed, OutsideUniverse, UnmappedAtom
from hhtkit.herbrand import _domain, _Grounding, h_satisfies
from hhtkit.instantiation import EXACT, Substitution, herbrand_base, instantiate, universe
from hhtkit.semantics import (
    ABSENT,
    BOTH,
    DEFAULT_BUDGET,
    HTInterpretation,
    World,
    first_countermodel,
    satisfies,
)
from hhtkit.syntax import (
    AND,
    ATOM,
    BOT,
    BOTTOM,
    CONST,
    IMP,
    OR,
    TOP,
    Atom,
    Binary,
    Equals,
    Falsum,
    FnApp,
    FnVarApp,
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
    Term,
    Var,
    const,
    free_variables,
    prop_dag,
    prop_of_program,
    term_to_text,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from builder import make_subst  # noqa: E402

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
    return make_subst(sig, entries)


def subst_image(subst: Substitution, atom: Atom) -> PropFormula:
    """The image of `atom` as an object: a prefix of a program is a program
    rooted at its last entry.  UnmappedAtom if `subst` does not map it."""
    return prop_of_program(subst.program[: subst.lookup(atom) + 1])


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
        return first_countermodel(prog, DEFAULT_BUDGET) is None

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


# the model transfer from a substitution plus a propositional interpretation,
# which no command runs

def lift(subst: Substitution, i: HTInterpretation) -> HTInterpretation:
    """Build the interpretation that satisfies a ground atom at a world
    exactly when `i` satisfies the atom's image under the substitution."""
    sig = subst.signature
    terms = universe(sig, EXACT)
    base = herbrand_base(sig, terms)
    here = []
    there = []
    for atom in base:
        image = subst_image(subst, atom)
        if satisfies(i, World.H, image):
            here.append(atom)
        if satisfies(i, World.T, image):
            there.append(atom)
    return HTInterpretation(frozenset(here), frozenset(there))


def lifting_check(
    subst: Substitution,
    i: HTInterpretation,
    f: FOFormula,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Whether satisfaction of `f` under the lifted interpretation agrees
    with satisfaction of the instance under `i`, at both worlds."""
    j = lift(subst, i)
    instance = instantiate(subst, f, EXACT)
    for w in (World.H, World.T):
        if h_satisfies(subst.signature, j, w, f, EXACT, budget) != satisfies(i, w, instance):
            return False
    return True


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


# ---------------------------------------------------------------------------
# the quantifier-expansion walks as they were before they dispatched on
# `type()`: `instantiation.instance_program`'s walk, which built objects then,
# `herbrand._Grounding.ground` and the term walks they call,
# `syntax.term_subst` and `herbrand._hat`, each a structural `match`

def term_subst_reference(t, mapping):
    match t:
        case Var():
            return mapping.get(t, t)
        case FnApp(fn, args):
            return FnApp(fn, tuple(term_subst_reference(a, mapping) for a in args))
        case FnVarApp(v, args):
            return FnVarApp(mapping.get(v, v),
                            tuple(term_subst_reference(a, mapping) for a in args))
    raise TypeError(f"not a term: {t!r}")


def instantiate_reference(subst: Substitution, f: FOFormula, mode=EXACT):
    """`instantiation.instance_program` of a closed first-order `f`, as
    objects: the instance, with `bot` for each unmapped atom, and those
    atoms, sorted.  Memoized by node and the terms of its free variables,
    so it shares what the walk shares; a generalized variable filters its
    domains on every visit."""
    terms = universe(subst.signature, mode)
    missing: set[str] = set()
    env: dict[Var, Term] = {}

    def image(atom: Atom) -> PropFormula:
        try:
            return subst_image(subst, atom)
        except UnmappedAtom:
            missing.add(str(atom))
            return BOT

    memo: dict[tuple, PropFormula] = {}

    def rec(g: FOFormula) -> PropFormula:
        key = (g, *map(env.__getitem__, g.free))
        if (out := memo.get(key)) is not None:
            return out
        match g:
            case Falsum():
                out = BOT
            case Equals(l, r):
                out = TOP if term_subst_reference(l, env) == term_subst_reference(r, env) else BOT
            case Atom(pred, args):
                out = image(Atom(pred, tuple([term_subst_reference(a, env) for a in args])))
            case Binary("&", l, r):
                out = PAnd((rec(l), rec(r)))
            case Binary("|", l, r):
                out = POr((rec(l), rec(r)))
            case Binary("->", l, r):
                out = PImp(rec(l), rec(r))
            case Quant(kind, binder, body):
                if isinstance(binder, GenVar):
                    variables = binder.variables()
                    domains = [[t for t in terms if image(Atom(r, (t,))) == TOP]
                               for _, r in binder.items]
                else:
                    variables, domains = (binder,), [terms]
                shadowed = [env.get(v) for v in variables]
                children = []
                for choice in itertools.product(*domains):
                    env.update(zip(variables, choice))
                    children.append(rec(body))
                for v, t in zip(variables, shadowed):
                    if t is None:
                        env.pop(v, None)
                    else:
                        env[v] = t
                out = PAnd(children) if kind == "forall" else POr(children)
            case _:
                raise TypeError(f"unexpected formula node: {g!r}")
        memo[key] = out
        return out

    return rec(f), tuple(sorted(missing))


def hat_reference(t, env):
    match t:
        case Var():
            got = env.get(t)
            if got is None:
                raise NotClosed(f"unbound variable {t.name}")
            return got
        case FnApp(fn, args):
            return FnApp(fn, tuple(hat_reference(a, env) for a in args))
        case FnVarApp(v, args):
            table = env.get(v)
            if table is None:
                raise NotClosed(f"unbound function variable {v.name}")
            hatted = tuple(hat_reference(a, env) for a in args)
            got = table.get(hatted)
            if got is None:
                shown = ", ".join(term_to_text(a) for a in hatted)
                raise OutsideUniverse(f"a function variable is applied to ({shown}), "
                                      "which lies outside the depth-truncated universe")
            return got
    raise TypeError(f"not a term: {t!r}")


class GroundingReference(_Grounding):
    """`herbrand._Grounding` with its `ground` as a structural `match`, and
    a ground atom kept by membership in the Herbrand base, as defined."""

    def __init__(self, sig: Signature, terms: tuple[Term, ...]):
        super().__init__(sig, terms)
        self.base = frozenset(herbrand_base(sig, terms))

    def ground(self, f: FOFormula, env: dict) -> int:
        match f:
            case Falsum():
                return ABSENT
            case Equals(l, r):
                return BOTH if hat_reference(l, env) == hat_reference(r, env) else ABSENT
            case Atom(pred, args):
                hatted = tuple(hat_reference(a, env) for a in args)
                if isinstance(pred, PredVar):
                    pred = env[pred]
                if isinstance(pred, HTInterpretation):
                    return pred.atom_state(hatted)
                atom = Atom(pred, hatted)
                return self.emit(ATOM, atom) if atom in self.base else ABSENT
            case Binary("->", l, r):
                kl = self.ground(l, env)
                if kl == ABSENT:
                    return BOTH
                kr = self.ground(r, env)
                if kl < 3 and kr < 3:
                    return BOTH if kl <= kr else kr
                if kr == BOTH or kl == kr:
                    return BOTH
                if kl == BOTH:
                    return kr
                return self.emit(IMP, (kl, kr))
            case Binary(sym, l, r):
                op, zero = (AND, ABSENT) if sym == "&" else (OR, BOTH)
                kl = self.ground(l, env)
                if kl == zero:
                    return zero
                return self.junction(op, [kl, self.ground(r, env)])
            case Quant(kind, binder, body):
                op, zero = (AND, ABSENT) if kind == "forall" else (OR, BOTH)
                shadowed = env.get(binder)
                kids = []
                for d in _domain(binder, self.terms):
                    env[binder] = d
                    kids.append(self.ground(body, env))
                    if kids[-1] == zero:
                        break
                if shadowed is None:
                    env.pop(binder, None)
                else:
                    env[binder] = shadowed
                return self.junction(op, kids)
        raise TypeError(f"not a formula: {f!r}")
