"""Substitutions mapping ground atoms (closed `Atom`s, see `syntax`) to
propositional formulas, and the instance operation turning a closed
first-order formula (restrictors allowed) into a propositional formula.

The instance is built in one walk that carries an environment binding each
quantified variable to a term; terms at atoms and equations are evaluated
under it.  A generalized variable's restrictor domains are filtered once,
one lookup per restrictor and term, and its tuples are their product.  The
walk also collects the atoms the substitution does not map: a restrictor
guard atom without an image is reported itself, and the bodies of the
tuples it guards are skipped.

The walk is memoized per node and environment: a subformula is instantiated
once per binding of its own free variables, and its other occurrences under
that binding get the same object.  The instance is thus a DAG sharing what
the formula shares (both sides of a `<->`) and what its quantifiers repeat,
and the walk's work grows with those (node, binding) pairs, not with the
tree.  Its equality, atoms, rank and text are the tree's; only its count of
distinct nodes falls.

Exact mode requires every function constant to be nullary, so the term
universe is finite and the instance is faithful.  Bounded mode truncates
the universe at a term depth and is not validity-preserving; every consumer
labels its results accordingly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .errors import (
    STEP_CAP,
    InfiniteUniverse,
    NotClosed,
    NotFirstOrder,
    SubstitutionError,
    UnmappedAtom,
    capped_pow,
)
from .syntax import (
    BOT,
    TOP,
    Atom,
    Binary,
    Equals,
    Falsum,
    FnApp,
    FOFormula,
    GenVar,
    PAnd,
    PImp,
    POr,
    PropFormula,
    Quant,
    Signature,
    Term,
    Var,
    const,
    formula_to_text,
    free_variables,
    is_first_order,
    record,
    term_subst,
    term_to_text,
)


@record
class Exact:
    pass


@record
class Bounded:
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")


InstantiationMode = Exact | Bounded

EXACT = Exact()


def ground_terms(sig: Signature, depth: int) -> tuple[Term, ...]:
    """All ground terms of depth <= `depth`, sorted by (depth, text).  Those
    of depth <= d + 1 are the constants and every application over those of
    depth <= d, as `count_universe` counts them."""
    consts: list[Term] = [const(c) for c in sig.object_constants()]
    pool, out = consts, sorted(consts, key=term_to_text)
    for _ in range(depth):
        pool = consts + [FnApp(name, args) for name, arity in sig.nonnullary_functions()
                         for args in itertools.product(pool, repeat=arity)]
        out += sorted(set(pool).difference(out), key=term_to_text)  # those of depth d + 1
    return tuple(out)


def universe(sig: Signature, mode: InstantiationMode) -> tuple[Term, ...]:
    if isinstance(mode, Exact):
        extra = sig.nonnullary_functions()
        if extra:
            names = ", ".join(f"{n}/{a}" for n, a in extra)
            raise InfiniteUniverse(
                f"exact mode needs a nullary-only signature (found {names})"
            )
        return tuple(const(c) for c in sig.object_constants())
    return ground_terms(sig, mode.depth)


def count_universe(sig: Signature, mode: InstantiationMode) -> tuple[int, int]:
    """The number of terms `universe(sig, mode)` holds, and of the nodes
    they have together, counted layer by layer without building them (or
    raising as `universe` does).  With c constants, t_d terms of depth <= d
    and n_d nodes among them: t_0 = n_0 = c, t_{d+1} = c + sum over the
    functions f of t_d^arity(f), and an application's nodes are its own and
    its arguments', so n_{d+1} = c + sum of t_d^a + a * t_d^(a-1) * n_d.
    With one unary function and no other, the counts grow only
    quadratically, never reaching `STEP_CAP` or a fixed point, so they are
    taken in closed form: t_d = c (d + 1) and n_d = c (d + 1) (d + 2) / 2."""
    if isinstance(mode, Exact):
        size = len(universe(sig, mode))
        return size, size
    c, d = len(sig.object_constants()), mode.depth
    fns = sig.nonnullary_functions()
    if [a for _, a in fns] == [1]:
        return min(c * (d + 1), STEP_CAP), min(c * (d + 1) * (d + 2) // 2, STEP_CAP)
    terms = nodes = c
    for _ in range(d):
        step = (min(c + sum(capped_pow(terms, a) for _, a in fns), STEP_CAP),
                min(c + sum(capped_pow(terms, a) + a * capped_pow(terms, a - 1) * nodes
                            for _, a in fns), STEP_CAP))
        if step == (terms, nodes):  # both at `STEP_CAP`, or no deeper terms
            break
        terms, nodes = step
    return terms, nodes


class Substitution:
    """Total map from ground atoms to propositional formulas, represented
    by explicit entries, keyed by closed `Atom`s, plus optional
    per-predicate defaults.

    Entries and defaults for restrictor predicates must be `top` or `bot`.
    """

    def __init__(
        self,
        signature: Signature,
        entries: Mapping[Atom, PropFormula] = (),
        defaults: Mapping[str, PropFormula] = (),
    ):
        self.signature = signature
        self.entries = dict(entries.items() if isinstance(entries, Mapping) else entries)
        self.defaults = dict(defaults.items() if isinstance(defaults, Mapping) else defaults)
        for atom, image in self.entries.items():
            if atom.free:
                raise SubstitutionError(f"substitution key {atom} is not ground")
            arity = signature.predicate_arity(atom.pred)
            if arity is None:
                raise SubstitutionError(f"unknown predicate {atom.pred}")
            if arity != len(atom.args):
                raise SubstitutionError(
                    f"arity mismatch for {atom} (expected {arity} args)"
                )
            if signature.is_restrictor(atom.pred) and image not in (TOP, BOT):
                raise SubstitutionError(
                    f"restrictor atom {atom} must map to top or bot"
                )
        for pred, image in self.defaults.items():
            if signature.predicate_arity(pred) is None:
                raise SubstitutionError(f"unknown predicate {pred}")
            if signature.is_restrictor(pred) and image not in (TOP, BOT):
                raise SubstitutionError(f"restrictor default {pred} must be top or bot")

    def lookup(self, atom: Atom) -> PropFormula:
        got = self.entries.get(atom)
        if got is not None:
            return got
        got = self.defaults.get(atom.pred)
        if got is not None:
            return got
        raise UnmappedAtom(str(atom))


def _check_preconditions(f: FOFormula) -> None:
    free = free_variables(f)
    if free:
        names = sorted(getattr(v, "name", str(v)) for v in free)
        raise NotClosed(f"free variables: {', '.join(names)}")
    if not is_first_order(f):
        raise NotFirstOrder(formula_to_text(f))


def instantiate(
    subst: Substitution, f: FOFormula, mode: InstantiationMode = EXACT
) -> PropFormula:
    """Compute the instance of a closed first-order formula.

    Equality of ground terms maps to top/bot by syntactic identity;
    quantifiers expand to set conjunctions/disjunctions over the mode's
    universe; quantifiers over generalized variables range over exactly the
    tuples whose restrictor images are all top.  Raises UnmappedAtom for the
    first missing atom in sorted order; its `missing` lists them all.
    """
    instance, missing = _instantiate(subst, f, mode)
    if missing:
        raise UnmappedAtom(missing[0], missing)
    return instance


def validate(
    subst: Substitution, f: FOFormula, mode: InstantiationMode = EXACT
) -> tuple[str, ...]:
    """Report every reachable atom lacking an entry and default, sorted.

    A restrictor guard atom without an entry is reported itself, and the
    bodies of the tuples it guards are skipped.
    """
    return _instantiate(subst, f, mode)[1]


def _instantiate(
    subst: Substitution, f: FOFormula, mode: InstantiationMode
) -> tuple[PropFormula, tuple[str, ...]]:
    """The instance of `f`, with `bot` for each atom `subst` does not map,
    and those atoms, sorted: the one walk the module docstring describes."""
    _check_preconditions(f)
    terms = universe(subst.signature, mode)
    missing: set[str] = set()
    env: dict[Var, Term] = {}

    def image(atom: Atom) -> PropFormula:
        try:
            return subst.lookup(atom)
        except UnmappedAtom:
            missing.add(str(atom))
            return BOT

    # what `rec` built, by node and the terms of its free variables (a
    # node's one `free` set iterates in one order)
    memo: dict[tuple, PropFormula] = {}

    def rec(g: FOFormula) -> PropFormula:
        key = (g, *map(env.__getitem__, g.free))
        if (out := memo.get(key)) is not None:
            return out
        match g:
            case Falsum():
                out = BOT
            case Equals(l, r):
                out = TOP if term_subst(l, env) == term_subst(r, env) else BOT
            case Atom(pred, args):  # `f` is closed: `env` binds every variable
                out = image(Atom(pred, tuple([term_subst(a, env) for a in args])))
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

    try:
        instance = rec(f)
    finally:  # `rec` refers to itself: the memo would outlive the walk until a gc
        memo.clear()
    return instance, tuple(sorted(missing))


def herbrand_base(sig: Signature, terms: Iterable[Term]) -> tuple[Atom, ...]:
    """All ground predicate-constant atoms over the given universe, sorted
    by rendered text."""
    terms = tuple(terms)
    atoms = []
    for pred, arity in sig.predicates:
        for args in itertools.product(terms, repeat=arity):
            atoms.append(Atom(pred, args))
    return tuple(sorted(atoms, key=str))
