"""Two-world models over the ground-term universe of a first-order
signature: the satisfaction relation including second-order quantification
over concrete function and predicate names (a function variable's
application evaluates through the table it is bound to), and validity
over every interpretation of the Herbrand base.

Every interpretation is a `semantics.HTInterpretation`: a Herbrand model
holds ground atoms, which are closed `Atom`s (see `syntax`), and a
second-order predicate name, which stands for its own extension, holds
argument tuples.  A function name is a `dict` from argument tuples over the
universe to terms.  Enumerating names therefore means enumerating
extensions, which explodes quickly; every entry point estimates the work
first and refuses over-budget runs with the computed count, in the steps of
`semantics`.

`h_satisfies` (through `_sat`) is the literal satisfaction relation.
`hht_valid_bruteforce` does not walk the formula once per interpretation.
HT quantifiers over a constant domain act world by world, so it grounds the
formula once: a quantifier becomes the conjunction (forall) or disjunction
(exists) of its body over the domain `_sat` uses, and each Herbrand base
atom becomes an atom of the program, the `Atom` itself.  What no
interpretation can change folds to a constant while grounding, with the
short-circuits `_sat` takes: `bot`, equations, atoms outside the base, and
atoms of predicate names, which may hold there but not here.  The root is
grafted (`syntax.graft`) into a fresh program, which keeps only what it
depends on, and handed to `semantics.first_countermodel`, the engine
`ht_valid` runs; it returns the first countermodel in canonical order.  The
base is built only to show a countermodel.  The budget is checked twice:
`estimate_cost` (the nodes grounding may visit) before grounding, since a
second-order domain can explode, and that count plus the engine's steps on
the ground program, by the engine, before evaluating it.  The first check
runs on a count of the universe, before the universe is built, and also
refuses a universe whose terms have more nodes than the budget.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping

from .errors import STEP_CAP, BudgetExceeded, NotClosed, OutsideUniverse, capped_pow
from .instantiation import (
    EXACT,
    InstantiationMode,
    count_universe,
    herbrand_base,
    universe,
)
from .semantics import (
    ABSENT,
    BOTH,
    DEFAULT_BUDGET,
    THERE_ONLY,
    HTInterpretation,
    World,
    enumerate_interpretations,
    first_countermodel,
)
from .syntax import (
    AND,
    ATOM,
    CONST,
    IMP,
    OR,
    Atom,
    Binary,
    Equals,
    Falsum,
    FnApp,
    FnVarApp,
    FOFormula,
    FuncVar,
    PredVar,
    Quant,
    Signature,
    Term,
    Var,
    eliminate_restrictors,
    free_variables,
    graft,
    program_builder,
    term_to_text,
)

def _hat(t: Term, env: Mapping) -> Term:
    """The ground term `t` denotes under `env`, which binds its object
    variables to terms and its function variables to function names."""
    kind = type(t)
    if kind is Var:
        got = env.get(t)
        if got is None:
            raise NotClosed(f"unbound variable {t.name}")
        return got
    if kind is FnApp:
        return FnApp(t.fn, tuple([_hat(a, env) for a in t.args]))
    if kind is FnVarApp:
        table = env.get(t.var)
        if table is None:
            raise NotClosed(f"unbound function variable {t.var.name}")
        hatted = tuple([_hat(a, env) for a in t.args])
        got = table.get(hatted)
        if got is None:
            shown = ", ".join(term_to_text(a) for a in hatted)
            raise OutsideUniverse(f"a function variable is applied to ({shown}), "
                                  "which lies outside the depth-truncated universe")
        return got
    raise TypeError(f"not a term: {t!r}")


def all_function_names(terms: tuple[Term, ...], arity: int) -> Iterator[dict]:
    keys = tuple(itertools.product(terms, repeat=arity))
    for values in itertools.product(terms, repeat=len(keys)):
        yield dict(zip(keys, values))


def all_predicate_names(terms: tuple[Term, ...], arity: int) -> Iterator[HTInterpretation]:
    return enumerate_interpretations(itertools.product(terms, repeat=arity))


def count_function_names(universe_size: int, arity: int) -> int:
    return capped_pow(universe_size, capped_pow(universe_size, arity))


def count_predicate_names(universe_size: int, arity: int) -> int:
    return capped_pow(3, capped_pow(universe_size, arity))


def estimate_cost(f: FOFormula, universe_size: int) -> int:
    """Worst-case satisfaction checks for one interpretation, and a bound on
    the nodes `hht_valid_bruteforce` visits while grounding.  Each name a
    predicate or function quantifier ranges over is also charged its table,
    `universe_size ** arity` entries, which grounding builds.  Each shared
    node's count is computed once, and saturates at `errors.STEP_CAP`."""
    return _cost(f, universe_size, {})


def _cost(f: FOFormula, universe_size: int, table: dict[FOFormula, int]) -> int:
    """`estimate_cost` of `f`; `table` holds each node's cost."""
    if (got := table.get(f)) is not None:
        return got
    match f:
        case Falsum() | Equals() | Atom():
            got = 1
        case Binary("->", l, r):
            got = 2 * (_cost(l, universe_size, table) + _cost(r, universe_size, table)) + 1
        case Binary(_, l, r):
            got = _cost(l, universe_size, table) + _cost(r, universe_size, table) + 1
        case Quant(_, binder, body):
            inner = _cost(body, universe_size, table)
            if isinstance(binder, (PredVar, FuncVar)):
                count = (count_predicate_names if isinstance(binder, PredVar)
                         else count_function_names)
                names = count(universe_size, binder.arity)
                got = names * (inner + capped_pow(universe_size, binder.arity)) + 1
            else:
                # object variable or generalized variable (per bound variable)
                width = 1 if isinstance(binder, Var) else len(binder.items)
                got = capped_pow(universe_size, width) * inner + 1
        case _:
            raise TypeError(f"not a formula: {f!r}")
    table[f] = got = min(got, STEP_CAP)
    return got


def _check_budget(sig: Signature, f: FOFormula, mode: InstantiationMode, budget: int) -> int:
    """`estimate_cost` of `f` over the universe of `mode`, refused with
    BudgetExceeded over `budget`, as is a universe whose terms have more
    nodes than `budget` (building and sorting it by text walks them all).
    Both are counted before the universe is built."""
    size, nodes = count_universe(sig, mode)
    cost = estimate_cost(f, size)
    for need in (cost, nodes):
        if need > budget:
            raise BudgetExceeded(need, budget)
    return cost


def h_satisfies(
    sig: Signature,
    j: HTInterpretation,
    w: World,
    f: FOFormula,
    mode: InstantiationMode = EXACT,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Satisfaction of a closed (possibly second-order) formula.

    Object quantifiers range over the universe of `mode`; function and
    predicate quantifiers range over all names of matching arity.  With a
    Bounded mode the verdict is a truncated approximation.
    """
    f = eliminate_restrictors(f)
    _check_budget(sig, f, mode, budget)
    if free_variables(f):
        raise NotClosed("satisfaction is defined for closed formulas")
    return _sat(j, w, f, universe(sig, mode), {})


def _sat(
    j: HTInterpretation,
    w: World,
    f: FOFormula,
    terms: tuple[Term, ...],
    env: dict,
) -> bool:
    match f:
        case Falsum():
            return False
        case Equals(l, r):
            return _hat(l, env) == _hat(r, env)
        case Atom(pred, args):
            hatted = tuple(_hat(a, env) for a in args)
            if isinstance(pred, PredVar):
                name = env.get(pred)
                if name is None:
                    raise NotClosed(f"unbound predicate variable {pred.name}")
                return hatted in name.world(w)
            return Atom(pred, hatted) in j.world(w)
        case Binary("&", l, r):
            return _sat(j, w, l, terms, env) and _sat(j, w, r, terms, env)
        case Binary("|", l, r):
            return _sat(j, w, l, terms, env) or _sat(j, w, r, terms, env)
        case Binary("->", l, r):
            for w2 in (World.H, World.T):
                if w2 >= w and _sat(j, w2, l, terms, env) and not _sat(j, w2, r, terms, env):
                    return False
            return True
        case Quant(kind, binder, body):
            shadowed = env.get(binder)
            want_all = kind == "forall"
            result = want_all
            for d in _domain(binder, terms):
                env[binder] = d
                hit = _sat(j, w, body, terms, env)
                if hit != want_all:
                    result = not want_all
                    break
            if shadowed is None:
                env.pop(binder, None)
            else:
                env[binder] = shadowed
            return result
    raise TypeError(f"not a formula: {f!r}")


def _domain(binder, terms: tuple[Term, ...]) -> Iterable:
    """What a quantifier's binder ranges over: the universe, or all function
    or predicate names of the binder's arity."""
    if isinstance(binder, Var):
        return terms
    if isinstance(binder, FuncVar):
        return all_function_names(terms, binder.arity)
    if isinstance(binder, PredVar):
        return all_predicate_names(terms, binder.arity)
    raise TypeError("generalized variables must be eliminated first")


def hht_valid_bruteforce(
    sig: Signature,
    f: FOFormula,
    mode: InstantiationMode = EXACT,
    budget: int = DEFAULT_BUDGET,
) -> HTInterpretation | None:
    """Check satisfaction at world h under every interpretation over the
    Herbrand base; None when valid, else the first failure in canonical
    order, whose `atoms` are the base.  Exact mode is the real thing;
    Bounded mode is a labeled, non-validity-preserving approximation.  The
    formula is grounded once and evaluated over all interpretations at once
    (see the module docstring); the result is the one `h_satisfies` defines."""
    f = eliminate_restrictors(f)
    cost = _check_budget(sig, f, mode, budget)
    if free_variables(f):
        raise NotClosed("validity checking needs a closed formula")
    terms = universe(sig, mode)
    grounding = _Grounding(sig, terms)
    root = grounding.ground(f, {})
    prog, emit = program_builder()  # only what `root` depends on
    graft(grounding.prog, root, emit, [None] * len(grounding.prog))
    counter = first_countermodel(prog, budget, spent=cost)
    if counter is None:
        return None
    return HTInterpretation(counter.here, counter.there, herbrand_base(sig, terms))


class _Grounding:
    """Grounds closed formulas over a universe into one program for the
    engine in `semantics`, built by `syntax.program_builder`, which shares
    equal nodes.  `ground` returns a node's
    position; positions 0, 1 and 2 are the constants absent, there-only and
    both, so a position below 3 is a constant whose value is its position.
    A ground atom is kept when it is in the Herbrand base: its predicate is
    declared with its arity, its arguments are in the universe.  The base
    itself is built only to show a countermodel."""

    def __init__(self, sig: Signature, terms: tuple[Term, ...]):
        self.terms = terms
        self.arities = dict(sig.predicates)
        self.universe = frozenset(terms)
        self.prog, self.emit = program_builder()
        for state in (ABSENT, THERE_ONLY, BOTH):
            self.emit(CONST, state)

    def junction(self, op: int, kids: list[int]) -> int:
        """The conjunction (`AND`) or disjunction (`OR`) of `kids`."""
        unit, zero = (BOTH, ABSENT) if op == AND else (ABSENT, BOTH)
        if zero in kids:
            return zero
        kept = tuple(sorted(set(kids) - {unit}))
        if not kept:
            return unit
        if len(kept) == 1:
            return kept[0]
        return self.emit(op, kept)

    def ground(self, f: FOFormula, env: dict) -> int:
        """Mirrors `_sat`, evaluating at both worlds and every interpretation
        at once."""
        kind = type(f)
        if kind is Binary:
            kl = self.ground(f.left, env)
            if f.op == "->":
                if kl == ABSENT:
                    return BOTH
                kr = self.ground(f.right, env)
                if kl < 3 and kr < 3:
                    return BOTH if kl <= kr else kr
                if kr == BOTH or kl == kr:
                    return BOTH
                if kl == BOTH:
                    return kr
                return self.emit(IMP, (kl, kr))
            op, zero = (AND, ABSENT) if f.op == "&" else (OR, BOTH)
            if kl == zero:
                return zero
            return self.junction(op, [kl, self.ground(f.right, env)])
        if kind is Atom:
            hatted = tuple([_hat(a, env) for a in f.args])
            if type(f.pred) is PredVar:  # bound to a predicate name
                return env[f.pred].atom_state(hatted)
            if self.arities.get(f.pred) == len(hatted) and self.universe.issuperset(hatted):
                return self.emit(ATOM, Atom(f.pred, hatted))
            return ABSENT
        if kind is Quant:
            op, zero = (AND, ABSENT) if f.kind == "forall" else (OR, BOTH)
            binder, body = f.binder, f.body
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
        if kind is Equals:
            return BOTH if _hat(f.left, env) == _hat(f.right, env) else ABSENT
        if kind is Falsum:
            return ABSENT
        raise TypeError(f"not a formula: {f!r}")

