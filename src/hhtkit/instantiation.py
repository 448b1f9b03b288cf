"""Substitutions mapping ground atoms (closed `Atom`s, see `syntax`) to
propositional formulas, and the instance operation turning a closed
first-order formula (restrictors allowed) into a propositional formula.

The instance is built in one walk that carries an environment binding each
quantified variable to a term; terms at atoms and equations are evaluated
under it.  A restrictor's domain is filtered once per walk, one lookup per
term however often its quantifiers are visited, and a generalized
variable's tuples are the product of its restrictors' domains.  The walk
also collects the atoms the substitution does not map: a restrictor guard
atom without an image is reported itself, and the bodies of the tuples it
guards are skipped.

The walk emits the instance as the program the model checker runs (see
`syntax.prop_dag`), through `syntax.program_builder`, which holds each
distinct subformula once.  A substitution's images are entries of its own
program, grafted in by position (`syntax.graft`), so an entry several images
share is copied once; a restrictor's domain is read off its images and
copies none.  The walk is memoized per node and environment: a subformula is
instantiated once per binding of its own free variables, and its other
occurrences under that binding get the same position.  So the walk's work
grows with those (node, binding) pairs, not with the tree.  A node's key is
the terms of its free variables, which an `operator.itemgetter` built once
per node per walk reads from the environment, and the walk picks a node's
case by `type()`, not by a structural `match`, which costs several times as
much per visit.  `instantiate` builds objects from the program.

Exact mode requires every function constant to be nullary, so the term
universe is finite and the instance is faithful.  Bounded mode truncates
the universe at a term depth and is not validity-preserving; every consumer
labels its results accordingly.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
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
    AND,
    IMP,
    OR,
    Atom,
    Binary,
    Equals,
    Falsum,
    FnApp,
    FOFormula,
    GenVar,
    PropFormula,
    Quant,
    Signature,
    Term,
    Var,
    const,
    formula_to_text,
    free_variables,
    graft,
    is_first_order,
    program_builder,
    prop_of_program,
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
    depth <= d, as `count_universe` counts them; the layers stop at the
    first that adds no term, as `count_universe` stops at its fixed point."""
    consts: list[Term] = [const(c) for c in sig.object_constants()]
    pool, out = consts, sorted(consts, key=term_to_text)
    for _ in range(depth):
        pool = consts + [FnApp(name, args) for name, arity in sig.nonnullary_functions()
                         for args in itertools.product(pool, repeat=arity)]
        deeper = set(pool).difference(out)  # those of depth d + 1
        if not deeper:  # no function to apply: every later layer is this one
            break
        out += sorted(deeper, key=term_to_text)
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


TRUTH_VALUES = ((AND, ()), (OR, ()))  # the entries of `top` and `bot`, a restrictor's images


def restrictor_error(key: Atom | str) -> str:
    """Why an image other than `top` or `bot` is refused for the restrictor
    entry `key` (an `Atom`) or default (a predicate name)."""
    if type(key) is Atom:
        return f"restrictor atom {key} must map to top or bot"
    return f"restrictor default {key} must be top or bot"


class Substitution:
    """Total map from ground atoms to propositional formulas: `entries`,
    keyed by closed `Atom`s, and optional per-predicate `defaults` give the
    position of each image in one program, `program`.  A restrictor's
    entries and default must be `top` or `bot`."""

    def __init__(self, signature: Signature, program: list[tuple[int, object]],
                 entries: Mapping[Atom, int] = (), defaults: Mapping[str, int] = ()):
        self.signature, self.program = signature, program
        self.entries, self.defaults = dict(entries), dict(defaults)
        for atom, k in self.entries.items():
            if atom.free:
                raise SubstitutionError(f"substitution key {atom} is not ground")
            arity = signature.predicate_arity(atom.pred)
            if arity is None:
                raise SubstitutionError(f"unknown predicate {atom.pred}")
            if arity != len(atom.args):
                raise SubstitutionError(f"arity mismatch for {atom} (expected {arity} args)")
            if signature.is_restrictor(atom.pred) and program[k] not in TRUTH_VALUES:
                raise SubstitutionError(restrictor_error(atom))
        for pred, k in self.defaults.items():
            if signature.predicate_arity(pred) is None:
                raise SubstitutionError(f"unknown predicate {pred}")
            if signature.is_restrictor(pred) and program[k] not in TRUTH_VALUES:
                raise SubstitutionError(restrictor_error(pred))

    def lookup(self, atom: Atom) -> int:
        """The position in `program` of the image of `atom`."""
        got = self.entries.get(atom)
        if got is None and (got := self.defaults.get(atom.pred)) is None:
            raise UnmappedAtom(str(atom))
        return got


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
    """Compute the instance of a closed first-order formula, as objects
    built from its `instance_program`.

    Equality of ground terms maps to top/bot by syntactic identity;
    quantifiers expand to set conjunctions/disjunctions over the mode's
    universe; quantifiers over generalized variables range over exactly the
    tuples whose restrictor images are all top.  Raises UnmappedAtom for the
    first missing atom in sorted order; its `missing` lists them all.
    """
    prog, missing = instance_program(subst, f, mode)
    if missing:
        raise UnmappedAtom(missing[0], missing)
    return prop_of_program(prog)


def instance_program(
    subst: Substitution, f: FOFormula, mode: InstantiationMode = EXACT
) -> tuple[list[tuple[int, object]], tuple[str, ...]]:
    """The program of the instance of `f` (see `syntax.prop_dag`), with
    `bot` for each atom `subst` does not map, and those atoms, sorted: the
    one walk the module docstring describes.  A restrictor guard atom
    without an entry is reported itself, and the bodies of the tuples it
    guards are skipped."""
    _check_preconditions(f)
    terms = universe(subst.signature, mode)
    missing: set[str] = set()
    env: dict[Var, Term] = {}
    prog, emit = program_builder()
    images = subst.program
    moved = [None] * len(images)  # each image entry's position in `prog` (`syntax.graft`)

    def image(atom: Atom) -> int | None:
        try:
            return subst.lookup(atom)
        except UnmappedAtom:
            missing.add(str(atom))
            return None

    # per node, a getter of the terms `env` binds its free variables to
    # (`type`, one value, for a closed node) and the positions `rec` gave by them
    memo: dict[FOFormula, tuple[object, dict]] = {}
    domains: dict[str, list[Term]] = {}  # the terms each restrictor maps to `top`

    def domain(r: str) -> list[Term]:
        got = domains.get(r)
        if got is None:
            got = domains[r] = [t for t in terms if (k := image(Atom(r, (t,)))) is not None
                                and images[k] == (AND, ())]
        return got

    def rec(g: FOFormula) -> int:
        if (entry := memo.get(g)) is None:
            entry = memo[g] = (itemgetter(*g.free) if g.free else type, {})
        built, key = entry[1], entry[0](env)
        if (out := built.get(key)) is not None:
            return out
        kind = type(g)
        if kind is Binary:
            op, left, right = g.op, rec(g.left), rec(g.right)
            if op == "->":
                out = emit(IMP, (left, right))
            else:
                out = emit(AND if op == "&" else OR, (left, right) if left < right
                           else (right, left) if right < left else (left,))
        elif kind is Atom:  # `f` is closed: `env` binds every variable
            k = image(Atom(g.pred, tuple([term_subst(a, env) for a in g.args])))
            if k is None:
                out = emit(OR, ())
            elif (out := moved[k]) is None:
                out = graft(images, k, emit, moved)
        elif kind is Quant:
            binder, body = g.binder, g.body
            if type(binder) is GenVar:
                variables, ranges = binder.variables(), [domain(r) for _, r in binder.items]
            else:
                variables, ranges = (binder,), [terms]
            shadowed = [env.get(v) for v in variables]
            children, outer, last = set(), variables[:-1], variables[-1]
            # the outer variables are bound once per choice, the innermost per term
            for choice in itertools.product(*ranges[:-1]):
                env.update(zip(outer, choice))
                for t in ranges[-1]:
                    env[last] = t
                    children.add(rec(body))
            for v, t in zip(variables, shadowed):
                if t is None:
                    env.pop(v, None)
                else:
                    env[v] = t
            out = emit(AND if g.kind == "forall" else OR, tuple(sorted(children)))
        elif kind is Equals:
            out = emit(AND if term_subst(g.left, env) == term_subst(g.right, env) else OR, ())
        elif kind is Falsum:
            out = emit(OR, ())
        else:
            raise TypeError(f"unexpected formula node: {g!r}")
        built[key] = out
        return out

    try:
        rec(f)
    finally:  # `rec` refers to itself: the memo and the table would outlive the walk until a gc
        del rec
    return prog, tuple(sorted(missing))


def herbrand_base(sig: Signature, terms: Iterable[Term]) -> tuple[Atom, ...]:
    """All ground predicate-constant atoms over the given universe, sorted
    by rendered text."""
    terms = tuple(terms)
    atoms = []
    for pred, arity in sig.predicates:
        for args in itertools.product(terms, repeat=arity):
            atoms.append(Atom(pred, args))
    return tuple(sorted(atoms, key=str))
