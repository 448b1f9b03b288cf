"""Syntax of signatures, terms, first/second-order formulas, and
finitely-represented infinitary propositional formulas.

First-order formulas keep `&`, `|`, `->` and `bot` primitive; `not F`,
`F <-> G`, `top` and `t1 != t2` are abbreviations introduced by the parser
and re-sugared by the printer.  Propositional conjunctions/disjunctions are
sets of children (duplicate-free by construction), so `top` is the empty
conjunction and `bot` the empty disjunction.  `prop_dag` turns a formula
into the `(op, arg)` program that the model checker in `semantics` runs.

A ground atom is a closed `Atom` whose predicate is a name: being interned,
it is one object however it was built (parsed from a substitution file,
enumerated into a Herbrand base, or met while instantiating or grounding),
so it is compared and hashed by identity.

Every node and value class of the package is frozen and built by `record`,
or by `_interned` for the hash-consed first-order nodes, from closures at
import time.
"""

from __future__ import annotations

from functools import cached_property, partial
from operator import attrgetter
from typing import Iterable, Mapping, Union
from weakref import ref

from .errors import CaptureViolation, SignatureError

# ---------------------------------------------------------------------------
# value classes
#
# `record` and `_interned` give a class what a frozen dataclass has, built
# from closures rather than from generated source: importing the package
# compiles no code and loads neither `dataclasses` nor the `inspect`, `ast`,
# `dis` and `tokenize` it would bring in.  A class's fields are its
# annotated names, in order, and a field's class attribute is its default.


def _fields(cls) -> tuple[tuple[str, ...], tuple]:
    """The names of the fields `cls` annotates, in order, and the defaults
    of the trailing ones that have one."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    return names, tuple(cls.__dict__[n] for n in names if n in cls.__dict__)


def _frozen(cls, names: tuple[str, ...], shown: tuple[str, ...]) -> None:
    """Give `cls` `__match_args__` (its fields), a dataclass-format repr of
    the `shown` fields, and a `__setattr__` and `__delattr__` that raise
    AttributeError, each unless its body defines it.  The repr formats its
    fields in a plain loop, no generator, so nested values take one frame
    per level."""
    def __repr__(self):
        fields = []
        for name in shown:
            fields.append(f"{name}={getattr(self, name)!r}")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    _define(cls, __match_args__=names, __repr__=__repr__, __setattr__=__setattr__,
            __delattr__=__delattr__)


def _define(cls, **attributes) -> None:
    """Set the `attributes` the body of `cls` does not define itself."""
    for name, value in attributes.items():
        if name not in cls.__dict__:
            setattr(cls, name, value)


_setattr = object.__setattr__


def record(cls=None, /, *, hidden: tuple[str, ...] = ()):
    """`cls` as a frozen value class, as `dataclass(frozen=True)` makes one:
    `__init__` takes its fields positionally or by keyword, fills in the
    defaults and runs `__post_init__`, if the class has one; `==` and `hash`
    compare the tuple of its fields.  The `hidden` fields take no part in
    `==`, `hash` or the repr.  `@record(hidden=...)` passes the option.

    Fields are set with `object.__setattr__`, as a dataclass sets them, and
    never through the instance `__dict__`: on Python 3.11 touching it moves
    the attributes out of the object into a dict, and every later read
    takes about 3 times as long."""
    if cls is None:
        return partial(record, hidden=hidden)
    names, defaults = _fields(cls)
    compared = tuple(n for n in names if n not in hidden)
    post_init = getattr(cls, "__post_init__", None)
    arity = len(names)
    optional = names[arity - len(defaults):]

    def bind(args: tuple, kwargs: dict) -> tuple:
        """All the fields' values from a call's arguments, or TypeError."""
        if not kwargs and 0 < arity - len(args) <= len(defaults):
            return args + defaults[len(args) - arity:]
        if len(args) > arity:
            raise TypeError(f"{cls.__name__}() takes {arity} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated "
                                f"argument {name!r}")
            values[name] = value
        for name, value in zip(optional, defaults):
            values.setdefault(name, value)
        if missing := [n for n in names if n not in values]:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
        return tuple(map(values.__getitem__, names))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post_init is not None:
            post_init(self)

    # the key is the tuple of the compared fields, as a dataclass hashes it;
    # `attrgetter` of one name gives the bare value, so that key is built here
    get = attrgetter(*compared) if compared else lambda self: ()
    if len(compared) == 1:
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return (get(self),) == (get(other),)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),))
    else:
        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash(get(self))

    _frozen(cls, names, compared)
    _define(cls, __init__=__init__, __eq__=__eq__, __hash__=__hash__)
    return cls


# ---------------------------------------------------------------------------
# hash-consing (Filliâtre and Conchon, "Type-safe modular hash-consing", 2006)

def _interned(cls):
    """`cls` as a frozen value class (see `record`) with one live instance
    per value: a call returns the live instance with equal fields, else
    builds one, runs its `__post_init__` (which may raise, storing nothing)
    and keeps it.  The children in a key (the field tuple; a one-field
    class's field) are interned too, so every instance hashes and compares
    by identity, O(1) at any depth.  Keys map to plain `weakref.ref`s
    (calling a subclass's, `KeyedRef`'s, costs a level of recursion): an
    unheld instance is freed."""
    names, defaults = _fields(cls)
    _frozen(cls, names, names)
    post_init = getattr(cls, "__post_init__", None)
    table: dict[object, ref] = {}

    def drop(key, dead: ref) -> None:
        if table.get(key) is dead:  # not yet replaced by a newer instance
            del table[key]

    def __new__(cls, *values):
        if 0 < len(names) - len(values) <= len(defaults):
            values += defaults[len(values) - len(names):]
        key = values[0] if len(values) == 1 else values
        if (got := table.get(key)) is not None and (node := got()) is not None:
            return node
        node = object.__new__(cls)
        node.__dict__.update(zip(names, values, strict=True))  # ValueError if miscounted
        if post_init is not None:
            post_init(node)
        table[key] = ref(node, partial(drop, key))
        return node

    cls.__new__ = staticmethod(__new__)
    return cls


# ---------------------------------------------------------------------------
# signatures

@record
class Signature:
    """Function and predicate constants with arities, plus restrictor flags.

    Nullary function constants are the object constants.  Invariants: at
    least one object constant, restrictors are unary predicates, and no name
    is both a function and a predicate constant.
    """

    functions: tuple[tuple[str, int], ...]
    predicates: tuple[tuple[str, int], ...]
    restrictors: frozenset[str]

    @staticmethod
    def make(
        functions: Mapping[str, int] | Iterable[tuple[str, int]] = (),
        predicates: Mapping[str, int] | Iterable[tuple[str, int]] = (),
        restrictors: Iterable[str] = (),
    ) -> "Signature":
        fns = dict(functions.items() if isinstance(functions, Mapping) else functions)
        preds = dict(predicates.items() if isinstance(predicates, Mapping) else predicates)
        rs = frozenset(restrictors)
        for name, arity in list(fns.items()) + list(preds.items()):
            if arity < 0:
                raise SignatureError(f"negative arity for {name}")
        if not any(a == 0 for a in fns.values()):
            raise SignatureError("signature must contain at least one object constant")
        clash = set(fns) & set(preds)
        if clash:
            raise SignatureError(f"names used as both function and predicate constants: {sorted(clash)}")
        for r in rs:
            if preds.get(r) != 1:
                raise SignatureError(f"restrictor {r} must be a declared unary predicate")
        return Signature(
            tuple(sorted(fns.items())),
            tuple(sorted(preds.items())),
            rs,
        )

    # built on first use and kept in the instance `__dict__`, outside the
    # fields, so `==` and `hash` are unchanged
    @cached_property
    def _function_arities(self) -> dict[str, int]:
        return dict(self.functions)

    @cached_property
    def _predicate_arities(self) -> dict[str, int]:
        return dict(self.predicates)

    def function_arity(self, name: str) -> int | None:
        return self._function_arities.get(name)

    def predicate_arity(self, name: str) -> int | None:
        return self._predicate_arities.get(name)

    def is_restrictor(self, name: str) -> bool:
        return name in self.restrictors

    def object_constants(self) -> tuple[str, ...]:
        return tuple(n for n, a in self.functions if a == 0)

    def nonnullary_functions(self) -> tuple[tuple[str, int], ...]:
        return tuple((n, a) for n, a in self.functions if a > 0)


# ---------------------------------------------------------------------------
# terms
#
# A term knows two facts from construction, as formula nodes do (see below):
# `free`, its object and function variables, and `first_order`, that no
# function variable occurs in it.  A closed term holds `_CLOSED`.

_CLOSED = frozenset()


@_interned
class Var:
    name: str

    first_order = True

    @property
    def free(self) -> frozenset:
        return frozenset((self,))


@_interned
class PredVar:
    """Second-order predicate variable with a declared arity."""

    name: str
    arity: int


@_interned
class FuncVar:
    """Second-order function variable with a declared arity."""

    name: str
    arity: int


@_interned
class FnApp:
    """Application of a function constant; nullary applications are constants."""

    fn: str
    args: tuple = ()

    def __post_init__(self):
        free, first_order = _CLOSED, True
        for a in self.args:
            free |= a.free
            first_order = first_order and a.first_order
        vars(self).update(free=free or _CLOSED, first_order=first_order)


@_interned
class FnVarApp:
    var: FuncVar
    args: tuple

    first_order = False

    def __post_init__(self):
        free = frozenset((self.var,))
        for a in self.args:
            free |= a.free
        vars(self)["free"] = free


Term = Union[Var, FnApp, FnVarApp]


def const(name: str) -> FnApp:
    return FnApp(name, ())


# ---------------------------------------------------------------------------
# first/second-order formulas
#
# Terms, binders and formulas are interned, so `==` is identity.  Every
# formula node knows three facts from construction: `free`, its free object,
# predicate and function variables; `first_order`, that no predicate or
# function variable occurs in it, bound or free; and `restricted`, that a
# generalized variable occurs in it.  `__post_init__` computes them from the
# children's facts, once per distinct node, and keeps them in the instance
# `__dict__`, outside the fields (so outside `repr` and the interning key);
# leaves that cannot hold a generalized variable, and `Falsum`, keep them on
# the class.  Reading a fact is one attribute lookup at any depth, and
# building a node never walks below its children.  A node reuses a child's
# `free` set when it equals its own, and every node without free variables
# holds `_CLOSED`.


@_interned
class Falsum:
    free = _CLOSED
    first_order = True
    restricted = False


BOTTOM = Falsum()


@_interned
class Equals:
    left: Term
    right: Term

    restricted = False

    def __post_init__(self):
        l, r = self.left, self.right
        free = l.free if r.free <= l.free else r.free if l.free <= r.free else l.free | r.free
        vars(self).update(free=free, first_order=l.first_order and r.first_order)


@_interned
class Atom:
    """Predicate application. `pred` is a predicate-constant name or a
    PredVar.  A closed atom with a name is a ground atom, what substitutions
    map and Herbrand interpretations hold; `str` gives its text."""

    pred: object
    args: tuple = ()

    restricted = False

    def __str__(self) -> str:
        """The atom's `formula_to_text`."""
        name = self.pred.name if isinstance(self.pred, PredVar) else self.pred
        if not self.args:
            return name
        return f"{name}({','.join(map(term_to_text, self.args))})"

    def __post_init__(self):
        p = self.pred
        first_order = not isinstance(p, PredVar)
        free = _CLOSED if first_order else frozenset((p,))
        for a in self.args:
            free |= a.free
            first_order = first_order and a.first_order
        vars(self).update(free=free or _CLOSED, first_order=first_order)


@_interned
class Binary:
    op: str  # "&", "|" or "->"
    left: "FOFormula"
    right: "FOFormula"

    def __post_init__(self):
        l, r = self.left, self.right
        free = l.free if r.free <= l.free else r.free if l.free <= r.free else l.free | r.free
        vars(self).update(free=free, first_order=l.first_order and r.first_order,
                          restricted=l.restricted or r.restricted)


@_interned
class GenVar:
    """Generalized variable: nonempty list of (variable, restrictor) pairs
    with distinct variables."""

    items: tuple[tuple[Var, str], ...]

    def __post_init__(self):
        if len(self.items) < 1:
            raise ValueError("generalized variable needs at least one item")
        names = [v.name for v, _ in self.items]
        if len(set(names)) != len(names):
            raise ValueError("generalized variable requires distinct variables")

    def variables(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.items)


Binder = Union[Var, GenVar, PredVar, FuncVar]


@_interned
class Quant:
    kind: str  # "forall" | "exists"
    binder: Binder
    body: "FOFormula"

    def __post_init__(self):
        binder, body = self.binder, self.body
        bound = binder_variables(binder)
        free = body.free if body.free.isdisjoint(bound) else body.free - bound or _CLOSED
        vars(self).update(
            free=free,
            first_order=not isinstance(binder, (PredVar, FuncVar)) and body.first_order,
            restricted=isinstance(binder, GenVar) or body.restricted,
        )


FOFormula = Union[Falsum, Equals, Atom, Binary, Quant]

TRUTH = Binary("->", BOTTOM, BOTTOM)


def conj(left: FOFormula, right: FOFormula) -> Binary:
    return Binary("&", left, right)


def disj(left: FOFormula, right: FOFormula) -> Binary:
    return Binary("|", left, right)


def impl(left: FOFormula, right: FOFormula) -> Binary:
    return Binary("->", left, right)


def neg(f: FOFormula) -> Binary:
    return Binary("->", f, BOTTOM)


def iff(left: FOFormula, right: FOFormula) -> Binary:
    return conj(impl(left, right), impl(right, left))


def conj_all(formulas: Iterable[FOFormula]) -> FOFormula:
    """Left-associated chain; empty input yields `top`."""
    items = list(formulas)
    if not items:
        return TRUTH
    out = items[0]
    for f in items[1:]:
        out = conj(out, f)
    return out


def binder_variables(binder: Binder) -> frozenset:
    if isinstance(binder, GenVar):
        return frozenset(binder.variables())
    return frozenset((binder,))


def free_variables(f: FOFormula) -> frozenset:
    """Free object, predicate and function variables of a formula."""
    return f.free


def is_closed(f: FOFormula) -> bool:
    return not f.free


def is_first_order(f: FOFormula) -> bool:
    """True when no predicate or function variable occurs, bound or free.
    Generalized variables are allowed."""
    return f.first_order


# ---------------------------------------------------------------------------
# capture-avoiding substitution: the one walk behind every quantifier axiom

def term_subst(t: Term, mapping: Mapping) -> Term:
    """Replace the object and function variables of `t` that `mapping`
    maps (to a term and to a function variable respectively)."""
    match t:
        case Var():
            return mapping.get(t, t)
        case FnApp(fn, args):
            return FnApp(fn, tuple(term_subst(a, mapping) for a in args))
        case FnVarApp(v, args):
            return FnVarApp(mapping.get(v, v), tuple(term_subst(a, mapping) for a in args))
    raise TypeError(f"not a term: {t!r}")


def _replacement_variables(r) -> frozenset:
    """Free variables of a replacement: a term, a second-order variable, or
    an abstraction `(params, body)`."""
    if isinstance(r, (PredVar, FuncVar)):
        return frozenset((r,))
    if isinstance(r, tuple):
        params, body = r
        return body.free - frozenset(params)
    return r.free


def substitute(f: FOFormula, mapping: Mapping) -> FOFormula:
    """Simultaneously replace free variables of `f`: an object variable by a
    term, a function or predicate variable by a variable of the same kind,
    and a predicate variable `p` by an abstraction `(params, body)`, so that
    `p(ts)` becomes `body[params := ts]`.

    A binder that binds a free variable of the replacement for `v`, with `v`
    free below it, raises CaptureViolation.  A subformula in which no mapped
    variable is free is returned as it is (the same object), a test that
    reads the node's `free`, set when it was built."""
    if not mapping or f.free.isdisjoint(mapping):
        return f
    match f:
        case Equals(l, r):
            return Equals(term_subst(l, mapping), term_subst(r, mapping))
        case Atom(p, args):
            args = tuple(term_subst(a, mapping) for a in args)
            r = mapping.get(p, p)
            if isinstance(r, tuple):
                params, body = r
                return substitute(body, dict(zip(params, args)))
            return Atom(r, args)
        case Binary(op, l, r):
            return Binary(op, substitute(l, mapping), substitute(r, mapping))
        case Quant(kind, binder, body):
            bound = binder_variables(binder)
            inner = {v: r for v, r in mapping.items() if v not in bound}
            for v, r in inner.items():
                if v in body.free and (captured := bound & _replacement_variables(r)):
                    names = ", ".join(sorted(x.name for x in captured))
                    raise CaptureViolation(f"substituting for {v.name} would capture {names}")
            return Quant(kind, binder, substitute(body, inner))
    raise TypeError(f"not a formula: {f!r}")


def substitutable(f: FOFormula, v: Var, t: Term) -> bool:
    try:
        substitute(f, {v: t})
    except CaptureViolation:
        return False
    return True


# ---------------------------------------------------------------------------
# restrictor elimination

def eliminate_restrictors(f: FOFormula) -> FOFormula:
    """Unfold generalized variables into guarded plain quantifiers.  A
    formula with no generalized variable below it is returned as it is.

    Only a node whose `restricted` fact is set is walked; its unfolding is
    cached in its instance `__dict__`, next to its facts, so each such node
    is unfolded once."""
    if not f.restricted:
        return f
    out = f.__dict__.get("_unfolded")
    if out is None:
        match f:
            case Binary(op, l, r):
                out = Binary(op, eliminate_restrictors(l), eliminate_restrictors(r))
            case Quant(kind, binder, body):
                out = eliminate_restrictors(body)
                if isinstance(binder, GenVar):
                    guard = conj_all(Atom(r, (v,)) for v, r in binder.items)
                    out = impl(guard, out) if kind == "forall" else conj(guard, out)
                    for v in reversed(binder.variables()):
                        out = Quant(kind, v, out)
                else:
                    out = Quant(kind, binder, out)
        f.__dict__["_unfolded"] = out
    return out


# ---------------------------------------------------------------------------
# infinitary propositional formulas

# An instance is built of these nodes: each is made, hashed into its
# parent's set and compared with `TOP` and `BOT` about once per instance
# node.  So they spell out `record`'s `__init__`, `==` and `hash` with named
# parameters and plain attribute reads, which `record`'s closures cannot
# have; those take `*args` and read through `attrgetter`, 50-100 ns a call
# more, a few percent of `ht_atoms` and `universe` verdicts.

@record
class PAtom:
    name: str

    def __init__(self, name: str):
        _setattr(self, "name", name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.name,))


@record
class PAnd:
    items: frozenset

    def __init__(self, items: Iterable = ()):
        _setattr(self, "items", frozenset(items))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self):
        return hash((self.items,))


@record
class POr:
    items: frozenset

    def __init__(self, items: Iterable = ()):
        _setattr(self, "items", frozenset(items))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.items == other.items
        return NotImplemented

    def __hash__(self):
        return hash((self.items,))


@record
class PImp:
    left: "PropFormula"
    right: "PropFormula"

    def __init__(self, left: "PropFormula", right: "PropFormula"):
        _setattr(self, "left", left)
        _setattr(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))


PropFormula = Union[PAtom, PAnd, POr, PImp]

TOP = PAnd(())
BOT = POr(())


def pneg(f: PropFormula) -> PImp:
    return PImp(f, BOT)


def piff(left: PropFormula, right: PropFormula) -> PAnd:
    return PAnd((PImp(left, right), PImp(right, left)))


# Op codes of a program: `(ATOM, name)` or `(AND | OR | IMP, child positions)`.
# Programs `herbrand` grounds also hold `(CONST, state)`, which has that
# `semantics` state under every interpretation.
ATOM, AND, OR, IMP, CONST = range(5)


def prop_dag(f: PropFormula) -> list[tuple[int, object]]:
    """The program of `f`: one `(op, arg)` entry per distinct node (shared
    objects once) in post-order, so children come first and `f` last.
    Uses an explicit stack, so nesting depth is not limited by recursion.

    Python 3.11 runs a list comprehension as a nested function call, so the
    per-node work here, and in the folds over the result, goes through
    `map` and plain loops instead: a node's child positions are
    `map(slot.get, map(id, kids))`, and only unplaced children are pushed."""
    slot: dict[int, int] = {}
    out: list[tuple[int, object]] = []
    stack: list[PropFormula] = [f]  # a node stays until its children are placed
    while stack:
        g = stack[-1]
        if id(g) in slot:  # placed through another parent since it was pushed
            stack.pop()
            continue
        t = type(g)
        if t is PImp:
            op, kids = IMP, (g.left, g.right)
        elif t is PAnd or t is POr:
            op, kids = AND if t is PAnd else OR, g.items
        elif t is PAtom:
            op, kids = ATOM, ()
        else:
            raise TypeError(f"not a propositional formula: {g!r}")
        at = tuple(map(slot.get, map(id, kids)))
        if None in at:
            for k, s in zip(kids, at):
                if s is None:
                    stack.append(k)
            continue
        stack.pop()
        slot[id(g)] = len(out)
        out.append((op, g.name if op == ATOM else at))
    return out


def prop_stats(f: PropFormula, dag: list | None = None) -> tuple[frozenset[str], int, int, int]:
    """`prop_atoms`, `rank` and `prop_node_count` of `f`, and its size as a
    tree (each shared node counted at each occurrence, as its text spells
    it out), from one `prop_dag` pass: `dag` if the caller has it."""
    dag = dag or prop_dag(f)
    ranks: list[int] = []
    sizes: list[int] = []
    atoms: list[str] = []
    for op, arg in dag:
        if op != ATOM and arg:
            ranks.append(max(map(ranks.__getitem__, arg)) + 1)
            sizes.append(sum(map(sizes.__getitem__, arg)) + 1)
        else:
            ranks.append(0)
            sizes.append(1)
            if op == ATOM:
                atoms.append(arg)
    return frozenset(atoms), ranks[-1], len(dag), sizes[-1]


def rank(f: PropFormula) -> int:
    """Nesting rank: atoms are rank 0; a set or implication node has the
    smallest rank strictly greater than the ranks of all its children."""
    return prop_stats(f)[1]


def prop_atoms(f: PropFormula) -> frozenset[str]:
    return frozenset(arg for op, arg in prop_dag(f) if op == ATOM)


def prop_node_count(f: PropFormula) -> int:
    """Number of distinct structural nodes (shared subterms counted once)."""
    return len(prop_dag(f))


# ---------------------------------------------------------------------------
# printers (ASCII, re-parseable)

def term_to_text(t: Term) -> str:
    match t:
        case Var(name):
            return name
        case FnApp(fn, args):
            if not args:
                return fn
            return f"{fn}({','.join(term_to_text(a) for a in args)})"
        case FnVarApp(v, args):
            return f"{v.name}({','.join(term_to_text(a) for a in args)})"
    raise TypeError(f"not a term: {t!r}")


_LEVEL_IFF = 0
_LEVEL_IMP = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4


def _binder_to_text(binder: Binder) -> str:
    match binder:
        case Var(name):
            return name
        case GenVar(items):
            inner = ", ".join(f"{v.name}:{r}" for v, r in items)
            return f"({inner})"
        case PredVar(name, arity):
            return f"{name}/{arity}"
        case FuncVar(name, arity):
            return f"{name}^{arity}"
    raise TypeError(f"not a binder: {binder!r}")


def formula_to_text(f: FOFormula) -> str:
    def wrap(text: str, level: int, ctx: int) -> str:
        return f"({text})" if level < ctx else text

    def rec(g: FOFormula, ctx: int) -> str:
        if g == TRUTH:
            return "top"
        match g:
            case Falsum():
                return "bot"
            case Equals(l, r):
                return f"{term_to_text(l)} = {term_to_text(r)}"
            case Atom():
                return str(g)
            case Binary("->", Equals(l, r), Falsum()):
                return f"{term_to_text(l)} != {term_to_text(r)}"
            case Binary("->", inner, Falsum()):
                return wrap(f"not {rec(inner, _LEVEL_UNARY)}", _LEVEL_UNARY, ctx)
            case Binary("&", Binary("->", a, b), Binary("->", b2, a2)) if a == a2 and b == b2:
                text = f"{rec(a, _LEVEL_IFF)} <-> {rec(b, _LEVEL_IMP)}"
                return wrap(text, _LEVEL_IFF, ctx)
            case Binary("->", l, r):
                text = f"{rec(l, _LEVEL_IMP + 1)} -> {rec(r, _LEVEL_IMP)}"
                return wrap(text, _LEVEL_IMP, ctx)
            case Binary("|", l, r):
                text = f"{rec(l, _LEVEL_OR)} | {rec(r, _LEVEL_OR + 1)}"
                return wrap(text, _LEVEL_OR, ctx)
            case Binary("&", l, r):
                text = f"{rec(l, _LEVEL_AND)} & {rec(r, _LEVEL_AND + 1)}"
                return wrap(text, _LEVEL_AND, ctx)
            case Quant(kind, binder, body):
                text = f"{kind} {_binder_to_text(binder)} {rec(body, _LEVEL_UNARY)}"
                return wrap(text, _LEVEL_UNARY, ctx)
        raise TypeError(f"not a formula: {g!r}")

    return rec(f, _LEVEL_IFF)


def prop_to_text(f: PropFormula, dag: list | None = None) -> str:
    """The text of `f`, rendering each entry of its program (`dag` if the
    caller has it) once however often it is printed."""
    dag = dag or prop_dag(f)
    texts: list[str] = []
    for op, arg in dag:
        if op == ATOM:
            text = arg
        elif op == IMP:
            left, right = texts[arg[0]], texts[arg[1]]
            text = f"({left}) -> {right}" if dag[arg[0]][0] == IMP else f"{left} -> {right}"
        elif arg:
            head = "And{" if op == AND else "Or{"
            text = head + "; ".join(sorted(map(texts.__getitem__, arg))) + "}"
        else:
            text = "top" if op == AND else "bot"
        texts.append(text)
    return texts[-1]
