"""Hilbert-style proof checker.

The base theory extends intuitionistic first-order logic with equality by
four groups of extra axioms: the Hosoi chain axiom, the quantifier-shift
axiom `exists x (F -> forall x F)`, decidable equality, and the freeness
axioms for constructors (distinctness, injectivity, acyclicity).  The
second-order level adds quantifier postulates for predicate and function
variables, comprehension and choice; the top level adds the domain closure
axiom.

Checking is pure structural matching: every axiom line carries an explicit
binding of the schema's metavariables, the checker rebuilds the expected
instance and compares.  There is no unification and no search.  One
capture-avoiding substitution, `syntax.substitute`, builds every
`F[x := t]`, `G[v := w]` and `G[p <= lambda xs. F]`; a capture it reports
is a side-condition violation.  Formulas
with generalized variables are admitted by eliminating them up front, so
the matching core only ever sees plain formulas.

Each axiom schema is declared once, at its builder:
`@_schema("k", _HHT, "F -> (G -> F)", _F, _G)` over `def _k(sig, F, G)`
registers `Schema("k", ...)` in `SCHEMAS`, in declaration order (see
`list_schemas`): 19 schemas at every level, 5 more from HHT2 on, and `dca`
at HHT2+DCA.  A key is a parameter of the builder, and one with a default
may be left out of a binding.  `_check_binding` refuses a value of the
wrong kind, a required key left out and an undeclared key with a
`SchemaMismatch`, and then `schema.build(sig, **binding)` builds the
instance or raises a `SideConditionViolation`, for a wrong arity too.  Both
raise at line 0, as `build_axiom_instance` reports them; `check_proof`
re-raises the same class and reason at the line the binding justifies.

Inference rules (justifications, not schemas): mp and generalization.
Generalization is one rule, `ByGen`, with four spellings in proof files:
gen-all and gen-ex bind an object variable, so-gen and so-gen-ex a
predicate or function variable; the -ex forms introduce `exists` in the
antecedent, the others `forall` in the consequent.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from enum import Enum

from .errors import (
    CaptureViolation,
    ConclusionNotClosed,
    ConclusionNotFirstOrder,
    ForwardReference,
    LevelViolation,
    MPMismatch,
    ProofError,
    SchemaMismatch,
    SideConditionViolation,
)
from .syntax import (
    BOTTOM,
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
    Var,
    conj,
    conj_all,
    disj,
    eliminate_restrictors,
    formula_to_text,
    free_variables,
    impl,
    is_closed,
    is_first_order,
    neg,
    record,
    substitute,
)


class TheoryLevel(Enum):
    HHT = "HHT"
    HHT2 = "HHT2"
    HHT2_DCA = "HHT2+DCA"

    def admits(self, other: "TheoryLevel") -> bool:
        order = [TheoryLevel.HHT, TheoryLevel.HHT2, TheoryLevel.HHT2_DCA]
        return order.index(other) <= order.index(self)


# ---------------------------------------------------------------------------
# justifications and proofs

@record
class ByAxiom:
    schema_id: str
    binding: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def of(schema_id: str, **binding) -> "ByAxiom":
        norm = {k: tuple(v) if isinstance(v, list) else v for k, v in binding.items()}
        return ByAxiom(schema_id, tuple(sorted(norm.items())))

    def as_dict(self) -> dict[str, object]:
        return dict(self.binding)


@record
class ByMP:
    i: int
    j: int  # line j must be (formula of line i) -> (current formula)


@record
class ByGen:
    """Generalize line i over v.  For kind "forall" line i is G -> F and
    the result G -> forall v F; for "exists" line i is F -> G and the
    result exists v F -> G.  Either way v must not be free in G."""

    i: int
    v: Var | PredVar | FuncVar
    kind: str  # Quant kind: "forall" | "exists"

    @property
    def keyword(self) -> str:
        return GEN_KEYWORDS[not isinstance(self.v, Var), self.kind]


# proof-file spelling of a generalization by (second-order binder, kind)
GEN_KEYWORDS = {
    (False, "forall"): "gen-all",
    (False, "exists"): "gen-ex",
    (True, "forall"): "so-gen",
    (True, "exists"): "so-gen-ex",
}

Justification = ByAxiom | ByMP | ByGen


@record
class ProofLine:
    formula: FOFormula
    justification: Justification


@record
class Proof:
    signature: Signature
    level: TheoryLevel
    lines: tuple[ProofLine, ...]


# ---------------------------------------------------------------------------
# schema table

@record
class Schema:
    schema_id: str
    min_level: TheoryLevel
    keys: tuple[tuple[str, str], ...]  # (name, kind), kind drives binding parsing
    template: str
    build: Callable[..., FOFormula]  # build(sig, **binding)


SCHEMAS: dict[str, Schema] = {}
# schema id -> the keys its builder takes with no default, in key order
_REQUIRED: dict[str, tuple[str, ...]] = {}


def _schema(schema_id: str, level: TheoryLevel, template: str, *keys: tuple[str, str]):
    """Register the decorated builder `build(sig, **binding)` as schema
    `schema_id`, whose binding keys are `keys`; a key with a default in the
    builder may be left out of a binding."""

    def declare(build):
        code = build.__code__
        params = code.co_varnames[1 : code.co_argcount]
        required = params[: len(params) - len(build.__defaults__ or ())]
        _REQUIRED[schema_id] = tuple(k for k, _ in keys if k in required)
        SCHEMAS[schema_id] = Schema(schema_id, level, keys, template, build)
        return build

    return declare


_TERM_TYPES = (Var, FnApp, FnVarApp)

# per kind of a schema key: the types its value, or each item of a list
# kind's value, must have, whether the kind is a list, and what it must be
_KINDS = {
    "formula": ((Binary, Atom, Quant, Equals, Falsum), False, "a formula"),
    "var": (Var, False, "an object variable"),
    "term": (_TERM_TYPES, False, "a term"),
    "fn": (str, False, "a function constant"),
    "sovar": ((PredVar, FuncVar), False, "a second-order variable"),
    "predvar": (PredVar, False, "a predicate variable"),
    "funcvar": (FuncVar, False, "a function variable"),
    "terms": (_TERM_TYPES, True, "a list of terms"),
    "vars": (Var, True, "a list of object variables"),
}


def _check_binding(schema: Schema, b: Mapping[str, object]) -> None:
    """Raise SchemaMismatch for the first bound value not of its key's kind, then
    for the first required key left out, then for a key `schema` does not
    declare, so that `schema.build(sig, **b)` gets exactly its parameters."""
    bound = 0
    for key, kind in schema.keys:
        if key in b:
            bound += 1
            types, listed, what = _KINDS[kind]
            value = b[key]
            if listed:
                ok = isinstance(value, (tuple, list)) and all(isinstance(v, types) for v in value)
            else:
                ok = isinstance(value, types)
            if not ok:
                raise SchemaMismatch(0, f"{key} must be {what}")
    for key in _REQUIRED[schema.schema_id]:
        if key not in b:
            raise SchemaMismatch(0, f"missing binding for {key}")
    if bound != len(b):
        names = [k for k, _ in schema.keys]
        key = next(k for k in b if k not in names)
        raise SchemaMismatch(0, f"schema {schema.schema_id} has no metavariable {key} "
                             f"(expected one of {', '.join(names)})")


def _as_vars(value, key: str) -> tuple[Var, ...]:
    vs = tuple(value)
    if len({v.name for v in vs}) != len(vs):
        raise SideConditionViolation(0, f"{key} must be distinct variables")
    return vs


def _subst_req(f: FOFormula, v, r) -> FOFormula:
    """`f[v := r]` (see `syntax.substitute`); a capture is a side condition."""
    try:
        return substitute(f, {v: r})
    except CaptureViolation as e:
        raise SideConditionViolation(0, f"term not substitutable: {e}") from None


_HHT, _HHT2, _DCA = TheoryLevel.HHT, TheoryLevel.HHT2, TheoryLevel.HHT2_DCA
_F, _G, _H = ("F", "formula"), ("G", "formula"), ("H", "formula")
_X, _T, _T1, _T2 = ("x", "var"), ("t", "term"), ("t1", "term"), ("t2", "term")
_P, _XS = ("p", "predvar"), ("xs", "vars")
_FN, _SS, _TS = ("f", "fn"), ("ss", "terms"), ("ts", "terms")


@_schema("k", _HHT, "F -> (G -> F)", _F, _G)
def _k(sig, F, G):
    return impl(F, impl(G, F))


@_schema("s", _HHT, "(F -> (G -> H)) -> ((F -> G) -> (F -> H))", _F, _G, _H)
def _s(sig, F, G, H):
    return impl(impl(F, impl(G, H)), impl(impl(F, G), impl(F, H)))


@_schema("and-elim-left", _HHT, "F & G -> F", _F, _G)
def _and_elim_left(sig, F, G):
    return impl(conj(F, G), F)


@_schema("and-elim-right", _HHT, "F & G -> G", _F, _G)
def _and_elim_right(sig, F, G):
    return impl(conj(F, G), G)


@_schema("and-intro", _HHT, "F -> (G -> F & G)", _F, _G)
def _and_intro(sig, F, G):
    return impl(F, impl(G, conj(F, G)))


@_schema("or-intro-left", _HHT, "F -> F | G", _F, _G)
def _or_intro_left(sig, F, G):
    return impl(F, disj(F, G))


@_schema("or-intro-right", _HHT, "G -> F | G", _F, _G)
def _or_intro_right(sig, F, G):
    return impl(G, disj(F, G))


@_schema("or-elim", _HHT, "(F -> H) -> ((G -> H) -> (F | G -> H))", _F, _G, _H)
def _or_elim(sig, F, G, H):
    return impl(impl(F, H), impl(impl(G, H), impl(disj(F, G), H)))


@_schema("efq", _HHT, "bot -> F", _F)
def _efq(sig, F):
    return impl(BOTTOM, F)


@_schema("forall-elim", _HHT, "forall x F -> F[x := t]", _X, _F, _T)
def _forall_elim(sig, x, F, t):
    return impl(Quant("forall", x, F), _subst_req(F, x, t))


@_schema("exists-intro", _HHT, "F[x := t] -> exists x F", _X, _F, _T)
def _exists_intro(sig, x, F, t):
    return impl(_subst_req(F, x, t), Quant("exists", x, F))


@_schema("eq-refl", _HHT, "t = t", _T)
def _eq_refl(sig, t):
    return Equals(t, t)


@_schema("eq-subst", _HHT, "t1 = t2 -> (F[x := t1] -> F[x := t2])", _T1, _T2, _X, _F)
def _eq_subst(sig, t1, t2, x, F):
    return impl(Equals(t1, t2), impl(_subst_req(F, x, t1), _subst_req(F, x, t2)))


@_schema("hosoi", _HHT, "F | (F -> G) | not G", _F, _G)
def _hosoi(sig, F, G):
    return disj(disj(F, impl(F, G)), neg(G))


@_schema("sqht", _HHT, "exists x (F -> forall x F)", _X, _F)
def _sqht(sig, x, F):
    return Quant("exists", x, impl(F, Quant("forall", x, F)))


@_schema("dec-eq", _HHT, "t1 = t2 | t1 != t2", _T1, _T2)
def _dec_eq(sig, t1=Var("x"), t2=Var("y")):
    return disj(Equals(t1, t2), neg(Equals(t1, t2)))


def _fn_args(sig, name: str, args, key_args: str, default_prefix: str):
    arity = sig.function_arity(name)
    if arity is None:
        raise SideConditionViolation(0, f"unknown function constant {name}")
    if args is None:
        args = tuple(Var(f"{default_prefix}{i}") for i in range(1, arity + 1))
    else:
        args = tuple(args)
    if len(args) != arity:
        noun = "term" if arity == 1 else "terms"
        raise SideConditionViolation(0, f"{key_args} must have {arity} {noun} for {name}")
    return args


@_schema("cet-distinct", _HHT, "f(s1,...,sn) != g(t1,...,tm)   (f, g distinct)",
         _FN, ("g", "fn"), _SS, _TS)
def _cet_distinct(sig, f, g, ss=None, ts=None):
    ss = _fn_args(sig, f, ss, "ss", "x")
    ts = _fn_args(sig, g, ts, "ts", "y")
    if f == g:
        raise SideConditionViolation(0, "function constants must be distinct")
    return neg(Equals(FnApp(f, ss), FnApp(g, ts)))


@_schema("cet-inject", _HHT,
         "f(s1,...,sn) = f(t1,...,tn) -> s1 = t1 & ... & sn = tn   (n > 0)", _FN, _SS, _TS)
def _cet_inject(sig, f, ss=None, ts=None):
    ss = _fn_args(sig, f, ss, "ss", "x")
    ts = _fn_args(sig, f, ts, "ts", "y")
    if not ss:
        raise SideConditionViolation(0, "injectivity requires arity greater than 0")
    eqs = [Equals(s, t) for s, t in zip(ss, ts)]
    return impl(Equals(FnApp(f, ss), FnApp(f, ts)), conj_all(eqs))


@_schema("cet-acyclic", _HHT, "t != x   (t contains x, t differs from x)", _T, _X)
def _cet_acyclic(sig, t, x):
    if t == x:
        raise SideConditionViolation(0, "term must be different from the variable")
    if x not in t.free:
        raise SideConditionViolation(0, "term must contain the variable")
    # only constructor terms keep the variable as a structural subterm after
    # evaluation; a function variable could map it anywhere, so the
    # acyclicity axiom is unsound for terms containing one
    if not t.first_order:
        raise SideConditionViolation(0, "term must be built from signature constructors only")
    return neg(Equals(t, x))


def _so_instance(v, G, w) -> FOFormula:
    """`G[v := w]` for a second-order variable `w` of the same kind and
    arity as `v`."""
    if type(v) is not type(w) or v.arity != w.arity:
        raise SideConditionViolation(
            0, "second-order variables must have the same kind and arity")
    return _subst_req(G, v, w)


_SOVARS = (("v", "sovar"), _G, ("w", "sovar"))


@_schema("so-forall-elim", _HHT2, "forall v G -> G[v := w]", *_SOVARS)
def _so_forall_elim(sig, v, G, w):
    return impl(Quant("forall", v, G), _so_instance(v, G, w))


@_schema("so-exists-intro", _HHT2, "G[v := w] -> exists v G", *_SOVARS)
def _so_exists_intro(sig, v, G, w):
    return impl(_so_instance(v, G, w), Quant("exists", v, G))


@_schema("so-forall-elim-abs", _HHT2, "forall p G -> G[p <= lambda x1...xn. F]", _P, _G, _XS, _F)
def _so_forall_elim_abs(sig, p, G, xs, F):
    xs = _as_vars(xs, "xs")
    if len(xs) != p.arity:
        raise SideConditionViolation(0, "xs must match the arity of p")
    return impl(Quant("forall", p, G), _subst_req(G, p, (xs, F)))


@_schema("comprehension", _HHT2,
         "exists p forall x1...xn (p(x1,...,xn) <-> F)   (p not free in F)", _P, _XS, _F)
def _comprehension(sig, p, F, xs=()):
    xs = _as_vars(xs, "xs")
    if len(xs) != p.arity:
        raise SideConditionViolation(0, "xs must match the arity of p")
    if p in free_variables(F):
        raise SideConditionViolation(0, f"{p.name}/{p.arity} must not be free in F")
    atom = Atom(p, xs)
    body = conj(impl(atom, F), impl(F, atom))
    for x in reversed(xs):
        body = Quant("forall", x, body)
    return Quant("exists", p, body)


@_schema("choice", _HHT2, "forall x1...xn exists y p(x1,...,xn,y) -> "
         "exists f forall x1...xn p(x1,...,xn,f(x1,...,xn))   (n > 0)",
         _P, ("f", "funcvar"), _XS)
def _choice(sig, p, f, xs):
    xs = _as_vars(xs, "xs")
    n = len(xs) - 1
    if n < 1:
        raise SideConditionViolation(0, "choice requires n > 0")
    if p.arity != n + 1 or f.arity != n:
        raise SideConditionViolation(0, "arities must be n+1 for p and n for f")
    front, last = xs[:-1], xs[-1]
    ant = Quant("exists", last, Atom(p, xs))
    for x in reversed(front):
        ant = Quant("forall", x, ant)
    cons = Atom(p, front + (FnVarApp(f, front),))
    for x in reversed(front):
        cons = Quant("forall", x, cons)
    cons = Quant("exists", f, cons)
    return impl(ant, cons)


def _closed_under(fname: str, arity: int, p: PredVar, x: Var) -> FOFormula:
    if arity == 0:
        return Atom(p, (FnApp(fname, ()),))
    vs = (x,) if arity == 1 else tuple(Var(f"{x.name}{i}") for i in range(1, arity + 1))
    ant = conj_all(Atom(p, (v,)) for v in vs)
    core = impl(ant, Atom(p, (FnApp(fname, vs),)))
    for v in reversed(vs):
        core = Quant("forall", v, core)
    return core


@_schema("dca", _DCA, "forall p (closure under every function constant -> forall x p(x))",
         _P, _X)
def _dca(sig, p=PredVar("p", 1), x=Var("x")):
    if p.arity != 1:
        raise SideConditionViolation(0, "p must be a unary predicate variable")
    closure = conj_all(_closed_under(name, arity, p, x) for name, arity in sig.functions)
    return Quant("forall", p, impl(closure, Quant("forall", x, Atom(p, (x,)))))


def list_schemas(level: TheoryLevel) -> tuple[Schema, ...]:
    """Axiom schemas available at the given level, in table order."""
    return tuple(s for s in SCHEMAS.values() if level.admits(s.min_level))


def build_axiom_instance(
    sig: Signature, schema_id: str, binding: Mapping[str, object]
) -> FOFormula:
    """Construct the schema instance for an explicit binding.  Raises
    SchemaMismatch for unknown schemas or malformed bindings and
    SideConditionViolation for violated side conditions (line 0, since no
    proof line is involved)."""
    schema = SCHEMAS.get(schema_id)
    if schema is None:
        raise SchemaMismatch(0, f"unknown schema '{schema_id}'")
    _check_binding(schema, binding)
    return schema.build(sig, **binding)


# ---------------------------------------------------------------------------
# checking

def check_proof(proof: Proof) -> FOFormula:
    """Verify every line; return the conclusion (the final line's formula,
    with any generalized variables intact).

    Lines are checked on their restrictor-eliminated forms.  At level HHT
    every line must be first-order.
    """
    if not proof.lines:
        raise ProofError(0, "empty proof")
    sig, level = proof.signature, proof.level
    elim = [eliminate_restrictors(line.formula) for line in proof.lines]

    def ref(n: int, idx: int) -> FOFormula:
        if not 1 <= idx < n:
            raise ForwardReference(n, f"reference to line {idx} is not an earlier line")
        return elim[idx - 1]

    for n, line in enumerate(proof.lines, 1):
        f = elim[n - 1]
        if level == TheoryLevel.HHT and not is_first_order(f):
            raise LevelViolation(n, "second-order formulas need level HHT2 or HHT2+DCA")
        just = line.justification
        if isinstance(just, ByAxiom):
            schema = SCHEMAS.get(just.schema_id)
            if schema is None:
                raise SchemaMismatch(n, f"unknown schema '{just.schema_id}'")
            if not level.admits(schema.min_level):
                raise LevelViolation(
                    n,
                    f"schema {schema.schema_id} needs level {schema.min_level.value}",
                )
            binding = just.as_dict()
            try:
                _check_binding(schema, binding)
                expected = schema.build(sig, **binding)
            except (SchemaMismatch, SideConditionViolation) as e:
                raise type(e)(n, e.reason) from None
            # interned: equal is identical, so an equal line unfolds to `f`
            if eliminate_restrictors(expected) is not f:
                raise SchemaMismatch(
                    n,
                    f"schema {schema.schema_id} with this binding yields "
                    f"{formula_to_text(expected)}",
                )
        elif isinstance(just, ByMP):
            ant = ref(n, just.i)
            imp_f = ref(n, just.j)
            if imp_f != Binary("->", ant, f):
                raise MPMismatch(
                    n,
                    f"line {just.j} is not (line {just.i} -> this line)",
                )
        elif isinstance(just, ByGen):
            v = just.v
            if not isinstance(v, Var) and not level.admits(TheoryLevel.HHT2):
                raise LevelViolation(n, "second-order rules need level HHT2 or HHT2+DCA")
            prem = ref(n, just.i)
            if not (isinstance(prem, Binary) and prem.op == "->"):
                raise SchemaMismatch(n, f"line {just.i} is not an implication")
            if just.kind == "forall":
                g, body = prem.left, prem.right
                expected = impl(g, Quant(just.kind, v, body))
            else:
                body, g = prem.left, prem.right
                expected = impl(Quant(just.kind, v, body), g)
            if f != expected:
                raise SchemaMismatch(n, f"expected {formula_to_text(expected)}")
            if v in free_variables(g):
                raise SideConditionViolation(
                    n, f"{v.name} must not be free in {formula_to_text(g)}"
                )
        else:
            raise ProofError(n, f"unknown justification {just!r}")
    return proof.lines[-1].formula


def conclusion_for_pipeline(proof: Proof) -> FOFormula:
    """Conclusion of an already-checked proof, required to be closed and
    first-order (generalized variables allowed)."""
    c = proof.lines[-1].formula
    if not is_first_order(c):
        raise ConclusionNotFirstOrder(formula_to_text(c))
    if not is_closed(c):
        raise ConclusionNotClosed(formula_to_text(c))
    return c
