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

Axiom schema inventory (see `list_schemas`):

  all levels   k s and-elim-left and-elim-right and-intro or-intro-left
               or-intro-right or-elim efq forall-elim exists-intro eq-refl
               eq-subst hosoi sqht dec-eq cet-distinct cet-inject
               cet-acyclic
  HHT2         so-forall-elim so-exists-intro so-forall-elim-abs
               comprehension choice
  HHT2+DCA     dca

Inference rules (justifications, not schemas): mp and generalization.
Generalization is one rule, `ByGen`, with four spellings in proof files:
gen-all and gen-ex bind an object variable, so-gen and so-gen-ex a
predicate or function variable; the -ex forms introduce `exists` in the
antecedent, the others `forall` in the consequent.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Mapping

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
    FnApp,
    FnVarApp,
    FOFormula,
    FuncVar,
    PredVar,
    Quant,
    Signature,
    Term,
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
#
# Each proof line builds a `ProofLine` and its `ByAxiom` or `ByMP`, so these
# three spell out `record`'s `__init__`, `==` and `hash`, as the
# propositional nodes in `syntax` do: named parameters and plain attribute
# reads, where `record`'s closures take `*args` and read through
# `attrgetter`.

_setattr = object.__setattr__


@record
class ByAxiom:
    schema_id: str
    binding: tuple[tuple[str, object], ...] = ()

    def __init__(self, schema_id: str, binding: tuple[tuple[str, object], ...] = ()):
        _setattr(self, "schema_id", schema_id)
        _setattr(self, "binding", binding)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.schema_id, self.binding) == (other.schema_id, other.binding)
        return NotImplemented

    def __hash__(self):
        return hash((self.schema_id, self.binding))

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

    def __init__(self, i: int, j: int):
        _setattr(self, "i", i)
        _setattr(self, "j", j)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.j) == (other.i, other.j)
        return NotImplemented

    def __hash__(self):
        return hash((self.i, self.j))


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

    def __init__(self, formula: FOFormula, justification: Justification):
        _setattr(self, "formula", formula)
        _setattr(self, "justification", justification)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.formula, self.justification)
                    == (other.formula, other.justification))
        return NotImplemented

    def __hash__(self):
        return hash((self.formula, self.justification))


@record
class Proof:
    signature: Signature
    level: TheoryLevel
    lines: tuple[ProofLine, ...]


# ---------------------------------------------------------------------------
# schema table

class _SideCondition(Exception):
    pass


class _Mismatch(Exception):
    pass


@record
class Schema:
    schema_id: str
    min_level: TheoryLevel
    keys: tuple[tuple[str, str], ...]  # (name, kind), kind drives binding parsing
    template: str
    build: Callable[[Signature, Mapping[str, object]], FOFormula]


def _need(b: Mapping[str, object], key: str):
    if key not in b:
        raise _Mismatch(f"missing binding for {key}")
    return b[key]


_TERM_TYPES = (Var, FnApp, FnVarApp)


def _need_var(b: Mapping[str, object], key: str) -> Var:
    v = _need(b, key)
    if not isinstance(v, Var):
        raise _Mismatch(f"{key} must be an object variable")
    return v


def _need_term(b: Mapping[str, object], key: str) -> Term:
    t = _need(b, key)
    if not isinstance(t, _TERM_TYPES):
        raise _Mismatch(f"{key} must be a term")
    return t


def _as_vars(value, key: str) -> tuple[Var, ...]:
    vs = tuple(value)
    if not all(isinstance(v, Var) for v in vs):
        raise _Mismatch(f"{key} must be a list of object variables")
    if len({v.name for v in vs}) != len(vs):
        raise _SideCondition(f"{key} must be distinct variables")
    return vs


def _subst_req(f: FOFormula, v, r) -> FOFormula:
    """`f[v := r]` (see `syntax.substitute`); a capture is a side condition."""
    try:
        return substitute(f, {v: r})
    except CaptureViolation as e:
        raise _SideCondition(f"term not substitutable: {e}") from None


def _build_k(sig, b):
    f, g = _need(b, "F"), _need(b, "G")
    return impl(f, impl(g, f))


def _build_s(sig, b):
    f, g, h = _need(b, "F"), _need(b, "G"), _need(b, "H")
    return impl(impl(f, impl(g, h)), impl(impl(f, g), impl(f, h)))


def _build_and_elim_left(sig, b):
    f, g = _need(b, "F"), _need(b, "G")
    return impl(conj(f, g), f)


def _build_and_elim_right(sig, b):
    f, g = _need(b, "F"), _need(b, "G")
    return impl(conj(f, g), g)


def _build_and_intro(sig, b):
    f, g = _need(b, "F"), _need(b, "G")
    return impl(f, impl(g, conj(f, g)))


def _build_or_intro_left(sig, b):
    f, g = _need(b, "F"), _need(b, "G")
    return impl(f, disj(f, g))


def _build_or_intro_right(sig, b):
    f, g = _need(b, "F"), _need(b, "G")
    return impl(g, disj(f, g))


def _build_or_elim(sig, b):
    f, g, h = _need(b, "F"), _need(b, "G"), _need(b, "H")
    return impl(impl(f, h), impl(impl(g, h), impl(disj(f, g), h)))


def _build_efq(sig, b):
    return impl(BOTTOM, _need(b, "F"))


def _build_forall_elim(sig, b):
    x, f, t = _need_var(b, "x"), _need(b, "F"), _need_term(b, "t")
    return impl(Quant("forall", x, f), _subst_req(f, x, t))


def _build_exists_intro(sig, b):
    x, f, t = _need_var(b, "x"), _need(b, "F"), _need_term(b, "t")
    return impl(_subst_req(f, x, t), Quant("exists", x, f))


def _build_eq_refl(sig, b):
    t = _need_term(b, "t")
    return Equals(t, t)


def _build_eq_subst(sig, b):
    t1, t2 = _need_term(b, "t1"), _need_term(b, "t2")
    x, f = _need_var(b, "x"), _need(b, "F")
    return impl(Equals(t1, t2), impl(_subst_req(f, x, t1), _subst_req(f, x, t2)))


def _build_hosoi(sig, b):
    f, g = _need(b, "F"), _need(b, "G")
    return disj(disj(f, impl(f, g)), neg(g))


def _build_sqht(sig, b):
    x, f = _need_var(b, "x"), _need(b, "F")
    return Quant("exists", x, impl(f, Quant("forall", x, f)))


def _build_dec_eq(sig, b):
    t1 = b.get("t1", Var("x"))
    t2 = b.get("t2", Var("y"))
    return disj(Equals(t1, t2), neg(Equals(t1, t2)))


def _fn_args(sig, b, key_fn: str, key_args: str, default_prefix: str):
    name = _need(b, key_fn)
    arity = sig.function_arity(name)
    if arity is None:
        raise _SideCondition(f"unknown function constant {name}")
    args = b.get(key_args)
    if args is None:
        args = tuple(Var(f"{default_prefix}{i}") for i in range(1, arity + 1))
    else:
        args = tuple(args)
    if len(args) != arity:
        raise _Mismatch(f"{key_args} must have {arity} terms for {name}")
    return name, args


def _build_cet_distinct(sig, b):
    f, ss = _fn_args(sig, b, "f", "ss", "x")
    g, ts = _fn_args(sig, b, "g", "ts", "y")
    if f == g:
        raise _SideCondition("function constants must be distinct")
    return neg(Equals(FnApp(f, ss), FnApp(g, ts)))


def _build_cet_inject(sig, b):
    f, ss = _fn_args(sig, b, "f", "ss", "x")
    _, ts = _fn_args(sig, b, "f", "ts", "y")
    if not ss:
        raise _SideCondition("injectivity requires arity greater than 0")
    eqs = [Equals(s, t) for s, t in zip(ss, ts)]
    return impl(Equals(FnApp(f, ss), FnApp(f, ts)), conj_all(eqs))


def _build_cet_acyclic(sig, b):
    t, x = _need_term(b, "t"), _need_var(b, "x")
    if t == x:
        raise _SideCondition("term must be different from the variable")
    if x not in t.free:
        raise _SideCondition("term must contain the variable")
    # only constructor terms keep the variable as a structural subterm after
    # evaluation; a function variable could map it anywhere, so the
    # acyclicity axiom is unsound for terms containing one
    if not t.first_order:
        raise _SideCondition("term must be built from signature constructors only")
    return neg(Equals(t, x))


def _need_sovars(b: Mapping[str, object]):
    """`v`, `G` and `G[v := w]` for a second-order variable `w` of the same
    kind and arity as `v`."""
    v, g, w = _need(b, "v"), _need(b, "G"), _need(b, "w")
    if type(v) is not type(w) or v.arity != w.arity:
        raise _SideCondition("second-order variables must have the same kind and arity")
    return v, g, _subst_req(g, v, w)


def _build_so_forall_elim(sig, b):
    v, g, inst = _need_sovars(b)
    return impl(Quant("forall", v, g), inst)


def _build_so_exists_intro(sig, b):
    v, g, inst = _need_sovars(b)
    return impl(inst, Quant("exists", v, g))


def _build_so_forall_elim_abs(sig, b):
    p, g, f = _need(b, "p"), _need(b, "G"), _need(b, "F")
    xs = _as_vars(_need(b, "xs"), "xs")
    if not isinstance(p, PredVar):
        raise _Mismatch("p must be a predicate variable")
    if len(xs) != p.arity:
        raise _SideCondition("xs must match the arity of p")
    return impl(Quant("forall", p, g), _subst_req(g, p, (xs, f)))


def _build_comprehension(sig, b):
    p, f = _need(b, "p"), _need(b, "F")
    xs = _as_vars(b.get("xs", ()), "xs")
    if not isinstance(p, PredVar):
        raise _Mismatch("p must be a predicate variable")
    if len(xs) != p.arity:
        raise _SideCondition("xs must match the arity of p")
    if p in free_variables(f):
        raise _SideCondition(f"{p.name}/{p.arity} must not be free in F")
    atom = Atom(p, xs)
    body = conj(impl(atom, f), impl(f, atom))
    for x in reversed(xs):
        body = Quant("forall", x, body)
    return Quant("exists", p, body)


def _build_choice(sig, b):
    p, fv = _need(b, "p"), _need(b, "f")
    xs = _as_vars(_need(b, "xs"), "xs")
    if not isinstance(p, PredVar) or not isinstance(fv, FuncVar):
        raise _Mismatch("p must be a predicate variable and f a function variable")
    n = len(xs) - 1
    if n < 1:
        raise _SideCondition("choice requires n > 0")
    if p.arity != n + 1 or fv.arity != n:
        raise _SideCondition("arities must be n+1 for p and n for f")
    front, last = xs[:-1], xs[-1]
    ant = Quant("exists", last, Atom(p, xs))
    for x in reversed(front):
        ant = Quant("forall", x, ant)
    cons = Atom(p, front + (FnVarApp(fv, front),))
    for x in reversed(front):
        cons = Quant("forall", x, cons)
    cons = Quant("exists", fv, cons)
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


def _build_dca(sig, b):
    p = b.get("p", PredVar("p", 1))
    x = b.get("x", Var("x"))
    if not isinstance(p, PredVar) or p.arity != 1:
        raise _Mismatch("p must be a unary predicate variable")
    if not isinstance(x, Var):
        raise _Mismatch("x must be an object variable")
    closure = conj_all(
        _closed_under(name, arity, p, x) for name, arity in sig.functions
    )
    return Quant("forall", p, impl(closure, Quant("forall", x, Atom(p, (x,)))))


def _schemas() -> tuple[Schema, ...]:
    L0, L2, L3 = TheoryLevel.HHT, TheoryLevel.HHT2, TheoryLevel.HHT2_DCA
    FG = (("F", "formula"), ("G", "formula"))
    FGH = FG + (("H", "formula"),)
    return (
        Schema("k", L0, FG, "F -> (G -> F)", _build_k),
        Schema("s", L0, FGH, "(F -> (G -> H)) -> ((F -> G) -> (F -> H))", _build_s),
        Schema("and-elim-left", L0, FG, "F & G -> F", _build_and_elim_left),
        Schema("and-elim-right", L0, FG, "F & G -> G", _build_and_elim_right),
        Schema("and-intro", L0, FG, "F -> (G -> F & G)", _build_and_intro),
        Schema("or-intro-left", L0, FG, "F -> F | G", _build_or_intro_left),
        Schema("or-intro-right", L0, FG, "G -> F | G", _build_or_intro_right),
        Schema("or-elim", L0, FGH, "(F -> H) -> ((G -> H) -> (F | G -> H))", _build_or_elim),
        Schema("efq", L0, (("F", "formula"),), "bot -> F", _build_efq),
        Schema(
            "forall-elim",
            L0,
            (("x", "var"), ("F", "formula"), ("t", "term")),
            "forall x F -> F[x := t]",
            _build_forall_elim,
        ),
        Schema(
            "exists-intro",
            L0,
            (("x", "var"), ("F", "formula"), ("t", "term")),
            "F[x := t] -> exists x F",
            _build_exists_intro,
        ),
        Schema("eq-refl", L0, (("t", "term"),), "t = t", _build_eq_refl),
        Schema(
            "eq-subst",
            L0,
            (("t1", "term"), ("t2", "term"), ("x", "var"), ("F", "formula")),
            "t1 = t2 -> (F[x := t1] -> F[x := t2])",
            _build_eq_subst,
        ),
        Schema("hosoi", L0, FG, "F | (F -> G) | not G", _build_hosoi),
        Schema(
            "sqht",
            L0,
            (("x", "var"), ("F", "formula")),
            "exists x (F -> forall x F)",
            _build_sqht,
        ),
        Schema(
            "dec-eq",
            L0,
            (("t1", "term"), ("t2", "term")),
            "t1 = t2 | t1 != t2",
            _build_dec_eq,
        ),
        Schema(
            "cet-distinct",
            L0,
            (("f", "fn"), ("g", "fn"), ("ss", "terms"), ("ts", "terms")),
            "f(s1,...,sn) != g(t1,...,tm)   (f, g distinct)",
            _build_cet_distinct,
        ),
        Schema(
            "cet-inject",
            L0,
            (("f", "fn"), ("ss", "terms"), ("ts", "terms")),
            "f(s1,...,sn) = f(t1,...,tn) -> s1 = t1 & ... & sn = tn   (n > 0)",
            _build_cet_inject,
        ),
        Schema(
            "cet-acyclic",
            L0,
            (("t", "term"), ("x", "var")),
            "t != x   (t contains x, t differs from x)",
            _build_cet_acyclic,
        ),
        Schema(
            "so-forall-elim",
            L2,
            (("v", "sovar"), ("G", "formula"), ("w", "sovar")),
            "forall v G -> G[v := w]",
            _build_so_forall_elim,
        ),
        Schema(
            "so-exists-intro",
            L2,
            (("v", "sovar"), ("G", "formula"), ("w", "sovar")),
            "G[v := w] -> exists v G",
            _build_so_exists_intro,
        ),
        Schema(
            "so-forall-elim-abs",
            L2,
            (("p", "predvar"), ("G", "formula"), ("xs", "vars"), ("F", "formula")),
            "forall p G -> G[p <= lambda x1...xn. F]",
            _build_so_forall_elim_abs,
        ),
        Schema(
            "comprehension",
            L2,
            (("p", "predvar"), ("xs", "vars"), ("F", "formula")),
            "exists p forall x1...xn (p(x1,...,xn) <-> F)   (p not free in F)",
            _build_comprehension,
        ),
        Schema(
            "choice",
            L2,
            (("p", "predvar"), ("f", "funcvar"), ("xs", "vars")),
            "forall x1...xn exists y p(x1,...,xn,y) -> "
            "exists f forall x1...xn p(x1,...,xn,f(x1,...,xn))   (n > 0)",
            _build_choice,
        ),
        Schema(
            "dca",
            L3,
            (("p", "predvar"), ("x", "var")),
            "forall p (closure under every function constant -> forall x p(x))",
            _build_dca,
        ),
    )


SCHEMAS: dict[str, Schema] = {s.schema_id: s for s in _schemas()}


def list_schemas(level: TheoryLevel) -> tuple[Schema, ...]:
    """Axiom schemas available at the given level, in table order."""
    return tuple(s for s in SCHEMAS.values() if level.admits(s.min_level))


def _build_error(e: _SideCondition | _Mismatch, line: int) -> ProofError:
    """The error a schema build that raised `e` is reported as, at `line`."""
    if isinstance(e, _SideCondition):
        return SideConditionViolation(line, str(e))
    return SchemaMismatch(line, str(e))


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
    try:
        return schema.build(sig, binding)
    except (_SideCondition, _Mismatch) as e:
        raise _build_error(e, 0) from None


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
            try:
                expected = schema.build(sig, just.as_dict())
            except (_SideCondition, _Mismatch) as e:
                raise _build_error(e, n) from None
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
