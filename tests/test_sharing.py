"""Interning of first-order nodes (one live object per value, across
parses, substitutions and schema builders), the facts each node gets when
it is built, and the walks that cache their result on each node or compute
it once per node: checked against literal recursive references and against
proofs rebuilt node by node."""

import gc
import random
import weakref
from pathlib import Path

import pytest

import gen
from hhtkit.corpus import data_path, load_text
from hhtkit.errors import CaptureViolation, ParseError, ProofError
from hhtkit.herbrand import (
    count_function_names,
    count_predicate_names,
    estimate_cost,
    hht_valid_bruteforce,
)
from hhtkit.instantiation import EXACT, herbrand_base, instantiate, universe
from hhtkit.kernel import ByAxiom, ByGen, build_axiom_instance, check_proof
from hhtkit.parser import (
    parse_formula_file,
    parse_formula_text,
    parse_proof_file,
    parse_subst_file,
)
from hhtkit.syntax import (
    BOTTOM,
    TRUTH,
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
    Signature,
    Term,
    Var,
    binder_variables,
    conj,
    conj_all,
    const,
    disj,
    eliminate_restrictors,
    formula_to_text,
    free_variables,
    impl,
    is_first_order,
    prop_to_text,
    substitute,
)

SIG = Signature.make({"a": 0, "b": 0}, {"P": 1, "Q": 2, "R": 1, "S": 1}, {"R", "S"})

PROOFS = sorted(p.name for p in Path(data_path("")).glob("*.proof"))


# --- literal references: the uncached recursive walks ----------------------

def ref_term_variables(t: Term) -> frozenset:
    match t:
        case Var():
            return frozenset((t,))
        case FnApp(_, args) | FnVarApp(_, args):
            out = frozenset((t.var,)) if isinstance(t, FnVarApp) else frozenset()
            for a in args:
                out |= ref_term_variables(a)
            return out
    raise TypeError(f"not a term: {t!r}")


def ref_term_is_first_order(t: Term) -> bool:
    match t:
        case Var():
            return True
        case FnApp(_, args):
            return all(ref_term_is_first_order(a) for a in args)
    return False


def ref_free_variables(f: FOFormula) -> frozenset:
    match f:
        case Falsum():
            return frozenset()
        case Equals(l, r):
            return ref_term_variables(l) | ref_term_variables(r)
        case Atom(p, args):
            out = frozenset((p,)) if isinstance(p, PredVar) else frozenset()
            for a in args:
                out |= ref_term_variables(a)
            return out
        case Binary(_, l, r):
            return ref_free_variables(l) | ref_free_variables(r)
        case Quant(_, binder, body):
            return ref_free_variables(body) - binder_variables(binder)
    raise TypeError(f"not a formula: {f!r}")


def ref_is_first_order(f: FOFormula) -> bool:
    match f:
        case Falsum():
            return True
        case Equals(l, r):
            return ref_term_is_first_order(l) and ref_term_is_first_order(r)
        case Atom(p, args):
            return not isinstance(p, PredVar) and all(map(ref_term_is_first_order, args))
        case Binary(_, l, r):
            return ref_is_first_order(l) and ref_is_first_order(r)
        case Quant(_, binder, body):
            if isinstance(binder, (PredVar, FuncVar)):
                return False
            return ref_is_first_order(body)
    raise TypeError(f"not a formula: {f!r}")


def ref_eliminate_restrictors(f: FOFormula) -> FOFormula:
    match f:
        case Falsum() | Equals() | Atom():
            return f
        case Binary(op, l, r):
            return Binary(op, ref_eliminate_restrictors(l), ref_eliminate_restrictors(r))
        case Quant(kind, binder, body):
            body = ref_eliminate_restrictors(body)
            if not isinstance(binder, GenVar):
                return Quant(kind, binder, body)
            guard = conj_all(Atom(r, (v,)) for v, r in binder.items)
            core = impl(guard, body) if kind == "forall" else conj(guard, body)
            for v in reversed(binder.variables()):
                core = Quant(kind, v, core)
            return core
    raise TypeError(f"not a formula: {f!r}")


def ref_estimate_cost(f: FOFormula, n: int) -> int:
    match f:
        case Falsum() | Equals() | Atom():
            return 1
        case Binary("->", l, r):
            return 2 * (ref_estimate_cost(l, n) + ref_estimate_cost(r, n)) + 1
        case Binary(_, l, r):
            return ref_estimate_cost(l, n) + ref_estimate_cost(r, n) + 1
        case Quant(_, binder, body):
            inner = ref_estimate_cost(body, n)
            if isinstance(binder, PredVar):
                return count_predicate_names(n, binder.arity) * (inner + n**binder.arity) + 1
            if isinstance(binder, FuncVar):
                return count_function_names(n, binder.arity) * (inner + n**binder.arity) + 1
            width = 1 if isinstance(binder, Var) else len(binder.items)
            return n**width * inner + 1
    raise TypeError(f"not a formula: {f!r}")


def ref_prop_to_text(f: tuple) -> str:
    """The text of the `gen` tree `f`, recursively."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind in ("and", "or"):
        if not f[1]:
            return "top" if kind == "and" else "bot"
        head = "And{" if kind == "and" else "Or{"
        return head + "; ".join(sorted(ref_prop_to_text(c) for c in f[1])) + "}"
    if kind == "imp":
        left = ref_prop_to_text(f[1])
        if f[1][0] == "imp":
            left = f"({left})"
        return f"{left} -> {ref_prop_to_text(f[2])}"
    raise TypeError(f"not a propositional tree: {f!r}")


# --- helpers -----------------------------------------------------------------

def _unshared(x):
    """`x` rebuilt node by node, each by calling its constructor again.
    Interned constructors return the live node with the same fields, so no
    unshared copy can be built: a first-order node comes back as itself."""
    if isinstance(x, tuple):
        return tuple(_unshared(y) for y in x)
    if (names := getattr(type(x), "__match_args__", None)) is not None:
        return type(x)(*[_unshared(getattr(x, name)) for name in names])
    return x


def _children(x) -> list:
    match x:
        case Binary(_, l, r) | Equals(l, r):
            return [l, r]
        case Quant(_, binder, body):
            return [binder, body]
        case Atom(p, args):
            return [*args] if isinstance(p, str) else [p, *args]
        case FnApp(_, args):
            return list(args)
        case FnVarApp(v, args):
            return [v, *args]
        case GenVar(items):
            return [v for v, _ in items]
    return []


def _nodes(roots) -> tuple[dict[int, object], int]:
    """The distinct nodes (by id) under `roots`, and how many occurrences of
    nodes there are in the trees they spell out."""
    seen: dict[int, object] = {}
    occurrences = 0
    stack = list(roots)
    while stack:
        x = stack.pop()
        occurrences += 1
        seen.setdefault(id(x), x)
        stack.extend(_children(x))
    return seen, occurrences


def _proof_roots(proof) -> list:
    """Line formulas and every node a justification carries."""
    roots = []
    for line in proof.lines:
        roots.append(line.formula)
        just = line.justification
        if isinstance(just, ByAxiom):
            for _, value in just.binding:
                if isinstance(value, tuple):
                    roots.extend(value)
                elif not isinstance(value, str):
                    roots.append(value)
        elif isinstance(just, ByGen):
            roots.append(just.v)
    return roots


def _outcome(proof):
    try:
        return "accepted", check_proof(proof)
    except ProofError as e:
        return "rejected", (type(e).__name__, e.line, e.reason)


def _formulas(seed: int, count: int, share: float) -> list[FOFormula]:
    """Random formulas, open ones among them, some made second-order (by
    an atom of a predicate variable, or by a quantifier over a function
    variable that does not occur), each also as reparsed from its text
    (equal nodes shared)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        scope = (Var("y"),) if rng.random() < 0.3 else ()
        f = gen.rand_formula(rng, SIG, depth=4, scope=scope, restrictor_share=share)
        roll = rng.random()
        if roll < 0.15:
            q = PredVar("q", 1)
            f = Quant("exists", q, Binary("|", f, Atom(q, (Var("y"),))))
        elif roll < 0.3:
            f = Binary("&", Quant("forall", FuncVar("g", 1), f), f)
        out += [f, parse_formula_text(formula_to_text(f), SIG)]
    return out


# --- interning ----------------------------------------------------------------

def test_equal_nodes_of_one_parse_are_one_object():
    proof = parse_proof_file(load_text("example6.proof"))
    distinct, occurrences = _nodes(_proof_roots(proof))
    # a node's class and fields, children by identity: the interning key
    by_fields: dict = {}
    for node in distinct.values():
        key = (type(node), *[getattr(node, name) for name in type(node).__match_args__])
        assert by_fields.setdefault(key, node) is node, node
    # the sharing is real: the text spells out far more nodes than it holds
    assert len(distinct) * 20 < occurrences


def test_two_parses_share_every_node():
    text = load_text("example6.proof")
    first, second = parse_proof_file(text), parse_proof_file(text)
    assert first is not second
    assert all(a is b for a, b in zip(_proof_roots(first), _proof_roots(second), strict=True))
    assert _nodes(_proof_roots(first))[0].keys() == _nodes(_proof_roots(second))[0].keys()


def test_constructors_return_the_live_node():
    assert Var("x") is Var("x") and const("a") is FnApp("a")
    assert Falsum() is BOTTOM and Binary("->", BOTTOM, BOTTOM) is TRUTH
    assert parse_formula_text("top", SIG) is TRUTH
    body = Atom("P", (Var("x"),))
    assert Quant("forall", GenVar(((Var("x"), "R"),)), body) is \
        Quant("forall", GenVar(((Var("x"), "R"),)), Atom("P", (Var("x"),)))
    with pytest.raises(ValueError):
        Binary("&", BOTTOM)
    with pytest.raises(ValueError):
        Var("x", "y")


def test_sharing_and_caches_leave_equality_hash_and_text_unchanged():
    f = parse_formula_text("forall (x:R) (P(x) & P(x)) -> Q(a, x) | Q(a, x)", SIG)
    assert f.left.body.left is f.left.body.right
    assert f.right.left is f.right.right
    before = hash(f), repr(f)
    eliminate_restrictors(f), is_first_order(f), free_variables(f)
    assert _unshared(f) is f and (hash(f), repr(f)) == before
    assert formula_to_text(f) == "forall (x:R) (P(x) & P(x)) -> Q(a,x) | Q(a,x)"


@pytest.mark.parametrize("name", PROOFS)
def test_axiom_instances_are_the_parsed_lines(name):
    # the schema builders and `substitute` build no copy of a line: what
    # they return is the parsed line's own object (or unfolds to it)
    proof = parse_proof_file(load_text(name))
    if _outcome(proof)[0] != "accepted":
        return
    identical = 0
    for line in proof.lines:
        just = line.justification
        if not isinstance(just, ByAxiom):
            continue
        binding = just.as_dict()
        expected = build_axiom_instance(proof.signature, just.schema_id, binding)
        assert eliminate_restrictors(expected) is eliminate_restrictors(line.formula)
        identical += expected is line.formula
        if just.schema_id == "forall-elim":
            instance = substitute(binding["F"], {binding["x"]: binding["t"]})
            assert instance is line.formula.right
    assert identical


@pytest.mark.parametrize("shape", ["and", "forall"])
def test_deep_chains_built_apart_are_one_object(shape):
    def chain():
        leaf = f = Atom("P", (Var("x"),))
        for _ in range(5000):
            f = conj(f, leaf) if shape == "and" else Quant("forall", Var("y"), f)
        return f

    assert chain() is chain()


def test_node_nobody_holds_is_freed():
    leaf = f = Atom("P", (Var("freed"),))
    for _ in range(5000):
        f = Quant("forall", Var("y"), f)
    root, bottom = weakref.ref(f), weakref.ref(leaf)
    del f, leaf
    gc.collect()
    assert root() is None and bottom() is None
    # the table keeps no dead entry in the way of a new node
    assert Atom("P", (Var("freed"),)).free == {Var("freed")}


def test_invalid_generalized_variable_raises_on_every_call():
    x = Var("x")
    for _ in range(3):
        with pytest.raises(ValueError, match="distinct"):
            GenVar(((x, "R"), (x, "S")))
        with pytest.raises(ValueError, match="at least one"):
            GenVar(())
        with pytest.raises(ParseError, match="distinct"):
            parse_formula_text("forall (x:R, x:S) P(x)", SIG)


def test_sharing_keys_tell_constructors_apart():
    # pairs that differ in one tag, str or int field only: a table key that
    # missed it would hand back the first of the pair for the second
    x, a, b = Var("x"), const("a"), const("b")
    pa, pb, px = Atom("P", (a,)), Atom("P", (b,)), Atom("P", (x,))
    f = conj_all([
        Quant("forall", x, px), Quant("exists", x, px),
        conj(pa, pb), disj(pa, pb), impl(pa, pb), impl(pb, pa),
        Equals(a, b), Equals(b, a), Atom("Q", (a, b)), Atom("Q", (b, a)),
        Quant("forall", GenVar(((x, "R"),)), px), Quant("forall", GenVar(((x, "S"),)), px),
        Quant("forall", FuncVar("g", 1), pa), Quant("forall", FuncVar("g", 2), pa),
        Quant("exists", PredVar("p", 1), pa), Quant("exists", PredVar("p", 2), pa),
    ])
    assert parse_formula_text(formula_to_text(f), SIG) == f


def test_a_ground_atom_is_one_object():
    # a substitution key, the Herbrand base atom and the countermodel's atom
    header = "const a, b.  pred P/1, Q/0."
    subst = parse_subst_file(f"{header}\nP(a) := p;  P(b) := q;  Q := r;")
    sig, f = parse_formula_file(f"{header}\nP(a) | not P(a) | Q")
    base = herbrand_base(sig, universe(sig, EXACT))
    keys = {str(k): k for k in subst.entries}
    assert [str(a) for a in base] == ["P(a)", "P(b)", "Q"]
    assert all(keys[str(a)] is a for a in base)
    counter = hht_valid_bruteforce(sig, f)
    assert all(x is y for x, y in zip(counter.atoms, base, strict=True))
    (there,) = counter.there
    assert there is keys["P(a)"] and counter.here == frozenset()
    assert there is Atom("P", (FnApp("a"),)) and str(there) == "P(a)"


# --- cached walks against the literal references -----------------------------

@pytest.mark.parametrize("share", [0.3, 0.6])
def test_cached_walks_match_references(share):
    formulas = _formulas(11, 160, share)
    for f in formulas:
        nodes = list(_nodes([f])[0].values())
        formula_nodes = [g for g in nodes if isinstance(g, (Falsum, Equals, Atom, Binary, Quant))]
        for warm in (False, True):
            # every node's facts were set when it was built; cold: the first
            # call fills the unfolding cache of every node below `f` that has
            # a generalized variable; warm: those nodes answer from it
            assert eliminate_restrictors(f) == ref_eliminate_restrictors(f)
            assert is_first_order(f) == ref_is_first_order(f)
            assert free_variables(f) == ref_free_variables(f)
            if warm:
                for g in formula_nodes:
                    assert eliminate_restrictors(g) == ref_eliminate_restrictors(g)
                    assert is_first_order(g) == ref_is_first_order(g)
                    assert free_variables(g) == ref_free_variables(g)


def _assert_facts_match_references(f: FOFormula):
    for g in _nodes([f])[0].values():
        if isinstance(g, (Var, FnApp, FnVarApp)):
            assert g.free == ref_term_variables(g), g
            assert g.first_order == ref_term_is_first_order(g), g
        if isinstance(g, (Falsum, Equals, Atom, Binary, Quant)):
            assert g.free == ref_free_variables(g), g
            assert g.first_order == ref_is_first_order(g), g
            # only a generalized variable makes the unfolding differ
            assert g.restricted == (ref_eliminate_restrictors(g) != g), g


def test_facts_of_built_nodes_match_references():
    y, z = Var("y"), Var("z")
    abstraction = ((z,), disj(Atom("P", (z,)), Quant("exists", y, Atom("Q", (z, y)))))
    mappings = [{y: const("a")}, {y: Var("x")}, {y: FnVarApp(FuncVar("g", 1), (const("b"),))}]
    checked = 0
    for f in _formulas(14, 120, 0.4):
        _assert_facts_match_references(eliminate_restrictors(f))
        extra = []
        if isinstance(f, Quant) and isinstance(f.binder, PredVar):
            # `q(y)` becomes an instance of the abstraction's body
            f, extra = f.body, [{f.binder: abstraction}]
        for mapping in [*extra, *mappings]:
            try:
                g = substitute(f, mapping)
            except CaptureViolation:
                continue
            _assert_facts_match_references(g)
            checked += g is not f
    assert checked > 50


def test_nodes_reuse_free_sets():
    x, y = Var("x"), Var("y")
    px = Atom("P", (x,))
    pxy = conj(px, Atom("Q", (x, y)))
    assert conj(px, Atom("R", (const("a"),))).free is px.free
    assert conj(Atom("R", (const("a"),)), px).free is px.free
    assert conj(px, pxy).free is pxy.free
    assert Quant("forall", y, px).free is px.free
    assert Quant("forall", x, px).free is Atom("S", (const("b"),)).free is BOTTOM.free
    assert Equals(const("a"), const("b")).free is BOTTOM.free


@pytest.mark.parametrize("shape", ["and", "forall"])
def test_facts_of_deep_formulas_need_no_recursion(shape):
    # a 5,000-deep `&` chain or `forall y` chain, built in code
    leaf = f = Atom("P", (Var("x"),))
    for _ in range(5000):
        f = conj(f, leaf) if shape == "and" else Quant("forall", Var("y"), f)
    assert free_variables(f) == {Var("x")}
    assert is_first_order(f)
    assert eliminate_restrictors(f) is f


def test_eliminate_returns_formula_without_generalized_variables_itself():
    for f in _formulas(12, 150, 0.0):
        assert eliminate_restrictors(f) is f
        assert eliminate_restrictors(f) is f
    f = parse_formula_text("P(a) & forall (x:R) P(x)", SIG)
    once = eliminate_restrictors(f)
    assert once is not f and once.left is f.left
    assert eliminate_restrictors(f) is once and eliminate_restrictors(once) is once


# --- the kernel on proofs rebuilt node by node ----------------------------------

@pytest.mark.parametrize("name", PROOFS)
def test_unshared_proof_checks_the_same(name):
    # `Proof` and `ProofLine` are not interned, so the rebuild is a new
    # proof; every formula, term and binder in it is the parsed one
    proof = parse_proof_file(load_text(name))
    copy = _unshared(proof)
    assert copy is not proof and copy == proof
    assert all(a is b for a, b in zip(_proof_roots(copy), _proof_roots(proof), strict=True))
    assert _outcome(copy) == _outcome(proof)


# --- walks that compute each shared node once --------------------------------

@pytest.mark.parametrize("share", [0.3, 0.6])
def test_estimate_cost_matches_reference(share):
    for f in _formulas(13, 120, share):
        g = eliminate_restrictors(f)
        for n in (1, 2, 3):
            assert estimate_cost(g, n) == ref_estimate_cost(g, n), f


def test_estimate_cost_of_nested_iff_is_linear():
    # each level costs 4 times its right side plus 7, a tree's count that
    # the reference takes 4^n steps to reach
    sig = Signature.make({"a": 0}, {"P": 0})
    for n in (1, 4, 8):
        f = parse_formula_text(gen.nested_iff(n), sig)
        assert estimate_cost(f, 1) == ref_estimate_cost(f, 1) == (10 * 4**n - 7) // 3
    f = parse_formula_text(gen.nested_iff(200), sig)
    assert estimate_cost(f, 1) == (10 * 4**200 - 7) // 3


def test_prop_to_text_matches_reference():
    rng = random.Random(17)
    for _ in range(300):
        f = gen.rand_prop(rng, 4)
        assert prop_to_text(gen.program(f)) == ref_prop_to_text(f)
    # instances whose nodes are shared, printed as the tree they stand for
    for f in _formulas(19, 60, 0.3):
        if not is_first_order(f) or free_variables(f):
            continue
        instance = instantiate(gen.rand_substitution(rng, SIG), f)
        assert prop_to_text(instance) == ref_prop_to_text(gen.tree(instance))
