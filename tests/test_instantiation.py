import itertools
import random

import pytest

import gen
from gen import atom, conj, disj, imp, program
from hhtkit.errors import (
    STEP_CAP,
    InfiniteUniverse,
    NotClosed,
    NotFirstOrder,
    SubstitutionError,
    UnmappedAtom,
)
from hhtkit.instantiation import (
    EXACT,
    Bounded,
    Substitution,
    count_universe,
    ground_terms,
    herbrand_base,
    instantiate,
    universe,
)
from hhtkit.parser import parse_formula_text, parse_subst_file
from hhtkit.semantics import World, satisfies
from hhtkit.syntax import (
    AND,
    ATOM,
    OR,
    Atom,
    Binary,
    Equals,
    Falsum,
    FnApp,
    GenVar,
    PredVar,
    Quant,
    Signature,
    Var,
    const,
    eliminate_restrictors,
    prop_atoms,
    prop_node_count,
    prop_stats,
    prop_to_text,
    rank,
    substitute,
    term_to_text,
)

SIG2 = Signature.make({"c1": 0, "c2": 0}, {"P": 1, "Q": 0})
SIG2R = Signature.make({"c1": 0, "c2": 0, "c3": 0}, {"P": 1, "R": 1}, {"R"})


def instance(subst, f, mode=EXACT):
    """The tree of the instance of `f`."""
    return gen.tree(instantiate(subst, f, mode))


def unmapped(subst, f, mode=EXACT):
    """The atoms `instantiate` reports missing, sorted; () if it returns."""
    try:
        instantiate(subst, f, mode)
    except UnmappedAtom as e:
        return e.missing
    return ()


def subst_p(sig, q=False):
    entries = {
        Atom("P", (const(c),)): atom(f"f_{c}") for c in sig.object_constants()
    }
    if q:
        entries[Atom("Q", ())] = atom("g")
    return gen.tree_subst(sig, entries)


def test_lookup_entry_default_missing():
    s = parse_subst_file(
        "const a, b. pred P/1. restrictor R/1.\nP(a) := u; default R := bot;"
    )
    # a position in the substitution's program
    assert s.program[s.lookup(Atom("P", (const("a"),)))] == (ATOM, "u")
    assert s.program[s.lookup(Atom("R", (const("b"),)))] == (OR, ())
    with pytest.raises(UnmappedAtom):
        s.lookup(Atom("P", (const("b"),)))


def test_instance_of_distribution_equivalence():
    s = subst_p(SIG2, q=True)
    f = parse_formula_text("exists x P(x) & Q <-> exists x (P(x) & Q)", SIG2)
    got = instance(s, f)
    family = disj((atom("f_c1"), atom("f_c2")))
    lhs = conj((family, atom("g")))
    rhs = disj((conj((atom("f_c1"), atom("g"))), conj((atom("f_c2"), atom("g")))))
    assert got == conj((imp(lhs, rhs), imp(rhs, lhs)))


def test_equality_clauses():
    s = subst_p(SIG2)
    assert instance(s, parse_formula_text("c1 = c1", SIG2)) == gen.TOP
    assert instance(s, parse_formula_text("c1 = c2", SIG2)) == gen.BOT


def test_restricted_forall_carves_index_set():
    entries = {
        Atom("P", (const(c),)): atom(f"f_{c}")
        for c in ("c1", "c2", "c3")
    }
    entries[Atom("R", (const("c1"),))] = gen.BOT
    entries[Atom("R", (const("c2"),))] = gen.TOP
    entries[Atom("R", (const("c3"),))] = gen.TOP
    s = gen.tree_subst(SIG2R, entries)
    f = parse_formula_text("forall x P(x) -> forall (x:R) P(x)", SIG2R)
    got = instance(s, f)
    assert got == imp(
        conj((atom("f_c1"), atom("f_c2"), atom("f_c3"))),
        conj((atom("f_c2"), atom("f_c3"))),
    )


def test_restricted_pair_distributes_over_product():
    sig = Signature.make(
        {"a1": 0, "a2": 0, "b1": 0},
        {"P": 1, "Q": 1, "R1": 1, "R2": 1},
        {"R1", "R2"},
    )
    entries = {}
    for c in sig.object_constants():
        entries[Atom("P", (const(c),))] = atom(f"f_{c}")
        entries[Atom("Q", (const(c),))] = atom(f"g_{c}")
        entries[Atom("R1", (const(c),))] = gen.TOP if c.startswith("a") else gen.BOT
        entries[Atom("R2", (const(c),))] = gen.TOP if c.startswith("b") else gen.BOT
    s = gen.tree_subst(sig, entries)
    f = parse_formula_text(
        "exists (x:R1) P(x) & exists (y:R2) Q(y) <-> exists (x:R1, y:R2) (P(x) & Q(y))",
        sig,
    )
    got = instance(s, f)
    lhs = conj((disj((atom("f_a1"), atom("f_a2"))), disj((atom("g_b1"),))))
    rhs = disj((
        conj((atom("f_a1"), atom("g_b1"))),
        conj((atom("f_a2"), atom("g_b1"))),
    ))
    assert got == conj((imp(lhs, rhs), imp(rhs, lhs)))


def test_empty_restricted_sets_give_units():
    entries = {Atom("P", (const(c),)): atom("u") for c in ("c1", "c2", "c3")}
    for c in ("c1", "c2", "c3"):
        entries[Atom("R", (const(c),))] = gen.BOT
    s = gen.tree_subst(SIG2R, entries)
    assert instance(s, parse_formula_text("forall (x:R) P(x)", SIG2R)) == gen.TOP
    assert instance(s, parse_formula_text("exists (x:R) P(x)", SIG2R)) == gen.BOT
    # two variables: an empty outer and an empty innermost domain
    sig = Signature.make({"c1": 0, "c2": 0}, {"P": 1, "R": 1, "T": 1}, {"R", "T"})
    entries = {Atom("P", (const(c),)): atom(f"f_{c}") for c in ("c1", "c2")}
    for c in ("c1", "c2"):
        entries[Atom("R", (const(c),))], entries[Atom("T", (const(c),))] = gen.BOT, gen.TOP
    s = gen.tree_subst(sig, entries)
    for binder in ("(x:R, y:T)", "(x:T, y:R)"):
        assert instance(s, parse_formula_text(f"forall {binder} (P(x) | P(y))", sig)) == gen.TOP
        assert instance(s, parse_formula_text(f"exists {binder} (P(x) & P(y))", sig)) == gen.BOT


def test_quantifier_over_non_occurring_variable_collapses():
    s = subst_p(SIG2, q=True)
    f = parse_formula_text("forall x Q", SIG2)
    got = instance(s, f)
    assert got == conj((atom("g"),))
    assert got == conj((instance(s, parse_formula_text("Q", SIG2)),))


def test_preconditions():
    s = subst_p(SIG2)
    with pytest.raises(NotClosed):
        instantiate(s, parse_formula_text("P(x)", SIG2))
    with pytest.raises(NotFirstOrder):
        instantiate(s, parse_formula_text("forall p/1 p(c1)", SIG2))


def test_exact_mode_refuses_function_constants():
    sig = Signature.make({"a": 0, "s": 1}, {"P": 1})
    s = gen.tree_subst(sig, {Atom("P", (const("a"),)): atom("u")})
    with pytest.raises(InfiniteUniverse):
        instantiate(s, parse_formula_text("forall x P(x)", sig))


@pytest.mark.parametrize("key", [Atom("P", (Var("x"),)), Atom(PredVar("p", 1), (const("c1"),))])
def test_substitution_refuses_a_non_ground_key(key):
    with pytest.raises(SubstitutionError, match="is not ground"):
        Substitution(SIG2, [(ATOM, "u")], {key: 0})


def test_substitution_refuses_a_restrictor_image_by_its_entry():
    prog = [(ATOM, "u"), (AND, ()), (OR, ())]
    r1 = Atom("R", (const("c1"),))
    assert Substitution(SIG2R, prog, {r1: 1}, {"R": 2}).lookup(r1) == 1
    with pytest.raises(SubstitutionError, match=r"restrictor atom R\(c1\) must map to top"):
        Substitution(SIG2R, prog, {r1: 0})
    with pytest.raises(SubstitutionError, match="restrictor default R must be top or bot"):
        Substitution(SIG2R, prog, {}, {"R": 0})


def test_bounded_universe_terms():
    sig = Signature.make({"a": 0, "s": 1}, {"P": 1})
    terms = ground_terms(sig, 2)
    a = const("a")
    assert terms == (a, FnApp("s", (a,)), FnApp("s", (FnApp("s", (a,)),)))


def _term_nodes(t) -> int:
    return 1 + sum(map(_term_nodes, getattr(t, "args", ())))


@pytest.mark.parametrize("functions", [
    {"f": 1}, {"f": 2}, {"f": 3}, {"s": 1, "g": 2}, {"g": 2, "h": 3},
])
@pytest.mark.parametrize("depth", range(5))
def test_universe_count_matches_the_built_universe(functions, depth):
    for constants in ({"a": 0}, {"a": 0, "b": 0}):
        sig = Signature.make({**constants, **functions}, {"P": 1})
        size, nodes = count_universe(sig, Bounded(depth))
        if size > 20_000:  # too many to build, e.g. f/3 at depth 4: 1 + 730^3
            continue
        terms = ground_terms(sig, depth)
        assert size == len(terms) == len(universe(sig, Bounded(depth)))
        assert nodes == sum(map(_term_nodes, terms))


def ref_ground_terms(sig: Signature, depth: int) -> tuple:
    """The filtering `ground_terms` it replaced: each layer keeps the
    applications over all terms so far whose depth is the layer's."""
    def term_depth(t) -> int:
        return 1 + max(map(term_depth, t.args)) if t.args else 0

    layers = [[const(c) for c in sig.object_constants()]]
    pool = list(layers[0])
    for _ in range(depth):
        prev = pool[:]
        layer = []
        for name, arity in sig.nonnullary_functions():
            for args in itertools.product(prev, repeat=arity):
                t = FnApp(name, args)
                if term_depth(t) == len(layers):
                    layer.append(t)
        layers.append(layer)
        pool.extend(layer)
    return tuple(sorted(pool, key=lambda t: (term_depth(t), term_to_text(t))))


@pytest.mark.parametrize("functions, depth", [  # up to 5,552 terms (f/1, g/2 over 2)
    ({"s": 1}, 30), ({"f": 2}, 3), ({"h": 3}, 2), ({"f": 1, "g": 2}, 3), ({"s": 1, "h": 3}, 2),
])
def test_ground_terms_match_the_filtering_reference(functions, depth):
    for constants in ({"a": 0}, {"b": 0, "a": 0}):
        sig = Signature.make({**constants, **functions}, {"P": 1})
        for d in range(depth + 1):
            assert ground_terms(sig, d) == ref_ground_terms(sig, d)


def test_universe_count_saturates_at_the_cap():
    # f/2 has about 2^(2^d) terms at depth d: past the cap by depth 14, and
    # the count stops there however deep the universe is asked for
    sig = Signature.make({"a": 0, "f": 2}, {"P": 1})
    terms = nodes = 1
    for depth in range(16):  # the recurrence unsaturated, capped only here
        assert count_universe(sig, Bounded(depth)) == (min(terms, STEP_CAP),
                                                       min(nodes, STEP_CAP))
        terms, nodes = 1 + terms**2, 1 + terms**2 + 2 * terms * nodes
    assert nodes > STEP_CAP
    for depth in (40, 10**9):
        assert count_universe(sig, Bounded(depth)) == (STEP_CAP, STEP_CAP)
    # one unary function: 2 (d + 1) terms s^k(a), s^k(b) of k + 1 nodes each
    sig = Signature.make({"a": 0, "b": 0, "s": 1}, {"P": 1})
    assert count_universe(sig, Bounded(1000)) == (2002, 1001 * 1002)


def ref_count_universe(sig: Signature, depth: int) -> tuple[int, int]:
    """The layer loop `count_universe` runs, uncapped: one pass per depth
    level, t_{d+1} = c + sum of t_d^a and n_{d+1} = c + sum of t_d^a +
    a * t_d^(a-1) * n_d over the functions."""
    c = len(sig.object_constants())
    fns = sig.nonnullary_functions()
    terms = nodes = c
    for _ in range(depth):
        terms, nodes = (c + sum(terms**a for _, a in fns),
                        c + sum(terms**a + a * terms**(a - 1) * nodes for _, a in fns))
    return terms, nodes


@pytest.mark.parametrize("c", [0, 1, 3])
def test_linear_universe_count_matches_the_layer_loop(c):
    # `Signature.make` refuses a signature without constants; the count
    # reads only the constants and functions
    consts = tuple((f"c{k}", 0) for k in range(c))
    sig = Signature(consts + (("s", 1),), (("P", 1),), frozenset())
    for depth in range(51):
        assert count_universe(sig, Bounded(depth)) == ref_count_universe(sig, depth)
    if c:
        d = 10**4000  # the loop would not finish: c (d + 1) terms, nodes past the cap
        assert count_universe(sig, Bounded(d)) == (c * (d + 1), STEP_CAP)


def test_universe_count_in_exact_mode():
    assert count_universe(SIG2R, EXACT) == (3, 3)
    with pytest.raises(InfiniteUniverse):
        count_universe(Signature.make({"a": 0, "s": 1}, {"P": 1}), EXACT)


def test_unmapped_atom_names_offender():
    s = subst_p(SIG2)  # no Q entry
    f = parse_formula_text("exists x P(x) & Q", SIG2)
    with pytest.raises(UnmappedAtom) as err:
        instantiate(s, f)
    assert "Q" in str(err.value)
    assert unmapped(s, f) == ("Q",)


def test_validate_empty_report_when_total():
    s = subst_p(SIG2, q=True)
    f = parse_formula_text("exists x P(x) & Q <-> exists x (P(x) & Q)", SIG2)
    assert unmapped(s, f) == ()


def test_validate_bounded_reaches_pushed_terms():
    sig = Signature.make({"a": 0, "s": 1}, {"P": 1})
    f = parse_formula_text("forall x (P(x) -> P(s(x)))", sig)
    entries = {}
    t = const("a")
    for _ in range(3):
        entries[Atom("P", (t,))] = atom("u")
        t = FnApp("s", (t,))
    s = gen.tree_subst(sig, entries)
    # depth-2 universe pushes one application deeper: s(s(s(a))) is missing
    assert unmapped(s, f, Bounded(2)) == ("P(s(s(s(a))))",)
    entries[Atom("P", (t,))] = atom("u")
    assert unmapped(gen.tree_subst(sig, entries), f, Bounded(2)) == ()


def test_restrictor_coherence_small_cases():
    rng = random.Random(41)
    for _ in range(120):
        f = gen.rand_formula(rng, SIG2R, depth=3, restrictor_share=0.6)
        s = gen.rand_substitution(rng, SIG2R)
        direct = instantiate(s, f)
        unfolded = instantiate(s, eliminate_restrictors(f))
        atoms = prop_atoms(direct) | prop_atoms(unfolded)
        for i in gen.all_interpretations_over(atoms):
            for w in World:
                assert satisfies(i, w, direct) == satisfies(i, w, unfolded)


def _depth(f) -> int:
    """Connective/quantifier nesting depth; atoms have depth 0."""
    match f:
        case Binary(_, l, r):
            return 1 + max(_depth(l), _depth(r))
        case Quant(_, _, body):
            return 1 + _depth(body)
    return 0


def test_instance_rank_bound():
    rng = random.Random(43)
    for _ in range(200):
        f = gen.rand_formula(rng, SIG2R, depth=3, restrictor_share=0.3)
        s = gen.rand_substitution(rng, SIG2R)
        inst = instantiate(s, f)
        max_range_rank = max(
            (rank(gen.subst_image(s, a)) for a in s.entries), default=0
        )
        assert rank(inst) <= max_range_rank + _depth(f)


def test_subst_image_holds_only_what_its_root_reaches():
    # the prefix `s.program[: k + 1]` of the image of P(b) holds `p` too,
    # parsed before it
    s = parse_subst_file("const a, b.  pred P/1.\nP(a) := p;\nP(b) := q -> q;\n")
    image = gen.subst_image(s, Atom("P", (const("b"),)))
    assert prop_atoms(image) == {"q"}
    assert prop_to_text(image) == "q -> q"


def test_instance_atoms_come_from_range():
    rng = random.Random(47)
    for _ in range(100):
        f = gen.rand_formula(rng, SIG2R, depth=3, restrictor_share=0.3)
        s = gen.rand_substitution(rng, SIG2R)
        inst = instantiate(s, f)
        range_atoms = set()
        for a in s.entries:
            range_atoms |= prop_atoms(gen.subst_image(s, a))
        assert prop_atoms(inst) <= range_atoms


# ---------------------------------------------------------------------------
# the one-walk instance against the literal expansion

def distinct_subformulas(t) -> set:
    """The subtrees of the tree `t`, equal ones once."""
    seen, stack = set(), [t]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            stack.extend(g[1:] if g[0] == "imp" else g[1] if g[0] != "atom" else ())
    return seen


def literal_instance(subst, f, mode=EXACT):
    """The instance by literal expansion: a quantifier substitutes each term
    (or tuple of terms) into its body, and a generalized variable's guard is
    evaluated on every tuple of the product.  Returns the instance, with
    `bot` for each unmapped atom, and the sorted unmapped atoms; a tuple
    whose guard atom is unmapped contributes that atom, not its body."""
    terms = universe(subst.signature, mode)
    missing = set()

    def image(a):
        try:
            return gen.tree(gen.subst_image(subst, a))
        except UnmappedAtom:
            missing.add(str(a))
            return gen.BOT

    def guard_ok(items, choice):
        images = [image(Atom(r, (t,))) for (_, r), t in zip(items, choice)]
        return all(got == gen.TOP for got in images)

    def rec(g):
        match g:
            case Falsum():
                return gen.BOT
            case Equals(l, r):
                return gen.TOP if l == r else gen.BOT
            case Atom(pred, args):
                return image(Atom(pred, args))
            case Binary("&", l, r):
                return conj((rec(l), rec(r)))
            case Binary("|", l, r):
                return disj((rec(l), rec(r)))
            case Binary("->", l, r):
                return imp(rec(l), rec(r))
            case Quant(kind, Var() as v, body):
                children = (rec(substitute(body, {v: t})) for t in terms)
                return conj(children) if kind == "forall" else disj(children)
            case Quant(kind, GenVar(items) as gv, body):
                children = []
                for choice in itertools.product(terms, repeat=len(items)):
                    if not guard_ok(items, choice):
                        continue
                    inst = body
                    for v, t in zip(gv.variables(), choice):
                        inst = substitute(inst, {v: t})
                    children.append(rec(inst))
                return conj(children) if kind == "forall" else disj(children)
        raise TypeError(f"unexpected formula node: {g!r}")

    return rec(f), tuple(sorted(missing))


def partial_substitution(rng, sig, mode, drop):
    """Entries on the mode's Herbrand base, each left out with chance `drop`;
    restrictor atoms get top or bot."""
    entries = {}
    for a in herbrand_base(sig, universe(sig, mode)):
        if rng.random() < drop:
            continue
        if sig.is_restrictor(a.pred):
            entries[a] = gen.TOP if rng.random() < 0.5 else gen.BOT
        else:
            entries[a] = gen.rand_prop(rng, 2)
    return gen.tree_subst(sig, entries)


def assert_matches_literal(s, f, mode):
    want, want_missing = literal_instance(s, f, mode)
    assert unmapped(s, f, mode) == want_missing
    if want_missing:
        with pytest.raises(UnmappedAtom) as err:
            instantiate(s, f, mode)
        assert (err.value.atom, err.value.missing) == (want_missing[0], want_missing)
    else:
        got = instantiate(s, f, mode)
        assert gen.tree(got) == want
        # the walk shares what the literal expansion builds twice: the same
        # tree, in one entry per distinct subformula
        assert prop_stats(got)[3] == prop_stats(program(want))[3]
        assert prop_node_count(got) == len(distinct_subformulas(want))


SIG_FN = Signature.make(
    {"a": 0, "b": 0, "s": 1}, {"P": 1, "Q": 2, "R1": 1, "R2": 1}, {"R1", "R2"}
)


@pytest.mark.parametrize("sig, mode, share", [
    (SIG2R, EXACT, 0.3),
    (SIG2R, EXACT, 0.6),
    (SIG_FN, Bounded(1), 0.5),
    (SIG_FN, Bounded(2), 0.5),
], ids=["sig2r-0.3", "sig2r-0.6", "fn-depth1", "fn-depth2"])
def test_instance_matches_literal_expansion(sig, mode, share):
    rng = random.Random(53)
    for _ in range(60):
        f = gen.rand_formula(rng, sig, depth=3, restrictor_share=share)
        for drop in (0.0, 0.1, 0.3):
            assert_matches_literal(partial_substitution(rng, sig, mode, drop), f, mode)


@pytest.mark.parametrize("text", [
    "forall x (P(x) & forall x Q(x))",
    "forall x (forall x Q(x) & P(x))",
    "exists y forall x (exists (x:R1, y:R2) S(x, y) -> S(y, x))",
    "exists (x:R1) (P(x) | forall x S(x, x))",
    "forall x (exists (x:R1, y:R2) (S(x, y) -> exists y P(y)) & P(x))",
    "forall (x:R2) (exists (x:R1) P(x) -> x = a | Q(x))",
    "exists y forall x (forall y S(x, y) -> S(y, x))",
    "forall z (exists (x:R1, y:R2, z:R1) (S(x, z) | P(y)) & P(z))",
])
def test_shadowed_binders_match_literal_expansion(text):
    sig = Signature.make({"a": 0, "b": 0, "c": 0},
                         {"P": 1, "Q": 1, "S": 2, "R1": 1, "R2": 1}, {"R1", "R2"})
    f = parse_formula_text(text, sig)
    rng = random.Random(59)
    for drop in (0.0, 0.0, 0.1, 0.2, 0.4):
        assert_matches_literal(partial_substitution(rng, sig, EXACT, drop), f, EXACT)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
def test_nested_iff_instance_is_shared(n):
    # the parser shares each level's right side; the walk builds its instance
    # once, so the instance holds 3 nodes per level while its tree doubles
    sig = Signature.make({"a": 0}, {"P": 0})
    f = parse_formula_text(gen.nested_iff(n), sig)
    s = gen.tree_subst(sig, {Atom("P", ()): atom("p")})
    got = instantiate(s, f)
    want, _ = literal_instance(s, f)
    assert gen.tree(got) == want
    assert prop_stats(got) == (frozenset({"p"}), 2 * n, 3 * n, 9 * 2 ** (n - 1) - 5)
    text = "And{p -> p}"
    for _ in range(n - 1):
        text = f"And{{{text} -> p; p -> {text}}}"
    assert prop_to_text(got) == text


def test_validate_under_iff_matches_literal():
    # both sides of `<->` are instantiated once per term; a partial
    # substitution must still report every missing atom exactly once
    sig = Signature.make({"a": 0, "b": 0, "c": 0}, {"P": 1, "Q": 1})
    f = parse_formula_text("forall x (P(x) <-> Q(x))", sig)
    rng = random.Random(61)
    reports = set()
    for drop in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        s = partial_substitution(rng, sig, EXACT, drop)
        assert_matches_literal(s, f, EXACT)
        reports.add(unmapped(s, f))
    assert len(reports) > 3 and () in reports


def test_restrictor_domains_are_filtered_once_per_walk():
    # `forall x exists (y:R) P(x, y)` over n constants, every tenth in R:
    # one lookup per constant for R, then one per `P(x, y)` with y in R
    n = 400
    names = [f"c{i}" for i in range(n)]
    sig = Signature.make(dict.fromkeys(names, 0), {"P": 2, "R": 1}, {"R"})
    entries = {Atom("R", (const(c),)): gen.TOP if i % 10 == 0 else gen.BOT
               for i, c in enumerate(names)}
    s = gen.tree_subst(sig, entries, {"P": atom("p")})
    calls = []
    lookup = s.lookup
    s.lookup = lambda atom: calls.append(atom) or lookup(atom)
    got = instance(s, parse_formula_text("forall x exists (y:R) P(x, y)", sig))
    assert got == conj([disj([atom("p")])])
    assert len(calls) == n + n * (n // 10)


# ---------------------------------------------------------------------------
# the type-dispatch walk that emits the program against the structural-`match`
# walk that built objects

def assert_matches_reference(s, f, mode):
    want, want_missing = gen.instantiate_reference(s, f, mode)
    assert unmapped(s, f, mode) == want_missing
    if want_missing:
        return
    prog = instantiate(s, f, mode)
    assert gen.tree(prog) == want
    # one entry per distinct subformula, children before parents
    assert len(prog) == len(distinct_subformulas(want))
    assert all(k < i for i, (op, arg) in enumerate(prog) if op != ATOM for k in arg)


@pytest.mark.parametrize("sig, mode, share", [
    (SIG2R, EXACT, 0.3),
    (SIG2R, EXACT, 0.7),
    (SIG_FN, Bounded(1), 0.5),
    (SIG_FN, Bounded(2), 0.5),
], ids=["sig2r-0.3", "sig2r-0.7", "fn-depth1", "fn-depth2"])
def test_walk_matches_the_match_reference_on_random_formulas(sig, mode, share):
    rng = random.Random(67)
    for _ in range(100):
        f = gen.rand_formula(rng, sig, depth=4, restrictor_share=share)
        s = partial_substitution(rng, sig, mode, rng.choice((0.0, 0.1, 0.3)))
        assert_matches_reference(s, f, mode)


@pytest.mark.parametrize("text", [
    "forall x (P(x) & forall x Q(x))",
    "exists y forall x (exists (x:R1, y:R2) S(x, y) -> S(y, x))",
    "forall x (exists (x:R1, y:R2) (S(x, y) -> exists y P(y)) & P(x))",
    "forall (x:R2) (exists (x:R1) P(x) -> x = a | Q(x))",
    "forall x (P(s(x)) <-> exists y (y = s(x) & Q(y)))",
    "exists (x:R1) forall y (S(x, s(y)) -> P(s(s(x))) | s(x) = y)",
    "(Q(a) -> P(b)) & forall x (P(x) | (Q(a) -> P(b)))",  # one closed node, two depths
])
def test_walk_matches_the_match_reference_on_shadows_guards_and_terms(text):
    sig = Signature.make({"a": 0, "b": 0, "s": 1},
                         {"P": 1, "Q": 1, "S": 2, "R1": 1, "R2": 1}, {"R1", "R2"})
    f = parse_formula_text(text, sig)
    rng = random.Random(71)
    for mode in (Bounded(0), Bounded(1), Bounded(2)):
        for drop in (0.0, 0.0, 0.2, 0.5):
            assert_matches_reference(partial_substitution(rng, sig, mode, drop), f, mode)
