"""`syntax.prop_stats` and `prop_to_text` against literal references that
read the formula as a `gen` tree: atoms, rank, distinct subformulas (equal
subtrees found by a key of their kind and their children's classes) and
size as a tree, and the text, each found once per subtree object, children
first.

`syntax.graft` into a builder: a program with an entry per subtree object
keeps its text, stats and verdict, and the live part of a Herbrand
grounding comes out as the path it replaced, renumbering in place, copied
here as it was, gives it."""

import random

import pytest

import gen
from gen import atom, conj, disj, imp, program
from hhtkit.herbrand import _Grounding, hht_valid_bruteforce
from hhtkit.instantiation import EXACT, Bounded, instantiate, universe
from hhtkit.parser import parse_formula_text
from hhtkit.semantics import DEFAULT_BUDGET, first_countermodel, ht_valid
from hhtkit.syntax import (
    AND,
    ATOM,
    CONST,
    IMP,
    OR,
    Signature,
    eliminate_restrictors,
    graft,
    program_builder,
    prop_stats,
    prop_to_text,
)

# --- literal references ------------------------------------------------------


def _kids(t: tuple) -> tuple:
    return () if t[0] == "atom" else (t[1], t[2]) if t[0] == "imp" else tuple(t[1])


def _post_order(t: tuple) -> list[tuple]:
    """Each subtree object of `t` once, after its children."""
    done: set[int] = set()
    out: list[tuple] = []
    # (tree, False) is still to expand; (tree, True) waits for its children
    stack = [(t, False)]
    while stack:
        g, expanded = stack.pop()
        if id(g) in done:
            continue
        if not expanded:
            stack.append((g, True))
            stack.extend([(k, False) for k in _kids(g)])
            continue
        done.add(id(g))
        out.append(g)
    return out


def ref_prop_stats(t: tuple) -> tuple[frozenset[str], int, int, int]:
    classes: dict[tuple, int] = {}  # a subtree's key: its kind and its children's classes
    of: dict[int, int] = {}  # each subtree object's class, equal subtrees' the same
    ranks: dict[int, int] = {}
    sizes: dict[int, int] = {}
    order = _post_order(t)
    for g in order:
        kids = _kids(g)
        cls = [of[id(k)] for k in kids]
        key = g if g[0] == "atom" else (g[0], *cls) if g[0] == "imp" else (g[0], frozenset(cls))
        of[id(g)] = classes.setdefault(key, len(classes))
        ranks[id(g)] = max([ranks[id(k)] for k in kids], default=-1) + 1
        sizes[id(g)] = 1 + sum([sizes[id(k)] for k in kids])
    atoms = frozenset(g[1] for g in order if g[0] == "atom")
    return atoms, ranks[id(t)], len(classes), sizes[id(t)]


def ref_prop_to_text(t: tuple) -> str:
    texts: dict[int, str] = {}
    for g in _post_order(t):
        if g[0] == "atom":
            text = g[1]
        elif g[0] == "imp":
            left, right = texts[id(g[1])], texts[id(g[2])]
            text = f"({left}) -> {right}" if g[1][0] == "imp" else f"{left} -> {right}"
        else:
            empty, head = ("top", "And{") if g[0] == "and" else ("bot", "Or{")
            kids = sorted([texts[id(k)] for k in g[1]])
            text = head + "; ".join(kids) + "}" if kids else empty
        texts[id(g)] = text
    return texts[id(t)]


def _unshared_program(t: tuple) -> list[tuple[int, object]]:
    """One entry per subtree object of `t`, children in the order the tree
    gives them: equal subtrees built apart are separate entries, and an
    `And`/`Or` argument is unsorted, as no builder emits them."""
    at: dict[int, int] = {}
    prog: list[tuple[int, object]] = []
    for g in _post_order(t):
        if g[0] == "atom":
            entry = (ATOM, g[1])
        elif g[0] == "imp":
            entry = (IMP, (at[id(g[1])], at[id(g[2])]))
        else:
            entry = (AND if g[0] == "and" else OR, tuple([at[id(k)] for k in g[1]]))
        at[id(g)] = len(prog)
        prog.append(entry)
    return prog


# --- inputs ------------------------------------------------------------------

SIG = Signature.make({"c1": 0, "c2": 0, "c3": 0}, {"P": 1, "Q": 2, "R": 1}, {"R"})


def _instances(seed: int, count: int) -> list[tuple]:
    """Instances of `gen` formulas, as trees: the instantiation walk emits
    one entry per (subformula, binding), so quantifiers and repeated images
    share."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = gen.rand_formula(rng, SIG, depth=4, restrictor_share=0.4)
        out.append(gen.tree(instantiate(gen.rand_substitution(rng, SIG), f)))
    return out


def _pooled(seed: int, count: int) -> list[tuple]:
    """`gen` trees combined by picking children from the trees built so
    far, so a tree is the child of several parents, at several depths."""
    rng = random.Random(seed)
    pool = [gen.rand_prop(rng, depth=2) for _ in range(6)]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 2:
            pool.append(imp(rng.choice(pool), rng.choice(pool)))
        else:
            kids = [rng.choice(pool) for _ in range(rng.randrange(4))]
            pool.append((conj if kind == 0 else disj)(kids))
    return pool[-count:]


def _deep_chain(n: int) -> tuple:
    f = atom("p0")
    for i in range(n):
        f = imp(atom(f"p{i % 7}"), f) if i % 2 else imp(f, atom(f"p{i % 5}"))
    return f


def _wide_or(n: int) -> tuple:
    shared = atom("s")
    return disj([imp(atom(f"a{i}"), shared) for i in range(n)] + [shared])


# --- the comparison ----------------------------------------------------------


def _assert_same_stats(t: tuple, text: bool = True) -> None:
    got = program(t)
    for i, (op, arg) in enumerate(got):
        assert op == ATOM or all(k < i for k in arg)
    assert prop_stats(got) == ref_prop_stats(t)
    if text:
        assert prop_to_text(got) == ref_prop_to_text(t)


def test_shared_gen_formulas_match_references():
    formulas = _instances(5, 60) + _pooled(6, 300)
    shared = sum(prop_stats(program(t))[3] > prop_stats(program(t))[2] for t in formulas)
    assert shared > 150  # most inputs are DAGs, not trees
    for t in formulas:
        _assert_same_stats(t)


# Both `prop_to_text`s keep the text of every node until the root's is
# done, which for a chain is quadratic in its depth (about 25 GB at 100,000),
# so the deepest chain is compared without its text.
@pytest.mark.parametrize("make, n, text", [
    (_deep_chain, 100_000, False), (_deep_chain, 3_000, True), (_wide_or, 10_000, True),
])
def test_deep_and_wide_formulas_match_references(make, n, text):
    _assert_same_stats(make(n), text)


# --- `graft` ------------------------------------------------------------------


def ref_live_program(prog: list[tuple[int, object]], root: int) -> list[tuple[int, object]]:
    """The entries `root` depends on, renumbered in the same order."""
    live = [False] * (root + 1)
    live[root] = True
    for i in range(root, -1, -1):
        op, arg = prog[i]
        if live[i] and op in (AND, OR, IMP):
            for k in arg:
                live[k] = True
    moved: dict[int, int] = {}
    out: list[tuple[int, object]] = []
    for i in range(root + 1):
        if live[i]:
            op, arg = prog[i]
            if op in (AND, OR, IMP):
                arg = tuple(moved[k] for k in arg)
            moved[i] = len(out)
            out.append((op, arg))
    return out


def _grafted(prog: list[tuple[int, object]], root: int) -> list[tuple[int, object]]:
    out, emit = program_builder()
    assert graft(prog, root, emit, [None] * len(prog)) == len(out) - 1
    return out


def test_a_grafted_formula_keeps_its_text_stats_and_verdict():
    rng = random.Random(9)
    formulas = _instances(7, 40) + _pooled(8, 200) + [gen.rand_prop(rng, 4) for _ in range(200)]
    for t in formulas:
        raw = _unshared_program(t)
        prog = _grafted(raw, len(raw) - 1)
        # an `And`/`Or` entry holds its distinct children sorted, as one the
        # builder's other callers emit does, and each subformula is one entry
        assert all(list(arg) == sorted(set(arg)) for op, arg in prog if op in (AND, OR))
        assert prop_to_text(prog) == ref_prop_to_text(t)
        assert prop_stats(prog) == ref_prop_stats(t)
        assert first_countermodel(prog, DEFAULT_BUDGET) == ht_valid(raw, evaluator="literal")


def test_a_shared_moved_copies_a_common_entry_once():
    # images `p -> q` (at 2) and `Or{p -> q}` (at 5) share three entries;
    # `r` and `And{p -> q; r}` are reached from neither
    images = [(ATOM, "p"), (ATOM, "q"), (IMP, (0, 1)), (ATOM, "r"), (AND, (2, 3)), (OR, (2,))]
    prog, emit = program_builder()
    calls = []

    def counted(op, arg):
        calls.append((op, arg))
        return emit(op, arg)

    moved = [None] * len(images)
    first = graft(images, 2, counted, moved)
    assert graft(images, 5, counted, moved) == 3 and graft(images, 2, counted, moved) == first
    assert calls == prog == [(ATOM, "p"), (ATOM, "q"), (IMP, (0, 1)), (OR, (2,))]
    assert moved == [0, 1, 2, None, None, 3]


SIG_AB = Signature.make({"a": 0, "b": 0}, {"P": 1, "Q": 0})


def test_a_constant_herbrand_root_grafts_to_one_entry():
    # positions 0, 1 and 2 of a grounding are its constants; atoms emitted
    # before a root folded to one are not copied
    grounding = _Grounding(SIG_AB, universe(SIG_AB, EXACT))
    roots = [grounding.ground(parse_formula_text(text, SIG_AB), {}) for text in (
        "a = b", "forall x (P(x) & x = a)", "forall x (x = x)", "bot -> P(a)")]
    assert roots == [0, 0, 2, 2] and len(grounding.prog) > 3
    for root in (0, 1, 2):
        assert _grafted(grounding.prog, root) == [(CONST, root)]
        assert ref_live_program(grounding.prog, root) == [(CONST, root)]


@pytest.mark.parametrize("sig, mode, share", [
    (SIG_AB, EXACT, 0.0),
    (Signature.make({"a": 0, "b": 0, "c": 0}, {"P": 1, "R1": 1, "R2": 1}, {"R1", "R2"}),
     EXACT, 0.6),
    (Signature.make({"a": 0, "s": 1}, {"P": 1, "Q": 0, "R1": 1}, {"R1"}), Bounded(1), 0.5),
], ids=["exact", "restricted", "fn-depth1"])
def test_herbrand_verdicts_agree_with_the_reference_grounding(sig, mode, share):
    # `hht_valid_bruteforce` against the structural-`match` grounding with
    # its live part renumbered in place: grafted into a fresh program, that
    # part keeps its order, so the two programs are equal
    rng = random.Random(89)
    terms = universe(sig, mode)
    verdicts = set()
    for _ in range(150):
        f = eliminate_restrictors(gen.universal_closure(
            gen.rand_formula(rng, sig, depth=4, restrictor_share=share)))
        grounding = gen.GroundingReference(sig, terms)
        root = grounding.ground(f, {})
        want = ref_live_program(grounding.prog, root)
        assert _grafted(grounding.prog, root) == want
        counter = hht_valid_bruteforce(sig, f, mode, budget=10**8)
        assert counter == first_countermodel(want, 10**8)
        verdicts.add(counter is None)
    assert verdicts == {True, False}
