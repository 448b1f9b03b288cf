"""`syntax.prop_dag`, `prop_stats` and `prop_to_text` against literal
references: the match-dispatching, comprehension-per-node versions they
replaced, copied here as they were.  `prop_dag` returns the engine's
program, so the reference's node list is mapped to `(op, arg)` entries as
the engine's compiler once mapped it; the two programs must be equal, entry
for entry, and the stats and text must be too.

`syntax.graft` against the paths it replaced: a formula object's program
emitted entry by entry (as substitution images were spliced into an
instance), and the live part of a Herbrand grounding renumbered in place,
copied here as it was."""

import random

import pytest

import gen
from hhtkit.herbrand import _Grounding, hht_valid_bruteforce
from hhtkit.instantiation import EXACT, Bounded, instantiate, universe
from hhtkit.parser import parse_formula_text, parse_prop_text
from hhtkit.semantics import DEFAULT_BUDGET, first_countermodel, ht_valid
from hhtkit.syntax import (
    AND,
    ATOM,
    CONST,
    IMP,
    OR,
    PAnd,
    PAtom,
    PImp,
    POr,
    PropFormula,
    Signature,
    eliminate_restrictors,
    graft,
    program_builder,
    prop_dag,
    prop_stats,
    prop_to_text,
)

# --- literal references ------------------------------------------------------


def ref_prop_dag(f: PropFormula) -> list[tuple[PropFormula, tuple[int, ...]]]:
    slot: dict[int, int] = {}
    out: list[tuple[PropFormula, tuple[int, ...]]] = []
    # (node, None) is still to expand; (node, children) waits for them
    stack: list[tuple[PropFormula, tuple | None]] = [(f, None)]
    while stack:
        g, kids = stack.pop()
        if id(g) in slot:
            continue
        if kids is None:
            match g:
                case PAtom():
                    kids = ()
                case PAnd(items) | POr(items):
                    kids = tuple(items)
                case PImp(l, r):
                    kids = (l, r)
                case _:
                    raise TypeError(f"not a propositional formula: {g!r}")
            if kids:
                stack.append((g, kids))
                stack.extend([(k, None) for k in kids])
                continue
        slot[id(g)] = len(out)
        out.append((g, tuple([slot[id(k)] for k in kids])))
    return out


def ref_program(f: PropFormula) -> list[tuple[int, object]]:
    ops = {PAnd: AND, POr: OR, PImp: IMP}
    return [(ATOM, g.name) if isinstance(g, PAtom) else (ops[type(g)], kids)
            for g, kids in ref_prop_dag(f)]


def ref_prop_stats(f: PropFormula) -> tuple[frozenset[str], int, int, int]:
    dag = ref_prop_dag(f)
    ranks: list[int] = []
    sizes: list[int] = []
    for _, kids in dag:
        ranks.append(max([ranks[k] for k in kids], default=-1) + 1)
        sizes.append(1 + sum([sizes[k] for k in kids]))
    atoms = frozenset(g.name for g, _ in dag if isinstance(g, PAtom))
    return atoms, ranks[-1], len(dag), sizes[-1]


def ref_prop_to_text(f: PropFormula) -> str:
    texts: list[str] = []
    for g, kids in ref_prop_dag(f):
        match g:
            case PAtom(name):
                text = name
            case PAnd() | POr():
                empty, head = ("top", "And{") if isinstance(g, PAnd) else ("bot", "Or{")
                text = head + "; ".join(sorted([texts[k] for k in kids])) + "}" if kids else empty
            case PImp(l, _):
                left, right = texts[kids[0]], texts[kids[1]]
                text = f"({left}) -> {right}" if isinstance(l, PImp) else f"{left} -> {right}"
        texts.append(text)
    return texts[-1]


# --- inputs ------------------------------------------------------------------

SIG = Signature.make({"c1": 0, "c2": 0, "c3": 0}, {"P": 1, "Q": 2, "R": 1}, {"R"})


def _instances(seed: int, count: int) -> list[PropFormula]:
    """Instances of `gen` formulas: the instantiation walk returns one object
    per (subformula, binding), so quantifiers and repeated images share."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = gen.rand_formula(rng, SIG, depth=4, restrictor_share=0.4)
        out.append(instantiate(gen.rand_substitution(rng, SIG), f))
    return out


def _pooled(seed: int, count: int) -> list[PropFormula]:
    """`gen` formulas combined by picking children from the nodes built so
    far, so a node is the child of several parents, at several depths."""
    rng = random.Random(seed)
    pool = [gen.rand_prop(rng, depth=2) for _ in range(6)]
    for _ in range(count):
        kind = rng.randrange(3)
        if kind == 2:
            pool.append(PImp(rng.choice(pool), rng.choice(pool)))
        else:
            kids = [rng.choice(pool) for _ in range(rng.randrange(4))]
            pool.append((PAnd if kind == 0 else POr)(kids))
    return pool[-count:]


def _deep_chain(n: int) -> PropFormula:
    f = PAtom("p0")
    for i in range(n):
        f = PImp(PAtom(f"p{i % 7}"), f) if i % 2 else PImp(f, PAtom(f"p{i % 5}"))
    return f


def _wide_or(n: int) -> PropFormula:
    shared = PAtom("s")
    return POr([PImp(PAtom(f"a{i}"), shared) for i in range(n)] + [shared])


# --- the comparison ----------------------------------------------------------


def _assert_same_dag(f: PropFormula, text: bool = True) -> None:
    got, want = prop_dag(f), ref_program(f)
    assert got == want
    for i, (op, arg) in enumerate(got):
        assert op == ATOM or all(k < i for k in arg)
    assert prop_stats(f, got) == ref_prop_stats(f)
    if text:
        assert prop_to_text(f, got) == ref_prop_to_text(f)


def test_shared_gen_formulas_match_references():
    formulas = _instances(5, 60) + _pooled(6, 300)
    shared = sum(prop_stats(f)[3] > prop_stats(f)[2] for f in formulas)
    assert shared > 150  # most inputs are DAGs, not trees
    for f in formulas:
        _assert_same_dag(f)
        assert (prop_stats(f), prop_to_text(f)) == (ref_prop_stats(f), ref_prop_to_text(f))


# Both `prop_to_text`s keep the text of every node until the root's is
# done, which for a chain is quadratic in its depth (about 25 GB at 100,000),
# so the deepest chain is compared without its text.
@pytest.mark.parametrize("make, n, text", [
    (_deep_chain, 100_000, False), (_deep_chain, 3_000, True), (_wide_or, 10_000, True),
])
def test_deep_and_wide_formulas_match_references(make, n, text):
    _assert_same_dag(make(n), text)


def test_non_formula_is_refused():
    with pytest.raises(TypeError, match="not a propositional formula"):
        prop_dag(PAnd([PAtom("p"), "q"]))


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
    for f in formulas:
        # the same formula with each distinct subformula one object, as the
        # parser builds it, so that `prop_dag` holds it once, as `graft` does
        g = parse_prop_text(prop_to_text(f))
        dag = prop_dag(f)
        prog = _grafted(dag, len(dag) - 1)
        # an `And`/`Or` entry holds its distinct children sorted, as one the
        # builder's other callers emit does
        assert all(list(arg) == sorted(set(arg)) for op, arg in prog if op in (AND, OR))
        assert prop_to_text(None, prog) == prop_to_text(f)
        assert prop_stats(None, prog) == prop_stats(g)
        assert first_countermodel(prog, DEFAULT_BUDGET) == ht_valid(f, evaluator="literal")


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
