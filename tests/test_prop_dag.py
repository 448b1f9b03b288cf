"""`syntax.prop_dag`, `prop_stats` and `prop_to_text` against literal
references: the match-dispatching, comprehension-per-node versions they
replaced, copied here as they were.  `prop_dag` returns the engine's
program, so the reference's node list is mapped to `(op, arg)` entries as
the engine's compiler once mapped it; the two programs must be equal, entry
for entry, and the stats and text must be too."""

import random

import pytest

import gen
from hhtkit.instantiation import instantiate
from hhtkit.syntax import (
    AND,
    ATOM,
    IMP,
    OR,
    PAnd,
    PAtom,
    PImp,
    POr,
    PropFormula,
    Signature,
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
