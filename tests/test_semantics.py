import random

import pytest

import gen
from gen import atom, conj, disj, imp, program
from hhtkit import semantics
from hhtkit.errors import STEP_CAP, BudgetExceeded
from hhtkit.parser import parse_prop_file, parse_prop_text
from hhtkit.semantics import (
    DEFAULT_BUDGET,
    HTInterpretation,
    World,
    enumerate_interpretations,
    first_countermodel,
    ht_valid,
    render_countermodel,
    satisfies,
)
from hhtkit.syntax import AND, ATOM, IMP, OR, prop_atoms, prop_to_text


def prop(text):
    return parse_prop_text(text)


def test_interpretation_invariant():
    with pytest.raises(ValueError):
        HTInterpretation.of(["p"], [])


def test_atom_satisfaction():
    i = HTInterpretation.of(["p"], ["p"])
    assert satisfies(i, World.H, prop("p"))


def test_double_negation_hand_evaluated():
    # hand evaluation of the clauses at <{}, {p}>: "not p" fails at h because
    # p holds at t; hence "not not p" holds at h while p itself does not
    i = HTInterpretation.of([], ["p"])
    assert satisfies(i, World.H, prop("not not p")) is True
    assert satisfies(i, World.H, prop("p")) is False


def test_empty_set_clauses():
    for i in (HTInterpretation.of([], []), HTInterpretation.of(["p"], ["p"])):
        for w in World:
            assert satisfies(i, w, prop("top"))
            assert not satisfies(i, w, prop("bot"))


def test_models_examples():
    assert satisfies(HTInterpretation.of([], ["p"]), World.H, prop("p | not p")) is False
    assert satisfies(HTInterpretation.of([], []), World.H, prop("not p")) is True
    assert satisfies(HTInterpretation.of([], []), World.H, prop("top")) is True


def test_ht_valid_hosoi_with_enumeration_oracle():
    # the engine on each of the nine interpretations of {p, q} alone, then
    # on all of them at once
    f = prop("p | (p -> q) | not q")
    for i in gen.all_interpretations_over(["p", "q"]):
        assert gen.engine_value(i, gen.tree(f)) == 2
    assert ht_valid(f) is None
    assert ht_valid(f, evaluator="literal") is None


def test_ht_valid_canonical_countermodel():
    cm = ht_valid(prop("p | not p"))
    assert cm == HTInterpretation.of([], ["p"])
    assert render_countermodel(cm, ["p"]) == "p: there-only"
    assert ht_valid(prop("p | not p"), evaluator="literal") == cm


def test_ht_valid_top_iff_not_bot():
    assert ht_valid(prop("top <-> not bot")) is None


def test_ht_valid_first_failure_is_minimal():
    # with two atoms the canonical order counts q fastest (p most significant)
    f = prop("q | not q | p")
    cm = ht_valid(f)
    assert cm == HTInterpretation.of([], ["q"])


def test_budget_guard():
    # 22 child references over 22 atoms: 22 x 3^12 steps, over the default budget
    atoms = [f"a{i:02d}" for i in range(22)]
    f = prop("Or{" + "; ".join(atoms) + "}")
    with pytest.raises(BudgetExceeded):
        ht_valid(f)
    assert ht_valid(f, budget=10**8) is not None


def test_budget_counts_narrowed_chunks():
    # 6,144 entries narrow the chunk to 9 atoms to bound the masks' memory,
    # so 10 atoms take 3 chunks, each a step per child reference; written
    # by hand, with an entry per occurrence of an atom, as no builder emits
    atoms = [f"a{i}" for i in range(10)]
    f, groups = [], []
    for bits in range(1, 1024):
        members = [(ATOM, a) for j, a in enumerate(atoms) if bits >> j & 1]
        f += members
        groups.append(len(f))
        f.append((AND, tuple(range(len(f) - len(members), len(f)))))
    f.append((AND, tuple(groups)))
    assert len(f) == 6144
    refs = 1023 + 10 * 512
    with pytest.raises(BudgetExceeded) as err:
        ht_valid(f, budget=2 * refs)
    assert err.value.required == 3 * refs
    assert ht_valid(f, budget=3 * refs) == HTInterpretation.of([], [])


def test_budget_count_past_the_cap_reads_as_one_line():
    # 10,000 atoms: 3^9,990 steps, more digits than Python turns into text
    f = program(disj(atom(f"a{i}") for i in range(10_000)))
    for evaluator in ("g3", "literal"):
        with pytest.raises(BudgetExceeded) as err:
            ht_valid(f, evaluator=evaluator)
        assert err.value.required == STEP_CAP
        assert str(err.value) == "enumeration needs at least 10^4300 steps, budget is 5000000"
    assert len(str(BudgetExceeded(STEP_CAP - 1, 5))) == len("enumeration needs  steps, "
                                                             "budget is 5") + 4300


def test_one_engine_entry_charges_what_was_spent():
    f = prop("p -> p | q")  # 4 child references over 2 atoms: 4 steps
    assert first_countermodel(f, budget=4) is None
    with pytest.raises(BudgetExceeded) as err:
        first_countermodel(f, budget=10, spent=7)
    assert err.value.required == 11
    for evaluator in ("g3", "literal"):
        with pytest.raises(BudgetExceeded):
            ht_valid(f, budget=3, evaluator=evaluator)
    counter = first_countermodel(prop("p | not p"), budget=4)
    assert (counter, counter.atoms) == (HTInterpretation.of([], ["p"]), ("p",))


def test_g3_tables():
    i = HTInterpretation.of([], ["p"])
    assert gen.engine_value(i, atom("p")) == 1
    assert gen.engine_value(i, imp(imp(atom("p"), gen.BOT), gen.BOT)) == 2
    assert gen.engine_value(i, gen.BOT) == 0
    assert gen.engine_value(i, gen.TOP) == 2
    assert gen.engine_value(i, imp(atom("p"), atom("p"))) == 2
    assert gen.engine_value(HTInterpretation.of(["p"], ["p"]), atom("p")) == 2


def test_persistence_and_g3_agreement_randomized():
    rng = random.Random(23)
    for _ in range(2000):
        f = gen.rand_prop(rng, depth=3)
        i = gen.rand_interpretation(rng)
        sat_h = satisfies(i, World.H, program(f))
        sat_t = satisfies(i, World.T, program(f))
        if sat_h:
            assert sat_t, "h-satisfaction must persist to t"
        v = gen.engine_value(i, f)
        assert sat_h == (v == 2)
        assert sat_t == (v >= 1)


def test_classical_collapse_randomized():
    rng = random.Random(29)
    for _ in range(1000):
        f = gen.rand_prop(rng, depth=3)
        total = frozenset(a for a in gen.SIGMA_ATOMS if rng.random() < 0.5)
        i = HTInterpretation(total, total)
        assert satisfies(i, World.H, program(f)) == gen.classical_eval(total, f)


def test_satisfaction_ignores_non_occurring_atoms():
    rng = random.Random(31)
    for _ in range(500):
        f = program(gen.rand_prop(rng, depth=3, atoms=("u", "v")))
        i = gen.rand_interpretation(rng, atoms=("u", "v"))
        extra = HTInterpretation.of(
            set(i.here) | {"zz"}, set(i.there) | {"zz", "zy"}
        )
        for w in World:
            assert satisfies(i, w, f) == satisfies(extra, w, f)


def test_enumeration_order_and_count():
    seq = list(enumerate_interpretations(["a", "b"]))
    assert len(seq) == 9
    assert seq[0] == HTInterpretation.of([], [])
    # least significant digit is the last atom: over atoms sorted by text,
    # the lexicographically last one
    assert seq[1] == HTInterpretation.of([], ["b"])
    assert seq[3] == HTInterpretation.of([], ["a"])
    assert seq[8] == HTInterpretation.of(["a", "b"], ["a", "b"])
    # atoms are taken in the order given, first most significant
    assert list(enumerate_interpretations(["b", "a"]))[1] == HTInterpretation.of([], ["a"])


def test_evaluators_agree_on_first_countermodel():
    rng = random.Random(39)
    disagreements = 0
    for _ in range(400):
        f = program(gen.rand_prop(rng, depth=3))
        got_g3 = ht_valid(f, evaluator="g3")
        got_lit = ht_valid(f, evaluator="literal")
        assert got_g3 == got_lit
        if got_g3 is not None:
            # each ranges over the atoms of `f`, absent ones included
            assert got_g3.atoms == got_lit.atoms == tuple(sorted(prop_atoms(f)))
            disagreements += 1
    assert disagreements > 50  # the sample includes plenty of invalid formulas


_LEAVES = {"u": atom("u"), "v": atom("v"), "w": atom("w"), "top": gen.TOP, "bot": gen.BOT}


def _sugared(rng: random.Random, depth: int) -> tuple[str, tuple]:
    """Random `.prop` text that also spells `not`, `<->`, `&`, `|`, `top`
    and `bot`, and repeats subformulas, with the tree it stands for."""
    if depth == 0 or rng.random() < 0.2:
        text = rng.choice(list(_LEAVES))
        return text, _LEAVES[text]
    kind = rng.randrange(4)
    left, f = _sugared(rng, depth - 1)
    if kind == 0:
        return f"not ({left})", imp(f, gen.BOT)
    right, g = (left, f) if kind == 1 else _sugared(rng, depth - 1)
    op = rng.choice(["<->", "->", "&", "|"])
    built = {"<->": _leq(f, g), "->": imp(f, g), "&": conj((f, g)), "|": disj((f, g))}
    return f"({left}) {op} ({right})", built[op]


def test_a_parsed_program_gives_the_literal_verdict():
    # `ht-valid` runs the program `.prop` text parses to: it is the tree
    # the text stands for, and its verdict, first countermodel and that
    # countermodel's atoms are those of the literal relation
    rng = random.Random(43)
    cases = [(prop_to_text(program(f)), f)
             for f in (gen.rand_prop(rng, depth=3) for _ in range(300))]
    cases += [_sugared(rng, 4) for _ in range(300)]
    found = 0
    for text, f in cases:
        prog = parse_prop_file(text)
        assert gen.tree(prog) == f, text
        got = first_countermodel(prog, DEFAULT_BUDGET)
        want = ht_valid(prog, evaluator="literal")
        assert got == want and (got is None or got.atoms == want.atoms), text
        found += got is not None
    assert 100 < found < len(cases) - 100


def test_a_parsed_program_holds_each_subformula_once():
    # hash-consed as the instantiation walk emits: distinct entries, children
    # first, an `And`/`Or` argument the sorted tuple of its distinct children
    prog = parse_prop_file("(p -> q) & (p -> q) | not (q <-> p) | And{p; p; top} -> bot;")
    assert len(set(prog)) == len(prog)
    for k, (op, arg) in enumerate(prog):
        if op in (AND, OR):
            assert list(arg) == sorted(set(arg))
        if op in (AND, OR, IMP):
            assert all(j < k for j in arg)
    assert prog[-1][0] == IMP and gen.tree(prog) == gen.tree(prop(
        "Or{Or{And{p -> q}; And{q -> p; p -> q} -> bot}; And{p; top}} -> bot"))


def test_ht_valid_implies_classical_validity():
    rng = random.Random(37)
    checked = 0
    for _ in range(400):
        f = gen.rand_prop(rng, depth=3)
        if ht_valid(program(f)) is not None:
            continue
        checked += 1
        atoms = sorted(prop_atoms(program(f)))
        for bits in range(2 ** len(atoms)):
            total = frozenset(a for k, a in enumerate(atoms) if bits >> k & 1)
            assert gen.classical_eval(total, f)
    assert checked > 10


@pytest.mark.parametrize("cap, value", [
    ("_CHUNK_ATOMS", 1), ("_CHUNK_ATOMS", 2), ("_CHUNK_ATOMS", 3),
    ("_MASK_BYTES", 16),  # a few bits per node: width falls with node count
])
def test_chunk_boundaries_match_literal(cap, value, monkeypatch):
    # narrow chunks put 1-6 leading atoms outside the masks, so the first
    # countermodel often lies past the first chunk
    monkeypatch.setattr(semantics, cap, value)
    rng = random.Random(41 + value)
    found = 0
    for _ in range(150):
        atoms = tuple(f"x{k}" for k in range(rng.randint(4, 6)))
        f = program(gen.rand_prop(rng, depth=4, atoms=atoms))
        got = ht_valid(f)
        assert got == ht_valid(f, evaluator="literal"), f
        found += got is not None
    assert found > 20


def _leq(a, b):
    return conj((imp(a, b), imp(b, a)))


def _distributivity(atoms):
    # Or{And{p..}; q} <-> And{Or{p; q}..}: valid
    *ps, q = (atom(a) for a in atoms)
    return _leq(disj((conj(ps), q)), conj(disj((p, q)) for p in ps))


def _names(prefix, n):
    return [f"{prefix}{k:02d}" for k in range(n)]


@pytest.mark.parametrize("n", [14, 16])
def test_known_answers_past_one_chunk(n):
    assert n > semantics._CHUNK_ATOMS
    ps = _names("p", n - 1)
    assert ht_valid(program(_distributivity(ps + ["q"]))) is None

    # y sorts before every z, so the first countermodel (y there-only, all
    # else absent) has index 3^(n-1) and opens a later chunk
    y = atom("y")
    f = conj((_distributivity(_names("z", n - 1)), disj((y, imp(y, gen.BOT)))))
    assert ht_valid(program(f)) == HTInterpretation.of([], ["y"])

    # the only countermodel: every p both, q there-only, index 3^n - 2
    q = atom("q")
    f = imp(conj(atom(p) for p in ps), disj((q, imp(q, gen.BOT))))
    assert ht_valid(program(f)) == HTInterpretation.of(ps, ps + ["q"])


def test_deep_implication_chain():
    # q -> (q -> ... -> p) fails first at p absent, q there-only; prefixing
    # p -> makes it valid.  5000 levels exceed the recursion limit.
    p, q = atom("p"), atom("q")
    chain = p
    for _ in range(5000):
        chain = imp(q, chain)
    assert ht_valid(program(chain)) == HTInterpretation.of([], ["q"])
    assert ht_valid(program(imp(p, chain))) is None
    assert gen.engine_value(HTInterpretation.of(["q"], ["p", "q"]), chain) == 1
