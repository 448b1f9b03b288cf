"""Two-world (here/there) interpretations, the literal satisfaction
relation, and exhaustive validity checking with canonical countermodels.

Validity is checked by a bit-parallel engine; `ht_valid` can run the literal
relation instead, as a reference.  An interpretation over the sorted atoms
a_1..a_n is numbered by its states (absent 0, there-only 1, both 2) read as
base-3 digits with a_1 most significant; that number is its canonical
position.  A formula is a program (see `syntax`), and each of its entries
is evaluated once to a pair of Python ints (here, there) holding one bit
per interpretation: bit k is set when interpretation k satisfies the node
at that world.
`And`/`Or` are `&`/`|` on both masks (empty: all ones / zero),
and an implication is `there = ~lt | rt`, `here = (~lh | rh) & there`.  The
formula is valid iff the here-mask is all ones, and its lowest clear bit is
the first countermodel in canonical order.  To bound memory, at most
`_CHUNK_ATOMS` trailing atoms (fewer for large programs) go into the masks;
the leading atoms are enumerated outside in canonical order as constant
masks, so chunks are visited in canonical order too and the search stops at
the first chunk with a clear bit.  Both checkers enter the engine through
`first_countermodel`, which takes the atoms a program names in that
canonical order itself: `herbrand` with the program it grounds a first- or
second-order formula into.

Both checkers share one work budget, counted in steps: a step is one child
reference evaluated over 3^10 interpretations (`_plan`), or one node
`herbrand` may visit while grounding (`estimate_cost`).  An engine step
takes 1-2 us and a grounding step 0.6-2.5 us (README gives the measurements).
A run over budget is refused before that work starts.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from enum import IntEnum

from .errors import STEP_CAP, BudgetExceeded, capped_pow
from .syntax import AND, ATOM, CONST, IMP, OR, record

# steps either checker may spend by default (see the module docstring)
DEFAULT_BUDGET = 5 * 10**6

ABSENT, THERE_ONLY, BOTH = 0, 1, 2
STATE_NAMES = {ABSENT: "absent", THERE_ONLY: "there-only", BOTH: "both"}


class World(IntEnum):
    """The two worlds, ordered h < t."""

    H = 0
    T = 1


@record(hidden=("atoms",))
class HTInterpretation:
    """Pair of atom sets with here a subset of there.  The atoms are of one
    of three kinds: atom names (`str`) for propositional formulas, closed
    `Atom`s for a Herbrand model (what `herbrand` checks), or argument
    tuples for a second-order predicate name.

    `atoms` lists, sorted by text, the atoms an interpretation ranges over,
    absent ones included: a countermodel from `ht_valid` holds the atoms of
    its formula and one from `herbrand.hht_valid_bruteforce` the Herbrand
    base, and the CLI shows a countermodel over them.  It is empty
    elsewhere and takes no part in `==`."""

    here: frozenset
    there: frozenset
    atoms: tuple = ()  # those it ranges over

    def __post_init__(self):
        if not self.here <= self.there:
            raise ValueError("here must be a subset of there")

    @staticmethod
    def of(here: Iterable, there: Iterable) -> "HTInterpretation":
        return HTInterpretation(frozenset(here), frozenset(there))

    def world(self, w: World) -> frozenset:
        return self.here if w == World.H else self.there

    def atom_state(self, atom) -> int:
        if atom in self.here:
            return BOTH
        if atom in self.there:
            return THERE_ONLY
        return ABSENT


def satisfies(i: HTInterpretation, w: World, prog: list, k: int = -1) -> bool:
    """Literal recursive satisfaction of entry `k` of the program `prog`
    (its formula by default), one call per subformula and world it is
    asked at; the implication clause quantifies over both worlds w' >= w."""
    op, arg = prog[k]
    if op == ATOM:
        return arg in i.world(w)
    if op == AND:
        return all(satisfies(i, w, prog, g) for g in arg)
    if op == OR:
        return any(satisfies(i, w, prog, g) for g in arg)
    if op == IMP:
        l, r = arg
        for w2 in (World.H, World.T):
            if w2 >= w and satisfies(i, w2, prog, l) and not satisfies(i, w2, prog, r):
                return False
        return True
    raise TypeError(f"not a propositional program entry: {prog[k]!r}")


# the widest chunk, in trailing atoms: 3**13 bits is about 200 KB per mask
_CHUNK_ATOMS = 13
# bytes the masks of all nodes may hold at once; bounds the chunk width
_MASK_BYTES = 1 << 25


def _evaluate(prog, masks: dict, full: int) -> tuple[int, int]:
    """(here, there) masks of the root of the program `prog`; `full` has
    one bit per interpretation and `masks` gives each atom's pair."""
    hs: list[int] = []
    ts: list[int] = []
    for op, arg in prog:
        if op == ATOM:
            h, t = masks[arg]
        elif op == IMP:
            l, r = arg
            t = (full ^ ts[l]) | ts[r]
            h = ((full ^ hs[l]) | hs[r]) & t
        elif op == AND:
            h = t = full
            for k in arg:
                h &= hs[k]
                t &= ts[k]
        elif op == CONST:
            h = full if arg == BOTH else 0
            t = full if arg != ABSENT else 0
        else:
            h = t = 0
            for k in arg:
                h |= hs[k]
                t |= ts[k]
        hs.append(h)
        ts.append(t)
    return hs[-1], ts[-1]


def _digit_masks(weight: int, size: int) -> tuple[int, int]:
    """(here, there) masks over `size` bits for the base-3 digit of the given
    weight: bit k is set where that digit of k is 2, resp. at least 1.  One
    period is built directly and doubled until it covers `size` bits."""
    ones = (1 << weight) - 1
    here = ones << 2 * weight
    there = here | ones << weight
    filled = 3 * weight
    while filled < size:
        here |= here << filled
        there |= there << filled
        filled *= 2
    full = (1 << size) - 1
    return here & full, there & full


def _plan(prog, n_atoms: int, budget: int, spent: int = 0) -> int:
    """The trailing atoms to evaluate `prog` over at once, so that one (here,
    there) pair per node stays within `_MASK_BYTES`; raises BudgetExceeded
    first if `spent` plus the engine's steps exceed `budget`.  A step is one
    big-int operation per child reference and per 3^10 interpretations, and
    a chunk narrower than 10 atoms, as many nodes force, still costs one."""
    width = min(n_atoms, _CHUNK_ATOMS)
    while width > 0 and len(prog) * 3 ** width > _MASK_BYTES * 4:
        width -= 1
    refs = sum(len(arg) for op, arg in prog if op in (AND, OR, IMP))
    steps = min(spent + refs * capped_pow(3, max(n_atoms - min(width, 10), 0)), STEP_CAP)
    if steps > budget:
        raise BudgetExceeded(steps, budget)
    return width


def _atoms(prog) -> list:
    """The atoms `prog` names, sorted by text (`str`): the canonical order."""
    return sorted({arg for op, arg in prog if op == ATOM}, key=str)


def first_countermodel(prog, budget: int, spent: int = 0) -> HTInterpretation | None:
    """The first interpretation in canonical order over the atoms `prog`
    names (`_atoms`, first most significant) that fails `prog` at h, with
    those atoms as its `atoms`, or None; `_plan` charges `spent` first.  The
    trailing atoms are the least significant digits, so inside a chunk the
    bit index is the canonical order; the leading atoms are enumerated
    outside it in canonical order as constant masks."""
    atoms = _atoms(prog)
    width = _plan(prog, len(atoms), budget, spent)
    split = len(atoms) - width
    lead, trail = atoms[:split], atoms[split:]
    size = 3 ** width
    full = (1 << size) - 1
    masks = {a: _digit_masks(3 ** (width - 1 - j), size) for j, a in enumerate(trail)}
    for outer in enumerate_interpretations(lead):
        for a in lead:
            masks[a] = (full if a in outer.here else 0, full if a in outer.there else 0)
        h, _ = _evaluate(prog, masks, full)
        if h != full:
            miss = full ^ h
            index = (miss & -miss).bit_length() - 1
            here, there = set(outer.here), set(outer.there)
            for a in reversed(trail):
                index, s = divmod(index, 3)
                if s == BOTH:
                    here.add(a)
                if s != ABSENT:
                    there.add(a)
            return HTInterpretation(frozenset(here), frozenset(there), tuple(atoms))
    return None


def enumerate_interpretations(atoms: Iterable) -> Iterator[HTInterpretation]:
    """All interpretations over `atoms` in their order: per-atom states
    counted absent < there-only < both, first atom most significant.  Over
    atoms sorted by text (`str`) this is the canonical order."""
    atoms = tuple(atoms)
    for states in itertools.product((ABSENT, THERE_ONLY, BOTH), repeat=len(atoms)):
        here = frozenset(a for a, s in zip(atoms, states) if s == BOTH)
        there = frozenset(a for a, s in zip(atoms, states) if s != ABSENT)
        yield HTInterpretation(here, there)


def ht_valid(
    f: list,
    budget: int = DEFAULT_BUDGET,
    *,
    evaluator: str = "g3",
) -> HTInterpretation | None:
    """Exhaustively check validity of the program `f` over the atoms it
    names.

    Returns None when valid, otherwise the first failing interpretation in
    canonical order, whose `atoms` are the atoms of `f`, sorted: those it
    ranges over, which a caller shows it over.  `evaluator` picks the
    three-valued tables evaluated over all interpretations at once by the
    bit-parallel engine ("g3") or the literal satisfaction recursion
    ("literal"); both define the same relation.  Raises BudgetExceeded,
    before evaluating, when the engine would need more than `budget` steps,
    whichever evaluator runs.
    """
    if evaluator == "g3":
        return first_countermodel(f, budget)
    if evaluator != "literal":
        raise ValueError(f"unknown evaluator {evaluator!r}")
    atoms = _atoms(f)
    _plan(f, len(atoms), budget)
    for i in enumerate_interpretations(atoms):
        if not satisfies(i, World.H, f):
            return HTInterpretation(i.here, i.there, tuple(atoms))
    return None


def render_countermodel(i: HTInterpretation, atoms: Iterable) -> str:
    """One `atom: state` line per atom, sorted by text."""
    lines = []
    for a in sorted(set(atoms), key=str):
        lines.append(f"{a}: {STATE_NAMES[i.atom_state(a)]}")
    return "\n".join(lines)


__all__ = [
    "World",
    "HTInterpretation",
    "satisfies",
    "ht_valid",
    "first_countermodel",
    "enumerate_interpretations",
    "render_countermodel",
    "DEFAULT_BUDGET",
]
