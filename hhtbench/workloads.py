"""Seeded inputs for the four benchmark workloads, each with its known answer.

A workload is a list of `Case`s.  A case is one `hhtkit` command line plus the
answer the CLI must give: the exit code and either selected fields of the
`--json` report or the exact text output.  Generated inputs are files whose
text is built here, so every answer is known by construction and none is
computed by the program under test.  The seed changes names, carves and order,
never the amount of work, so different seeds give comparable timings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

HERBRAND_BUDGET = "10000000"


@dataclass
class Case:
    id: str
    argv: list[str]  # "{dir}" in an argument stands for the work directory
    exit: int
    json: dict = field(default_factory=dict)  # dotted path -> expected value
    stdout: str | None = None  # exact text output, for non-JSON commands
    files: dict[str, str] = field(default_factory=dict)  # name -> text to write


# ---------------------------------------------------------------------------
# corpus: the shipped CorpusCases, run the way each one implies

# The depth-3 instance of example7 has one canonical first countermodel; the
# literal evaluator gives the same one.
_EXAMPLE7_COUNTERMODEL = {
    "f0": "there-only", "f1": "there-only", "f2": "there-only",
    "f3": "there-only", "f4": "absent",
}
_KNOWN_COUNTERMODELS = {
    "lem": {"p": "there-only"},
    "dne": {"p": "there-only"},
    "example7": _EXAMPLE7_COUNTERMODEL,
}


def corpus(seed: int, corpus_cases, data_path) -> list[Case]:
    """`corpus_cases` and `data_path` are `hhtkit.corpus.cases` and
    `hhtkit.corpus.data_path`: the registry is the program's own list."""
    out = []
    for c in corpus_cases():
        depth = [] if c.depth is None else ["--depth", str(c.depth)]
        known = _KNOWN_COUNTERMODELS.get(c.name)
        if c.proof and c.subst:
            argv = ["pipeline", data_path(c.proof), data_path(c.subst), *depth]
            valid = c.expect_instance == "valid"
            certifying = valid and c.depth is None
            expect = {
                "proof.verdict": "accepted",
                "validity.verdict": "valid" if valid else "countermodel",
                "certifying": certifying,
            }
            code = 0 if certifying else 1
        elif c.proof:
            argv = ["check-proof", data_path(c.proof), *depth]
            code = 0 if c.expect_proof == "accepted" else 1
            expect = {"proof.verdict": c.expect_proof}
            if c.name == "classical":
                expect.update({"proof.line": 1, "proof.kind": "SchemaMismatch"})
        else:
            argv = ["ht-valid", data_path(c.prop)]
            valid = c.expect_instance == "valid"
            code = 0 if valid else 1
            expect = {"validity.verdict": "valid" if valid else "countermodel"}
        if known is not None:
            expect["validity.countermodel"] = known
        out.append(Case(c.name, argv + ["--json"], code, json=expect))
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# ht_atoms: propositional formulas of 7-10 atoms in three shapes

HT_SIZES = (7, 8, 9, 10)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def atom_names(rng: random.Random, n: int) -> list[str]:
    """n distinct four-letter names, sorted: roles are assigned by sorted
    position, so the canonical order of every shape is the same for every
    seed."""
    names: set[str] = set()
    while len(names) < n:
        names.add("".join(rng.choice(_LETTERS) for _ in range(4)))
    return sorted(names)


def _distributive(ps: list[str], q: str) -> str:
    return "Or{And{%s}; %s} <-> And{%s}" % (
        "; ".join(ps), q, "; ".join(f"Or{{{p}; {q}}}" for p in ps))


def ht_shape(shape: str, names: list[str]) -> tuple[str, dict[str, str] | None]:
    """Formula text over the sorted `names` and its first countermodel in
    canonical order (None when valid).

    - valid: distributivity, so all 3^n interpretations are examined;
    - early: distributivity plus `y | not y`, with y placed so that the first
      countermodel (y there-only, all else absent) has index 3^(n//2);
    - late: `And{p..} -> Or{q; not q}` with q last, so the only countermodel
      (every p both, q there-only) has index 3^n - 2.
    """
    n = len(names)
    if shape == "valid":
        return _distributive(names[:-1], names[-1]), None
    if shape == "early":
        y = names[n - 1 - n // 2]
        rest = [a for a in names if a != y]
        text = "And{(%s); Or{%s; not %s}}" % (_distributive(rest[:-1], rest[-1]), y, y)
        return text, {a: "there-only" if a == y else "absent" for a in names}
    if shape == "late":
        ps, q = names[:-1], names[-1]
        text = "And{%s} -> Or{%s; not %s}" % ("; ".join(ps), q, q)
        return text, {a: "there-only" if a == q else "both" for a in names}
    raise ValueError(shape)


HT_SHAPES = ("valid", "early", "late")


def ht_atoms(seed: int) -> list[Case]:
    rng = random.Random(seed)
    out = []
    for n in HT_SIZES:
        for shape in HT_SHAPES:
            text, counter = ht_shape(shape, atom_names(rng, n))
            name = f"{shape}{n}.prop"
            expect = {"validity.verdict": "valid" if counter is None else "countermodel"}
            if counter is not None:
                expect["validity.countermodel"] = counter
            out.append(Case(f"{shape}{n}", ["ht-valid", "{dir}/" + name, "--json"],
                            0 if counter is None else 1, json=expect,
                            files={name: text + "\n"}))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# herbrand: first-order formulas checked over the Herbrand base
#
# Formulas are tuples:  ("atom", pred, args) ("eq", s, t) ("bot",)
# ("not", f) ("bin", op, l, r) ("q", kind, var, body); terms are names.

# Herbrand base size -> (constants, unary predicates, nullary predicates)
BASE_SHAPES = {2: (1, 1, 1), 3: (2, 1, 1), 4: (3, 1, 1), 5: (2, 2, 1), 6: (2, 2, 2), 7: (3, 2, 1)}


def herbrand_signatures(rng: random.Random) -> dict[int, tuple]:
    """Seeded names for each base shape.  Renaming constants and predicates
    permutes the interpretations, so a valid formula costs the same whatever
    names the seed picks."""
    def fresh(first, count, taken):
        out = []
        while len(out) < count:
            name = first() + "".join(rng.choice(_LETTERS) for _ in range(2))
            if name not in taken:
                taken.add(name)
                out.append(name)
        return tuple(out)

    sigs = {}
    for size, (nc, nu, nn) in BASE_SHAPES.items():
        taken = {"And"}
        consts = fresh(lambda: "k", nc, taken)
        preds = fresh(lambda: rng.choice(_LETTERS.upper()), nu + nn, taken)
        sigs[size] = (consts, preds[:nu], preds[nu:])
    return sigs


def fo_text(f) -> str:
    """Fully parenthesized formula text in the hhtkit file syntax."""
    tag = f[0]
    if tag == "atom":
        _, pred, args = f
        return f"{pred}({','.join(args)})" if args else pred
    if tag == "eq":
        return f"({f[1]} = {f[2]})"
    if tag == "bot":
        return "bot"
    if tag == "not":
        return f"not {fo_text(f[1])}"
    if tag == "bin":
        return f"({fo_text(f[2])} {f[1]} {fo_text(f[3])})"
    if tag == "q":
        return f"({f[1]} {f[2]} {fo_text(f[3])})"
    raise ValueError(tag)


def fo_subst(f, var: str, term: str):
    """Replace the free occurrences of `var` by the constant `term`."""
    tag = f[0]
    if tag == "atom":
        return ("atom", f[1], tuple(term if a == var else a for a in f[2]))
    if tag == "eq":
        return ("eq", *(term if a == var else a for a in f[1:]))
    if tag == "bot":
        return f
    if tag == "not":
        return ("not", fo_subst(f[1], var, term))
    if tag == "bin":
        return ("bin", f[1], fo_subst(f[2], var, term), fo_subst(f[3], var, term))
    if f[2] == var:
        return f
    return ("q", f[1], f[2], fo_subst(f[3], var, term))


def _imp(a, b):
    return ("bin", "->", a, b)


def _lit(rng, sig, var: str | None):
    """An atom over `var` (or a constant when var is None)."""
    consts, unary, nullary = sig
    if var is None:
        if rng.random() < 0.5:
            return ("atom", rng.choice(nullary), ())
        return ("atom", rng.choice(unary), (rng.choice(consts),))
    return ("atom", rng.choice(unary), (var,))


def _sub(rng, sig, free: str | None = None, bound: str = "v"):
    """A quantified subformula of fixed shape `Q v (A(v) op A')`, where A'
    mentions `free` when given; `rng` picks the kind, op and atoms."""
    kind = rng.choice(("forall", "exists"))
    op = rng.choice(("&", "|"))
    body = ("bin", op, _lit(rng, sig, bound), _lit(rng, sig, free))
    return ("q", kind, bound, body)


def _closed_schema(schema: str, rng, sig):
    consts = sig[0]
    if schema in ("k", "s", "and-elim-left", "and-elim-right", "and-intro",
                  "or-intro-left", "or-intro-right", "or-elim", "efq", "hosoi"):
        f, g, h = (_sub(rng, sig) for _ in range(3))
        return {
            "k": lambda: _imp(f, _imp(g, f)),
            "s": lambda: _imp(_imp(f, _imp(g, h)), _imp(_imp(f, g), _imp(f, h))),
            "and-elim-left": lambda: _imp(("bin", "&", f, g), f),
            "and-elim-right": lambda: _imp(("bin", "&", f, g), g),
            "and-intro": lambda: _imp(f, _imp(g, ("bin", "&", f, g))),
            "or-intro-left": lambda: _imp(f, ("bin", "|", f, g)),
            "or-intro-right": lambda: _imp(g, ("bin", "|", f, g)),
            "or-elim": lambda: _imp(_imp(f, h), _imp(_imp(g, h), _imp(("bin", "|", f, g), h))),
            "efq": lambda: _imp(("bot",), f),
            "hosoi": lambda: ("bin", "|", ("bin", "|", f, _imp(f, g)), ("not", g)),
        }[schema]()
    fx = _sub(rng, sig, free="x")  # mentions x free
    t1, t2 = rng.choice(consts), rng.choice(consts)
    if schema == "forall-elim":
        return _imp(("q", "forall", "x", fx), fo_subst(fx, "x", t1))
    if schema == "exists-intro":
        return _imp(fo_subst(fx, "x", t1), ("q", "exists", "x", fx))
    if schema == "eq-subst":
        return _imp(("eq", t1, t2), _imp(fo_subst(fx, "x", t1), fo_subst(fx, "x", t2)))
    if schema == "sqht":
        return ("q", "exists", "x", _imp(fx, ("q", "forall", "x", fx)))
    if schema == "dec-eq":
        eq = ("eq", "x", "y")
        return ("q", "forall", "x", ("q", "forall", "y", ("bin", "|", eq, ("not", eq))))
    if schema == "eq-refl":
        return ("q", "forall", "x", ("eq", "x", "x"))
    raise ValueError(schema)


SCHEMAS = ("k", "s", "and-elim-left", "and-elim-right", "and-intro",
           "or-intro-left", "or-intro-right", "or-elim", "efq", "hosoi",
           "forall-elim", "exists-intro", "eq-subst", "sqht", "dec-eq", "eq-refl")


def signature_text(consts, unary, nullary) -> str:
    preds = [f"{p}/1" for p in unary] + [f"{p}/0" for p in nullary]
    return f"const {', '.join(consts)}.  pred {', '.join(preds)}."


def herbrand_base_text(sig) -> list[str]:
    """The Herbrand base as the CLI renders it, in canonical (text) order."""
    consts, unary, nullary = sig
    return sorted([f"{p}({c})" for p in unary for c in consts] + list(nullary))


def _fof_case(case_id: str, sig_text: str, f, stdout: str, code: int) -> Case:
    name = f"{case_id}.fof"
    return Case(case_id, ["herbrand-check", "{dir}/" + name, "--budget", HERBRAND_BUDGET],
                code, stdout=stdout, files={name: f"{sig_text}\n{fo_text(f)}\n"})


_VALID = "valid over all interpretations (exact)\n"


def _countermodel_text(states: dict[str, str]) -> str:
    lines = [f"{a}: {states[a]}" for a in sorted(states)]
    return "countermodel found (exact):\n" + "\n".join(lines) + "\n"


def _shape_rng(case_id: str) -> random.Random:
    # the formula's shape is fixed per case; only the names vary by seed
    return random.Random(case_id)


def herbrand(seed: int, excluded_middle_path: str) -> list[Case]:
    rng = random.Random(seed)
    sigs = herbrand_signatures(rng)
    out = []
    # each schema at two base sizes, three apart, so every size gets the
    # same share of schemas
    for i, schema in enumerate(SCHEMAS):
        for size in (2 + i % 6, 2 + (i + 3) % 6):
            case_id = f"{schema}-b{size}"
            f = _closed_schema(schema, _shape_rng(case_id), sigs[size])
            out.append(_fof_case(case_id, signature_text(*sigs[size]), f, _VALID, 0))

    # second-order postulates over two constants
    sig = sigs[3]
    for arity in (0, 1):
        case_id = f"comprehension{arity}"
        fx = _sub(_shape_rng(case_id), sig, free="x" if arity else None)
        p = ("atom", "p", ("x",) if arity else ())
        body = ("bin", "&", _imp(p, fx), _imp(fx, p))
        if arity:
            body = ("q", "forall", "x", body)
        out.append(_fof_case(case_id, signature_text(*sig),
                             ("q", "exists", f"p/{arity}", body), _VALID, 0))
    choice = ("q", "forall", "p/2", _imp(
        ("q", "forall", "x", ("q", "exists", "y", ("atom", "p", ("x", "y")))),
        ("q", "exists", "g^1", ("q", "forall", "x", ("atom", "p", ("x", "g(x)"))))))
    out.append(_fof_case("choice", signature_text(sig[0], (), sig[2]), choice, _VALID, 0))
    for k in (1, 2):
        consts = sigs[3 + k][0][:k]
        closed = ("atom", "p", (consts[0],))
        for c in consts[1:]:
            closed = ("bin", "&", closed, ("atom", "p", (c,)))
        dca = ("q", "forall", "p/1", _imp(closed, ("q", "forall", "x", ("atom", "p", ("x",)))))
        out.append(_fof_case(f"dca{k}", signature_text(consts, sigs[3 + k][1][:1], ()),
                             dca, _VALID, 0))

    # negative controls: the shipped excluded-middle instance, then formulas
    # whose canonical first countermodel comes first or last
    out.append(Case("excluded_middle", ["herbrand-check", excluded_middle_path],
                    1, stdout=_countermodel_text({"P(a)": "there-only"})))
    for size in (5, 7):
        sig = sigs[size]
        base = herbrand_base_text(sig)
        last = base[-1]
        lem = ("bin", "|", _ground(last), ("not", _ground(last)))
        case_id = f"early-b{size}"
        valid = _closed_schema(SCHEMAS[size], _shape_rng(case_id), sig)
        out.append(_fof_case(case_id, signature_text(*sig), ("bin", "&", valid, lem),
                             _countermodel_text({a: "there-only" if a == last else "absent"
                                                 for a in base}), 1))
        ant = _ground(base[0])
        for a in base[1:-1]:
            ant = ("bin", "&", ant, _ground(a))
        out.append(_fof_case(f"late-b{size}", signature_text(*sig), _imp(ant, lem),
                             _countermodel_text({a: "there-only" if a == last else "both"
                                                 for a in base}), 1))
    rng.shuffle(out)
    return out


def _ground(text: str):
    """The atom tuple of a rendered ground atom such as `P(a)` or `Q`."""
    pred, _, arg = text.partition("(")
    return ("atom", pred, (arg.rstrip(")"),) if arg else ())


# ---------------------------------------------------------------------------
# universe: instantiate two corpus conclusions over large constant sets
#
# Propositional formulas are tuples ("atom", name) ("and", items)
# ("or", items) ("imp", l, r), printed the way the CLI prints instances.

EXAMPLE6_SIZES = (10, 20, 30, 40, 50, 60)
# one size fewer, so the median call is an example6 one
SUBSUM4_SIZES = (10, 20, 30, 40, 50)
EXAMPLE6 = "exists (x:R1) P(x) & exists (y:R2) Q(y) <-> exists (x:R1, y:R2) (P(x) & Q(y))"
SUBSUM4 = "exists x P(x) & Q <-> exists x (P(x) & Q)"


def prop_text(f) -> str:
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag in ("and", "or"):
        if not f[1]:
            return "top" if tag == "and" else "bot"
        inner = "; ".join(sorted({prop_text(c) for c in f[1]}))
        return ("And{" if tag == "and" else "Or{") + inner + "}"
    left = prop_text(f[1])
    if f[1][0] == "imp":
        left = f"({left})"
    return f"{left} -> {prop_text(f[2])}"


def prop_rank(f) -> int:
    if f[0] == "atom":
        return 0
    if f[0] == "imp":
        return max(prop_rank(f[1]), prop_rank(f[2])) + 1
    return max((prop_rank(c) for c in f[1]), default=-1) + 1


def _iff(a, b):
    return ("and", (("imp", a, b), ("imp", b, a)))


def _instantiate_case(case_id, sig_text, formula, subst_lines, instance, n_atoms) -> Case:
    fof, sub = f"{case_id}.fof", f"{case_id}.subst"
    return Case(
        case_id, ["instantiate", "{dir}/" + fof, "{dir}/" + sub, "--json"], 0,
        json={"instantiation.atoms": n_atoms, "instantiation.rank": prop_rank(instance),
              "instance": prop_text(instance)},
        files={fof: f"{sig_text}\n{formula}\n", sub: "\n".join([sig_text, *subst_lines]) + "\n"},
    )


def example6_case(rng: random.Random, k: int) -> Case:
    """k constants carved into each restrictor, plus k//5 in neither."""
    consts = [f"c{i}" for i in range(1, 2 * k + k // 5 + 1)]
    carve = consts[:]
    rng.shuffle(carve)
    r1, r2 = set(carve[:k]), set(carve[k:2 * k])
    sig = f"const {', '.join(consts)}.  pred P/1, Q/1.  restrictor R1/1, R2/1."
    lines = []
    for c in consts:
        lines += [f"P({c}) := p_{c};", f"Q({c}) := q_{c};",
                  f"R1({c}) := {'top' if c in r1 else 'bot'};",
                  f"R2({c}) := {'top' if c in r2 else 'bot'};"]
    ps = tuple(("atom", f"p_{c}") for c in consts if c in r1)
    qs = tuple(("atom", f"q_{c}") for c in consts if c in r2)
    left = ("and", (("or", ps), ("or", qs)))
    right = ("or", tuple(("and", (p, q)) for p in ps for q in qs))
    return _instantiate_case(f"example6-k{k}", sig, EXAMPLE6, lines, _iff(left, right), 2 * k)


def subsum4_case(rng: random.Random, k: int) -> Case:
    consts = [f"c{i}" for i in range(1, k + 1)]
    rng.shuffle(consts)
    sig = f"const {', '.join(consts)}.  pred P/1, Q/0."
    lines = [f"P({c}) := p_{c};" for c in consts] + ["Q := g;"]
    ps = tuple(("atom", f"p_{c}") for c in consts)
    g = ("atom", "g")
    left = ("and", (("or", ps), g))
    right = ("or", tuple(("and", (p, g)) for p in ps))
    return _instantiate_case(f"subsum4-k{k}", sig, SUBSUM4, lines, _iff(left, right), k + 1)


def universe(seed: int) -> list[Case]:
    rng = random.Random(seed)
    out = [example6_case(rng, k) for k in EXAMPLE6_SIZES]
    out += [subsum4_case(rng, k) for k in SUBSUM4_SIZES]
    rng.shuffle(out)
    return out
