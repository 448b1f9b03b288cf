#!/usr/bin/env python3
"""Regenerate the shipped corpus under src/hhtkit/data/.

Every proof is constructed with the ProofBuilder of `tools/builder.py`,
re-checked by the kernel, serialized, re-parsed and re-checked again, so
the shipped files are known to round-trip.  Run from the repository root:

    python tools/mkcorpus.py
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from builder import ProofBuilder, render_proof, render_signature, render_subst
from hhtkit.instantiation import Substitution
from hhtkit.kernel import TheoryLevel, check_proof
from hhtkit.parser import (
    parse_formula_text,
    parse_proof_file,
    parse_prop_text,
    parse_subst_file,
)
from hhtkit.syntax import (
    Atom,
    FnApp,
    Signature,
    Var,
    const,
)

DATA = HERE.parent / "src" / "hhtkit" / "data"


def write(name: str, text: str) -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / name).write_text(text, encoding="utf-8")
    print(f"wrote {name}")


def emit_proof(name: str, proof) -> None:
    check_proof(proof)
    text = render_proof(proof)
    reparsed = parse_proof_file(text)
    assert reparsed == proof, f"{name}: proof text does not round-trip"
    check_proof(reparsed)
    write(name, text)


def emit_subst(name: str, subst: Substitution) -> None:
    text = render_subst(subst)
    reparsed = parse_subst_file(text)
    assert reparsed.entries == subst.entries and reparsed.defaults == subst.defaults
    write(name, text)


# ---------------------------------------------------------------------------
# signatures shared by the cases

SIG3 = Signature.make({"c1": 0, "c2": 0, "c3": 0}, {"P": 1})
SIG3Q = Signature.make({"c1": 0, "c2": 0, "c3": 0}, {"P": 1, "Q": 0})
SIG3R = Signature.make({"c1": 0, "c2": 0, "c3": 0}, {"P": 1, "R": 1}, {"R"})
SIG_AB = Signature.make(
    {"a1": 0, "a2": 0, "b1": 0, "b2": 0},
    {"P": 1, "Q": 1, "R1": 1, "R2": 1},
    {"R1", "R2"},
)
SIG_F = Signature.make({"a": 0, "b": 0, "f": 1}, {"P": 1})
SIG_IND = Signature.make({"a": 0, "s": 1}, {"P": 1})
SIG2PQ = Signature.make({"c1": 0, "c2": 0}, {"P": 1, "Q": 1})


def f(sig: Signature, text: str):
    return parse_formula_text(text, sig)


# ---------------------------------------------------------------------------
# proofs

def proof_example1a():
    # forall x not P(x) <-> not exists x P(x)
    b = ProofBuilder(SIG3)
    x = Var("x")
    A = f(SIG3, "forall x not P(x)")
    E = f(SIG3, "exists x P(x)")
    Px = f(SIG3, "P(x)")

    hA = b.hyp(A)
    hE = b.hyp(E)
    hPx = b.hyp(Px)
    dbot = b.mp(hPx, b.forall_e(hA, x))
    dbot_all = b.exists_e(hE, x, dbot)
    fwd = b.imp_i(A, b.not_i(E, dbot_all))

    N = f(SIG3, "not exists x P(x)")
    hN = b.hyp(N)
    hPx2 = b.hyp(Px)
    dex = b.exists_i(hPx2, x, Px, x)
    dnp = b.not_i(Px, b.mp(dex, hN))
    back = b.imp_i(N, b.forall_i(x, dnp))

    return b.build(b.iff_i(fwd, back))


def proof_example1b():
    # exists x not P(x) <-> not forall x P(x)
    b = ProofBuilder(SIG3)
    x = Var("x")
    E = f(SIG3, "exists x not P(x)")
    A = f(SIG3, "forall x P(x)")
    Px = f(SIG3, "P(x)")
    nPx = f(SIG3, "not P(x)")

    hE = b.hyp(E)
    hA = b.hyp(A)
    hn = b.hyp(nPx)
    dbot = b.mp(b.forall_e(hA, x), hn)
    dbot_all = b.exists_e(hE, x, dbot)
    fwd = b.imp_i(E, b.not_i(A, dbot_all))

    N = f(SIG3, "not forall x P(x)")
    hN = b.hyp(N)
    dsq = b.ax("sqht", x=x, F=Px)
    C = f(SIG3, "P(x) -> forall x P(x)")
    hC = b.hyp(C)
    hPx = b.hyp(Px)
    dnp = b.not_i(Px, b.mp(b.mp(hPx, hC), hN))
    dgoal = b.exists_i(dnp, x, nPx, x)
    dE = b.exists_e(dsq, x, dgoal)
    back = b.imp_i(N, dE)

    return b.build(b.iff_i(fwd, back))


def proof_subsum4():
    # exists x P(x) & Q <-> exists x (P(x) & Q)
    b = ProofBuilder(SIG3Q)
    x = Var("x")
    Px = f(SIG3Q, "P(x)")
    PxQ = f(SIG3Q, "P(x) & Q")
    L = f(SIG3Q, "exists x P(x) & Q")
    R = f(SIG3Q, "exists x (P(x) & Q)")

    hL = b.hyp(L)
    hPx = b.hyp(Px)
    dex = b.exists_i(b.and_i(hPx, b.and_e2(hL)), x, PxQ, x)
    fwd = b.imp_i(L, b.exists_e(b.and_e1(hL), x, dex))

    hR = b.hyp(R)
    hPQ = b.hyp(PxQ)
    dl = b.and_i(b.exists_i(b.and_e1(hPQ), x, Px, x), b.and_e2(hPQ))
    back = b.imp_i(R, b.exists_e(hR, x, dl))

    return b.build(b.iff_i(fwd, back))


def proof_example2():
    # forall x P(x) | Q <-> forall x (P(x) | Q)
    b = ProofBuilder(SIG3Q)
    x = Var("x")
    Px = f(SIG3Q, "P(x)")
    Q = f(SIG3Q, "Q")
    A = f(SIG3Q, "forall x P(x)")
    L = f(SIG3Q, "forall x P(x) | Q")
    R = f(SIG3Q, "forall x (P(x) | Q)")

    hA = b.hyp(A)
    c1 = b.imp_i(A, b.forall_i(x, b.or_i1(b.forall_e(hA, x), Q)))
    hQ = b.hyp(Q)
    c2 = b.imp_i(Q, b.forall_i(x, b.or_i2(hQ, Px)))
    hL = b.hyp(L)
    fwd = b.imp_i(L, b.or_e(hL, c1, c2))

    hR = b.hyp(R)
    dsq = b.ax("sqht", x=x, F=Px)
    C = f(SIG3Q, "P(x) -> forall x P(x)")
    hC = b.hyp(C)
    hPx = b.hyp(Px)
    k1 = b.imp_i(Px, b.or_i1(b.mp(hPx, hC), Q))
    hQ2 = b.hyp(Q)
    k2 = b.imp_i(Q, b.or_i2(hQ2, A))
    dgoal = b.or_e(b.forall_e(hR, x), k1, k2)
    back = b.imp_i(R, b.exists_e(dsq, x, dgoal))

    return b.build(b.iff_i(fwd, back))


def proof_example3():
    # (exists x P(x) -> Q) <-> forall x (P(x) -> Q)
    b = ProofBuilder(SIG3Q)
    x = Var("x")
    Px = f(SIG3Q, "P(x)")
    E = f(SIG3Q, "exists x P(x)")
    L = f(SIG3Q, "exists x P(x) -> Q")
    R = f(SIG3Q, "forall x (P(x) -> Q)")

    hL = b.hyp(L)
    hPx = b.hyp(Px)
    dq = b.mp(b.exists_i(hPx, x, Px, x), hL)
    fwd = b.imp_i(L, b.forall_i(x, b.imp_i(Px, dq)))

    hR = b.hyp(R)
    hE = b.hyp(E)
    hPx2 = b.hyp(Px)
    dq2 = b.mp(hPx2, b.forall_e(hR, x))
    back = b.imp_i(R, b.imp_i(E, b.exists_e(hE, x, dq2)))

    return b.build(b.iff_i(fwd, back))


def proof_example4():
    b = ProofBuilder(SIG3)
    return b.build(b.ax("sqht", x=Var("x"), F=f(SIG3, "P(x)")))


def proof_example5():
    # forall x P(x) -> forall (x:R) P(x)
    b = ProofBuilder(SIG3R)
    x = Var("x")
    A = f(SIG3R, "forall x P(x)")
    Rx = f(SIG3R, "R(x)")

    hA = b.hyp(A)
    core = b.imp_i(Rx, b.forall_e(hA, x))
    d = b.imp_i(A, b.forall_i(x, core))
    return b.build(d, presentation=f(SIG3R, "forall x P(x) -> forall (x:R) P(x)"))


def proof_example6():
    # exists (x:R1) P(x) & exists (y:R2) Q(y) <-> exists (x:R1, y:R2) (P(x) & Q(y))
    b = ProofBuilder(SIG_AB)
    x, y = Var("x"), Var("y")
    EL = f(SIG_AB, "exists x (R1(x) & P(x))")
    ER = f(SIG_AB, "exists y (R2(y) & Q(y))")
    L = f(SIG_AB, "exists x (R1(x) & P(x)) & exists y (R2(y) & Q(y))")
    core = f(SIG_AB, "(R1(x) & R2(y)) & (P(x) & Q(y))")
    inner = f(SIG_AB, "exists y ((R1(x) & R2(y)) & (P(x) & Q(y)))")
    R = f(SIG_AB, "exists x exists y ((R1(x) & R2(y)) & (P(x) & Q(y)))")

    hL = b.hyp(L)
    hx = b.hyp(f(SIG_AB, "R1(x) & P(x)"))
    hy = b.hyp(f(SIG_AB, "R2(y) & Q(y)"))
    dcore = b.and_i(
        b.and_i(b.and_e1(hx), b.and_e1(hy)),
        b.and_i(b.and_e2(hx), b.and_e2(hy)),
    )
    dex = b.exists_i(b.exists_i(dcore, y, core, y), x, inner, x)
    d1 = b.exists_e(b.and_e2(hL), y, dex)
    d2 = b.exists_e(b.and_e1(hL), x, d1)
    fwd = b.imp_i(L, d2)

    hR = b.hyp(R)
    h1 = b.hyp(inner)
    h2 = b.hyp(core)
    dguard = b.and_e1(h2)
    dbody = b.and_e2(h2)
    dl = b.exists_i(b.and_i(b.and_e1(dguard), b.and_e1(dbody)), x, f(SIG_AB, "R1(x) & P(x)"), x)
    dr = b.exists_i(b.and_i(b.and_e2(dguard), b.and_e2(dbody)), y, f(SIG_AB, "R2(y) & Q(y)"), y)
    dL = b.and_i(dl, dr)
    e1 = b.exists_e(h1, y, dL)
    e2 = b.exists_e(hR, x, e1)
    back = b.imp_i(R, e2)

    return b.build(
        b.iff_i(fwd, back),
        presentation=f(
            SIG_AB,
            "exists (x:R1) P(x) & exists (y:R2) Q(y) <-> exists (x:R1, y:R2) (P(x) & Q(y))",
        ),
    )


def proof_example5_alt():
    # forall x P(x) -> forall x P(f(x))
    b = ProofBuilder(SIG_F)
    x = Var("x")
    A = f(SIG_F, "forall x P(x)")
    hA = b.hyp(A)
    d = b.imp_i(A, b.forall_i(x, b.forall_e(hA, FnApp("f", (Var("x"),)))))
    return b.build(d)


def proof_example7():
    # P(a) & forall x (P(x) -> P(s(x))) <-> forall x P(x), via the domain
    # closure axiom at the top theory level
    b = ProofBuilder(SIG_IND, TheoryLevel.HHT2_DCA)
    x, y = Var("x"), Var("y")
    from hhtkit.syntax import PredVar

    p = PredVar("p", 1)
    LHS = f(SIG_IND, "P(a) & forall x (P(x) -> P(s(x)))")
    RHS = f(SIG_IND, "forall x P(x)")

    d_dca = b.ax("dca", p=p, x=x)
    G = f(SIG_IND, "p(a) & forall x (p(x) -> p(s(x))) -> forall x p(x)")
    d_abs = b.ax("so-forall-elim-abs", p=p, G=G, xs=[y], F=f(SIG_IND, "P(y)"))
    fwd = b.mp(d_dca, d_abs)
    assert fwd.formula == f(SIG_IND, "P(a) & forall x (P(x) -> P(s(x))) -> forall x P(x)")

    hA = b.hyp(RHS)
    dPa = b.forall_e(hA, const("a"))
    hPx = b.hyp(f(SIG_IND, "P(x)"))
    step = b.imp_i(f(SIG_IND, "P(x)"), b.forall_e(hA, FnApp("s", (Var("x"),))))
    dall = b.forall_i(x, step)
    back = b.imp_i(RHS, b.and_i(dPa, dall))

    return b.build(b.iff_i(fwd, back))


def proof_bad_rewritten():
    # forall x (not not P(x) | not P(x)) & forall y (Q(y) -> Q(y))
    b = ProofBuilder(SIG2PQ)
    x, y = Var("x"), Var("y")
    A = f(SIG2PQ, "P(x)")
    nA = f(SIG2PQ, "not P(x)")
    nnA = f(SIG2PQ, "not not P(x)")
    goal = f(SIG2PQ, "not not P(x) | not P(x)")

    d_h = b.ax("hosoi", F=nA, G=A)
    hn = b.hyp(nA)
    ci1 = b.imp_i(nA, b.or_i2(hn, nnA))
    hc = b.hyp(f(SIG2PQ, "not P(x) -> P(x)"))
    hnn = b.hyp(nA)
    dbot = b.mp(b.mp(hnn, hc), hnn)
    dnn = b.not_i(nA, dbot)
    ci2 = b.imp_i(f(SIG2PQ, "not P(x) -> P(x)"), b.or_i1(dnn, nA))
    hxy = b.hyp(f(SIG2PQ, "not P(x) | (not P(x) -> P(x))"))
    c1 = b.imp_i(hxy.formula, b.or_e(hxy, ci1, ci2))
    dwem = b.or_e(d_h, c1, ci1)
    assert dwem.formula == goal
    dall1 = b.forall_i(x, dwem)

    hQ = b.hyp(f(SIG2PQ, "Q(y)"))
    dall2 = b.forall_i(y, b.imp_i(f(SIG2PQ, "Q(y)"), hQ))

    return b.build(b.and_i(dall1, dall2))


CLASSICAL_PROOF = """\
const c1.  pred P/1.
level HHT;
1: not not P(c1) -> P(c1) by axiom efq with F := P(c1);
"""


# ---------------------------------------------------------------------------
# substitutions

def p_entries(sig: Signature, pred: str, names: list[str], images: list[str]):
    return {
        Atom(pred, (const(c),)): parse_prop_text(img)
        for c, img in zip(names, images)
    }


def subst_p3() -> Substitution:
    return Substitution(SIG3, p_entries(SIG3, "P", ["c1", "c2", "c3"], ["f1", "f2", "f3"]))


def subst_p3q() -> Substitution:
    entries = p_entries(SIG3Q, "P", ["c1", "c2", "c3"], ["f1", "f2", "f3"])
    entries[Atom("Q", ())] = parse_prop_text("g")
    return Substitution(SIG3Q, entries)


def subst_example5() -> Substitution:
    # image of R carves {c2, c3} out of {c1, c2, c3}
    entries = p_entries(SIG3R, "P", ["c1", "c2", "c3"], ["f1", "f2", "f3"])
    entries.update(p_entries(SIG3R, "R", ["c1", "c2", "c3"], ["bot", "top", "top"]))
    return Substitution(SIG3R, entries)


def subst_example6() -> Substitution:
    entries = p_entries(SIG_AB, "P", ["a1", "a2"], ["f1", "f2"])
    entries.update(p_entries(SIG_AB, "Q", ["b1", "b2"], ["g1", "g2"]))
    entries.update(p_entries(SIG_AB, "R1", ["a1", "a2", "b1", "b2"], ["top", "top", "bot", "bot"]))
    entries.update(p_entries(SIG_AB, "R2", ["a1", "a2", "b1", "b2"], ["bot", "bot", "top", "top"]))
    defaults = {"P": parse_prop_text("bot"), "Q": parse_prop_text("bot")}
    return Substitution(SIG_AB, entries, defaults)


def subst_example5_alt() -> Substitution:
    # two base constants with the carved subset {b}; every deeper term maps
    # to the image of the chosen element b
    def term(depth: int, base: str):
        t = const(base)
        for _ in range(depth):
            t = FnApp("f", (t,))
        return t

    entries = {}
    for base, img in (("a", "fa"), ("b", "fb")):
        entries[Atom("P", (term(0, base),))] = parse_prop_text(img)
        for d in range(1, 4):
            entries[Atom("P", (term(d, base),))] = parse_prop_text("fb")
    return Substitution(SIG_F, entries)


def subst_example7() -> Substitution:
    def term(i: int):
        t = const("a")
        for _ in range(i):
            t = FnApp("s", (t,))
        return t

    entries = {
        Atom("P", (term(i),)): parse_prop_text(f"f{i}") for i in range(5)
    }
    return Substitution(SIG_IND, entries)


def subst_bad_rewritten() -> Substitution:
    entries = p_entries(SIG2PQ, "P", ["c1", "c2"], ["f1", "f3"])
    entries.update(p_entries(SIG2PQ, "Q", ["c1", "c2"], ["f2", "f4"]))
    return Substitution(SIG2PQ, entries)


# ---------------------------------------------------------------------------
# propositional corpus

PROP_FILES = {
    "lem.prop": "p | not p\n",
    "dne.prop": "not not p -> p\n",
    "hosoi.prop": "p | (p -> q) | not q\n",
    "sqht_inst.prop": "Or{p -> And{p; q}; q -> And{p; q}}\n",
    "top_iff_not_bot.prop": "top <-> not bot\n",
    # valid, but mixes two shapes in one conjunction: reachable through the
    # pipeline only after splitting into two homogeneous conjunctions
    "bad_direct.prop": "And{Or{not not f1; not f1}; f2 -> f2; Or{not not f3; not f3}; f4 -> f4}\n",
}

FOF_FILES = {
    "subsum4.fof": lambda: render_signature(SIG3Q)
    + "\nexists x P(x) & Q <-> exists x (P(x) & Q)\n",
    "hosoi_ground.fof": lambda: render_signature(Signature.make({"a": 0}, {"P": 1, "Q": 0}))
    + "\nP(a) | (P(a) -> Q) | not Q\n",
    "excluded_middle.fof": lambda: render_signature(Signature.make({"a": 0}, {"P": 1}))
    + "\nP(a) | not P(a)\n",
}


def main() -> None:
    emit_proof("example1a.proof", proof_example1a())
    emit_proof("example1b.proof", proof_example1b())
    emit_proof("subsum4.proof", proof_subsum4())
    emit_proof("example2.proof", proof_example2())
    emit_proof("example3.proof", proof_example3())
    emit_proof("example4.proof", proof_example4())
    emit_proof("example5.proof", proof_example5())
    emit_proof("example6.proof", proof_example6())
    emit_proof("example5_alt.proof", proof_example5_alt())
    emit_proof("example7.proof", proof_example7())
    emit_proof("bad_rewritten.proof", proof_bad_rewritten())
    write("classical.proof", CLASSICAL_PROOF)

    emit_subst("example1a.subst", subst_p3())
    emit_subst("subsum4.subst", subst_p3q())
    emit_subst("example5.subst", subst_example5())
    emit_subst("example6.subst", subst_example6())
    emit_subst("example5_alt.subst", subst_example5_alt())
    emit_subst("example7.subst", subst_example7())
    emit_subst("bad_rewritten.subst", subst_bad_rewritten())

    for name, text in PROP_FILES.items():
        write(name, text)
    for name, fn in FOF_FILES.items():
        write(name, fn())


if __name__ == "__main__":
    main()
