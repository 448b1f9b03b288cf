import pathlib
import sys

import pytest

from hhtkit.kernel import TheoryLevel, check_proof
from hhtkit.parser import parse_formula_text
from hhtkit.syntax import Signature, Var, formula_to_text

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from builder import BuildError, ProofBuilder  # noqa: E402

SIG = Signature.make({"a": 0}, {"P": 1, "Q": 0})


def fof(text):
    return parse_formula_text(text, SIG)


def test_identity():
    b = ProofBuilder(SIG)
    d = b.imp_i(fof("P(a)"), b.hyp(fof("P(a)")))
    proof = b.build(d)
    assert formula_to_text(check_proof(proof)) == "P(a) -> P(a)"


def test_weakening_discharge():
    b = ProofBuilder(SIG)
    d = b.imp_i(fof("Q"), b.hyp(fof("P(a)")))
    got = b.imp_i(fof("P(a)"), d)
    proof = b.build(got)
    assert formula_to_text(check_proof(proof)) == "P(a) -> Q -> P(a)"


def test_open_hypotheses_refuse_to_build():
    b = ProofBuilder(SIG)
    with pytest.raises(BuildError):
        b.build(b.hyp(fof("Q")))


def test_gen_refuses_free_variable_in_hypothesis():
    b = ProofBuilder(SIG)
    h = b.hyp(fof("P(x)"))
    lifted = b.imp_i(fof("Q"), h)  # Q -> P(x) with open hyp P(x)
    with pytest.raises(BuildError):
        b.gen(lifted, Var("x"), "forall")


def test_forall_intro_and_elim_round():
    b = ProofBuilder(SIG)
    hA = b.hyp(fof("forall x P(x)"))
    d = b.imp_i(fof("forall x P(x)"), b.forall_i(Var("y"), b.forall_e(hA, Var("y"))))
    proof = b.build(d)
    assert formula_to_text(check_proof(proof)) == "forall x P(x) -> forall y P(y)"


def test_disjunction_cases():
    b = ProofBuilder(SIG)
    h = b.hyp(fof("P(a) | P(a)"))
    hp = b.hyp(fof("P(a)"))
    case = b.imp_i(fof("P(a)"), hp)
    d = b.imp_i(fof("P(a) | P(a)"), b.or_e(h, case, case))
    proof = b.build(d)
    assert formula_to_text(check_proof(proof)) == "P(a) | P(a) -> P(a)"


def test_exists_elim_side_condition():
    b = ProofBuilder(SIG)
    hex_ = b.hyp(fof("exists x P(x)"))
    hpx = b.hyp(fof("P(x)"))
    # goal mentions x freely: the generalization must be refused
    with pytest.raises(BuildError):
        b.exists_e(hex_, Var("x"), hpx)


def test_second_order_generalization():
    b = ProofBuilder(SIG, TheoryLevel.HHT2)
    from hhtkit.syntax import PredVar

    p = PredVar("p", 1)
    hp = b.hyp(fof("p(a)"))
    d = b.imp_i(fof("p(a)"), hp)
    gen = b.so_forall_i(p, d)
    proof = b.build(gen)
    assert formula_to_text(check_proof(proof)) == "forall p/1 (p(a) -> p(a))"


def test_every_emitted_line_is_checked():
    # the memoized discharge shares lines; the kernel re-checks all of them
    b = ProofBuilder(SIG)
    A, Q = fof("P(a)"), fof("Q")
    hA, hQ = b.hyp(A), b.hyp(Q)
    d = b.imp_i(A, b.imp_i(Q, b.and_i(hA, hQ)))
    proof = b.build(d)
    check_proof(proof)
    assert formula_to_text(proof.lines[-1].formula) == "P(a) -> Q -> P(a) & Q"
