import random

import pytest

import gen
from hhtkit.errors import CaptureViolation, SignatureError
from hhtkit.parser import parse_formula_text, parse_prop_text
from hhtkit.syntax import (
    FnApp,
    GenVar,
    PredVar,
    Quant,
    Signature,
    Var,
    const,
    eliminate_restrictors,
    formula_to_text,
    free_variables,
    prop_to_text,
    rank,
    substitutable,
    substitute,
)

SIG = Signature.make({"a": 0, "b": 0, "s": 1, "f": 1}, {"P": 1, "Q": 2, "R": 1}, {"R"})


def fof(text):
    return parse_formula_text(text, SIG)


# --- signatures -------------------------------------------------------------

def test_signature_requires_object_constant():
    with pytest.raises(SignatureError):
        Signature.make({"s": 1}, {"P": 1})
    with pytest.raises(SignatureError):
        Signature.make({}, {"P": 1})


def test_signature_restrictor_must_be_unary_predicate():
    with pytest.raises(SignatureError):
        Signature.make({"a": 0}, {"Q": 2}, {"Q"})
    with pytest.raises(SignatureError):
        Signature.make({"a": 0}, {"P": 1}, {"missing"})


def test_signature_namespaces_disjoint():
    with pytest.raises(SignatureError):
        Signature.make({"a": 0, "P": 1}, {"P": 1})


# --- rank -------------------------------------------------------------------

def test_rank_atom_is_zero():
    assert rank(parse_prop_text("p")) == 0


def test_rank_disjunction_under_conjunction():
    # a set of atoms has rank 1; wrapping with one more atom gives rank 2
    assert rank(parse_prop_text("Or{f1; f2; f3}")) == 1
    assert rank(parse_prop_text("And{Or{f1; f2; f3}; g}")) == 2


def test_rank_empty_sets():
    assert rank(parse_prop_text("top")) == 0
    assert rank(parse_prop_text("bot")) == 0


def test_rank_implication_exceeds_children():
    assert rank(parse_prop_text("p -> And{q}")) == 2


def test_set_children_deduplicate():
    assert gen.tree(parse_prop_text("And{p; p}")) == gen.conj((gen.atom("p"),))
    # singleton set nodes stay distinct from their child
    assert rank(parse_prop_text("And{p}")) == 1


# --- substitution -----------------------------------------------------------

def test_substitute_bound_occurrence_untouched():
    f = fof("forall x P(x) -> Q(x, x)")
    got = substitute(f, {Var("x"): const("a")})
    assert formula_to_text(got) == "forall x P(x) -> Q(a,a)"


def test_substitute_simple():
    got = substitute(fof("P(x)"), {Var("x"): FnApp("s", (const("a"),))})
    assert got == fof("P(s(a))")


def test_substitute_capture_detected():
    f = fof("exists y Q(x, y)")
    with pytest.raises(CaptureViolation):
        substitute(f, {Var("x"): FnApp("f", (Var("y"),))})
    assert not substitutable(f, Var("x"), FnApp("f", (Var("y"),)))
    assert substitutable(f, Var("x"), const("a"))


def test_substitute_identity():
    f = fof("forall y Q(x, y) & P(x)")
    assert substitute(f, {Var("x"): Var("x")}) == f


# --- restrictor elimination ---------------------------------------------------

def test_eliminate_forall():
    f = fof("forall x P(x) -> forall (x:R) P(x)")
    assert formula_to_text(eliminate_restrictors(f)) == (
        "forall x P(x) -> forall x (R(x) -> P(x))"
    )


def test_eliminate_exists_pair():
    sig = Signature.make(
        {"a": 0}, {"P": 1, "Q": 1, "R1": 1, "R2": 1}, {"R1", "R2"}
    )
    f = parse_formula_text("exists (x:R1, y:R2) (P(x) & Q(y))", sig)
    assert formula_to_text(eliminate_restrictors(f)) == (
        "exists x exists y (R1(x) & R2(y) & (P(x) & Q(y)))"
    )


def test_eliminate_identity_when_restrictor_free():
    f = fof("forall x (P(x) -> exists y Q(x, y))")
    assert eliminate_restrictors(f) is f or eliminate_restrictors(f) == f


def test_eliminate_idempotent_and_preserves_closedness():
    rng = random.Random(7)
    for _ in range(100):
        f = gen.rand_formula(rng, SIG, depth=3, restrictor_share=0.5)
        once = eliminate_restrictors(f)
        assert eliminate_restrictors(once) == once
        assert free_variables(once) == free_variables(f)


# --- free variables -----------------------------------------------------------

def test_free_variables_closed():
    assert free_variables(fof("forall x P(x)")) == frozenset()


def test_free_variables_open():
    assert free_variables(fof("P(x) -> Q(y, y)")) == frozenset((Var("x"), Var("y")))


def test_free_variables_binder_discharge():
    # a second-order binder removes the predicate variable but not the
    # object variables free in the body
    p = PredVar("p", 1)
    body = parse_formula_text("p(x) <-> P(x)", SIG)
    f = Quant("exists", p, body)
    assert free_variables(f) == frozenset((Var("x"),))


def test_universal_closure_closes():
    f = fof("P(x) -> Q(x, y)")
    assert free_variables(gen.universal_closure(f)) == frozenset()


# --- printers ----------------------------------------------------------------

def test_pretty_print_sugar():
    assert formula_to_text(fof("not P(a)")) == "not P(a)"
    assert formula_to_text(fof("a != b")) == "a != b"
    assert formula_to_text(fof("P(a) <-> Q(a, b)")) == "P(a) <-> Q(a,b)"
    assert formula_to_text(fof("top")) == "top"


def test_prop_print_sorted_and_stable():
    f = parse_prop_text("Or{c; b; a}")
    assert prop_to_text(f) == "Or{a; b; c}"
    assert prop_to_text(parse_prop_text("top <-> not bot")) == (
        "And{(bot -> bot) -> top; top -> bot -> bot}"
    )


def test_genvar_invariants():
    with pytest.raises(ValueError):
        GenVar(())
    with pytest.raises(ValueError):
        GenVar(((Var("x"), "R"), (Var("x"), "R")))
