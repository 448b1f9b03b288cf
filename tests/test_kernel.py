import inspect

import pytest

import gen
from hhtkit.errors import (
    ConclusionNotClosed,
    ConclusionNotFirstOrder,
    ForwardReference,
    LevelViolation,
    MPMismatch,
    ProofError,
    SchemaMismatch,
    SideConditionViolation,
)
from hhtkit.corpus import load_text
from hhtkit.kernel import (
    SCHEMAS,
    ByAxiom,
    ByMP,
    Proof,
    ProofLine,
    TheoryLevel,
    build_axiom_instance,
    check_proof,
    conclusion_for_pipeline,
    list_schemas,
)
from hhtkit.parser import parse_formula_text, parse_proof_file
from hhtkit.render import render_justification
from hhtkit.syntax import (
    FnApp,
    FuncVar,
    PredVar,
    Signature,
    Var,
    formula_to_text,
)

SIG = Signature.make({"a": 0, "b": 0, "s": 1}, {"P": 1, "Q": 0})


def fof(text):
    return parse_formula_text(text, SIG)


def identity_proof(target_text="P(a)"):
    A = target_text
    text = f"""const a, b. fn s/1. pred P/1, Q/0.
level HHT;
1: {A} -> ({A} -> {A}) -> {A} by axiom k with F := {A}, G := {A} -> {A};
2: ({A} -> ({A} -> {A}) -> {A}) -> ({A} -> {A} -> {A}) -> {A} -> {A} by axiom s with F := {A}, G := {A} -> {A}, H := {A};
3: ({A} -> {A} -> {A}) -> {A} -> {A} by mp 1 2;
4: {A} -> {A} -> {A} by axiom k with F := {A}, G := {A};
5: {A} -> {A} by mp 4 3;
"""
    return parse_proof_file(text)


def test_identity_derivation_accepted():
    proof = identity_proof()
    assert formula_to_text(check_proof(proof)) == "P(a) -> P(a)"
    assert formula_to_text(conclusion_for_pipeline(proof)) == "P(a) -> P(a)"


def test_checker_is_deterministic():
    proof = identity_proof()
    assert check_proof(proof) == check_proof(identity_proof())


def test_mp_mismatch_reported_with_line():
    lines = identity_proof().lines
    bad = Proof(SIG, TheoryLevel.HHT, lines[:2] + (ProofLine(fof("Q"), ByMP(1, 2)),))
    with pytest.raises(MPMismatch) as err:
        check_proof(bad)
    assert err.value.line == 3


def test_forward_reference():
    bad = Proof(SIG, TheoryLevel.HHT, (ProofLine(fof("Q"), ByMP(1, 2)),))
    with pytest.raises(ForwardReference):
        check_proof(bad)


def test_schema_mismatch_on_wrong_binding():
    line = ProofLine(fof("not not P(a) -> P(a)"), ByAxiom.of("efq", F=fof("P(a)")))
    with pytest.raises(SchemaMismatch):
        check_proof(Proof(SIG, TheoryLevel.HHT, (line,)))


def test_axiom_line_that_matches_only_after_restrictor_elimination():
    # example5's line 142, whose binding now names `forall (x:R) P(x)` for
    # the line's `forall x (R(x) -> P(x))`
    text = load_text("example5.proof").splitlines(keepends=True)
    line = "1: " + text[143].split(": ", 1)[1].replace(
        "H := forall x (R(x) -> P(x))", "H := forall (x:R) P(x)")
    proof = parse_proof_file("".join(text[:2]) + line)
    (line1,) = proof.lines
    built = build_axiom_instance(proof.signature, "s", line1.justification.as_dict())
    assert built != line1.formula
    assert check_proof(proof) is line1.formula
    wrong = parse_proof_file("".join(text[:2]) + line.replace("G := top", "G := bot"))
    with pytest.raises(SchemaMismatch) as err:
        check_proof(wrong)
    assert str(err.value) == (
        "line 1: schema s with this binding yields (forall x P(x) -> bot -> "
        "forall (x:R) P(x)) -> not forall x P(x) -> forall x P(x) -> forall (x:R) P(x)"
    )


def test_forall_elim_capture_side_condition():
    # instantiating with a term whose variable the body quantifies is refused
    body = fof("exists y (P(x) & P(y))")
    just = ByAxiom.of("forall-elim", x=Var("x"), F=body, t=Var("y"))
    inst = fof("forall x exists y (P(x) & P(y)) -> exists y (P(y) & P(y))")
    with pytest.raises(SideConditionViolation):
        check_proof(Proof(SIG, TheoryLevel.HHT, (ProofLine(inst, just),)))


def test_gen_all_side_condition():
    text = """const a. pred P/1, Q/0.
level HHT;
1: P(x) -> P(x) -> P(x) by axiom k with F := P(x), G := P(x);
2: P(x) -> forall x (P(x) -> P(x)) by gen-all 1 x;
"""
    with pytest.raises(SideConditionViolation) as err:
        check_proof(parse_proof_file(text))
    assert err.value.line == 2


def test_gen_all_accepts_closed_antecedent():
    text = """const a. pred P/1, Q/0.
level HHT;
1: P(x) -> Q -> P(x) by axiom k with F := P(x), G := Q;
2: Q -> P(x) -> Q by axiom k with F := Q, G := P(x);
3: Q -> forall x (P(x) -> Q) by gen-all 2 x;
"""
    proof = parse_proof_file(text)
    assert formula_to_text(check_proof(proof)) == "Q -> forall x (P(x) -> Q)"


def test_level_gating():
    comp = ByAxiom.of("comprehension", p=PredVar("p", 1), xs=[Var("x")], F=fof("P(x)"))
    inst = build_axiom_instance(SIG, "comprehension", comp.as_dict())
    proof = Proof(SIG, TheoryLevel.HHT, (ProofLine(inst, comp),))
    with pytest.raises(LevelViolation):
        check_proof(proof)
    assert check_proof(Proof(SIG, TheoryLevel.HHT2, (ProofLine(inst, comp),))) == inst


def test_dca_needs_top_level():
    dca = ByAxiom.of("dca", p=PredVar("p", 1), x=Var("x"))
    inst = build_axiom_instance(SIG, "dca", dca.as_dict())
    with pytest.raises(LevelViolation):
        check_proof(Proof(SIG, TheoryLevel.HHT2, (ProofLine(inst, dca),)))
    assert check_proof(Proof(SIG, TheoryLevel.HHT2_DCA, (ProofLine(inst, dca),))) == inst


def test_second_order_formula_rejected_at_base_level():
    f = fof("forall p/1 (p(a) -> p(a))")
    proof = Proof(SIG, TheoryLevel.HHT, (ProofLine(f, ByAxiom.of("k")),))
    with pytest.raises(LevelViolation):
        check_proof(proof)


def test_comprehension_side_conditions():
    with pytest.raises(SideConditionViolation):
        bad = ByAxiom.of(
            "comprehension", p=PredVar("p", 1), xs=[Var("x")],
            F=parse_formula_text("p(x)", SIG),
        )
        inst = fof("P(a)")  # shape is checked after the side condition
        check_proof(Proof(SIG, TheoryLevel.HHT2, (ProofLine(inst, bad),)))


def test_choice_requires_positive_arity():
    just = ByAxiom.of(
        "choice", p=PredVar("p", 1), f=FuncVar("g", 0), xs=[Var("y")]
    )
    with pytest.raises(SideConditionViolation):
        check_proof(Proof(SIG, TheoryLevel.HHT2, (ProofLine(fof("Q"), just),)))


def test_choice_instance_shape():
    just = ByAxiom.of(
        "choice", p=PredVar("p", 2), f=FuncVar("g", 1), xs=[Var("x"), Var("y")]
    )
    inst = build_axiom_instance(SIG, "choice", just.as_dict())
    assert formula_to_text(inst) == (
        "forall x exists y p(x,y) -> exists g^1 forall x p(x,g(x))"
    )


def test_cet_distinct():
    just = ByAxiom.of("cet-distinct", f="s", g="a", ss=[Var("x1")], ts=[])
    inst = build_axiom_instance(SIG, "cet-distinct", just.as_dict())
    assert formula_to_text(inst) == "s(x1) != a"
    with pytest.raises(SideConditionViolation):
        build_axiom_instance(
            SIG, "cet-distinct", ByAxiom.of("cet-distinct", f="a", g="a").as_dict()
        )


def test_cet_inject():
    just = ByAxiom.of("cet-inject", f="s", ss=[Var("x1")], ts=[Var("y1")])
    inst = build_axiom_instance(SIG, "cet-inject", just.as_dict())
    assert formula_to_text(inst) == "s(x1) = s(y1) -> x1 = y1"
    with pytest.raises(SideConditionViolation):
        build_axiom_instance(SIG, "cet-inject", {"f": "a", "ss": (), "ts": ()})


def test_cet_acyclic():
    t = FnApp("s", (FnApp("s", (Var("x"),)),))
    inst = build_axiom_instance(SIG, "cet-acyclic", {"t": t, "x": Var("x")})
    assert formula_to_text(inst) == "s(s(x)) != x"
    with pytest.raises(SideConditionViolation):
        build_axiom_instance(SIG, "cet-acyclic", {"t": Var("x"), "x": Var("x")})
    with pytest.raises(SideConditionViolation):
        build_axiom_instance(SIG, "cet-acyclic", {"t": FnApp("s", (Var("y"),)), "x": Var("x")})


def test_cet_acyclic_rejects_function_variable_terms():
    # a term through a function variable need not keep x as a subterm once
    # the variable is resolved to a concrete table, so the instance below is
    # genuinely refutable and the schema must refuse it
    from hhtkit.herbrand import hht_valid_bruteforce
    from hhtkit.syntax import FnVarApp

    h = FuncVar("h", 1)
    t = FnVarApp(h, (Var("x"),))
    with pytest.raises(SideConditionViolation):
        build_axiom_instance(SIG, "cet-acyclic", {"t": t, "x": Var("x")})
    sig = Signature.make({"a": 0, "b": 0}, {})
    refutable = gen.universal_closure(parse_formula_text("h(x) != x", sig))
    assert hht_valid_bruteforce(sig, refutable) is not None


def test_dec_eq_defaults():
    inst = build_axiom_instance(SIG, "dec-eq", {})
    assert formula_to_text(inst) == "x = y | x != y"


def test_dca_shape_matches_sorted_constructors():
    inst = build_axiom_instance(SIG, "dca", {"p": PredVar("p", 1), "x": Var("x")})
    assert formula_to_text(inst) == (
        "forall p/1 (p(a) & p(b) & forall x (p(x) -> p(s(x))) -> forall x p(x))"
    )


def test_schema_inventory_counts():
    base = list_schemas(TheoryLevel.HHT)
    assert len(base) == 19
    assert [s.schema_id for s in base[:2]] == ["k", "s"]
    so = list_schemas(TheoryLevel.HHT2)
    assert len(so) == 24
    full = list_schemas(TheoryLevel.HHT2_DCA)
    assert len(full) == 25
    assert full[-1].schema_id == "dca"


def test_conclusion_gates():
    f = fof("forall p/1 (p(a) -> p(a))")
    proof = Proof(SIG, TheoryLevel.HHT2, (ProofLine(f, ByAxiom.of("k")),))
    with pytest.raises(ConclusionNotFirstOrder):
        conclusion_for_pipeline(proof)
    g = fof("P(x)")
    proof2 = Proof(SIG, TheoryLevel.HHT, (ProofLine(g, ByAxiom.of("k")),))
    with pytest.raises(ConclusionNotClosed):
        conclusion_for_pipeline(proof2)


def test_restrictor_lines_checked_after_elimination():
    sig = Signature.make({"a": 0}, {"P": 1, "R": 1}, {"R"})
    text = """const a. pred P/1. restrictor R/1.
level HHT;
1: forall (x:R) P(x) -> R(a) -> P(a) by axiom forall-elim with x := x, F := R(x) -> P(x), t := a;
"""
    proof = parse_proof_file(text)
    got = check_proof(proof)
    assert formula_to_text(got) == "forall (x:R) P(x) -> R(a) -> P(a)"


def test_so_gen_rule():
    text = """const a. pred P/1, Q/0.
level HHT2;
1: p(a) -> Q -> p(a) by axiom k with F := p(a), G := Q;
2: Q -> p(a) -> Q by axiom k with F := Q, G := p(a);
3: Q -> forall p/1 (p(a) -> Q) by so-gen 2 p/1;
"""
    proof = parse_proof_file(text)
    assert formula_to_text(check_proof(proof)) == "Q -> forall p/1 (p(a) -> Q)"


# generalization: one rule, four spellings -----------------------------------

_GEN_HEADER = "const a. pred P/1, Q/0.\nlevel {level};\n"

# keyword -> (level, binder, premise line, accepted conclusion, wrong
# conclusion, premise with the binder free in its fixed side, its conclusion)
_GEN_RULES = {
    "gen-all": (
        "HHT", "x",
        "Q -> P(x) -> Q by axiom k with F := Q, G := P(x)",
        "Q -> forall x (P(x) -> Q)",
        "Q -> exists x (P(x) -> Q)",
        "P(x) -> P(x) -> P(x) by axiom k with F := P(x), G := P(x)",
        "P(x) -> forall x (P(x) -> P(x))",
    ),
    "gen-ex": (
        "HHT", "x",
        "P(x) & Q -> Q by axiom and-elim-right with F := P(x), G := Q",
        "exists x (P(x) & Q) -> Q",
        "forall x (P(x) & Q) -> Q",
        "P(x) & P(x) -> P(x) by axiom and-elim-right with F := P(x), G := P(x)",
        "exists x (P(x) & P(x)) -> P(x)",
    ),
    "so-gen": (
        "HHT2", "p/1",
        "Q -> p(a) -> Q by axiom k with F := Q, G := p(a)",
        "Q -> forall p/1 (p(a) -> Q)",
        "Q -> exists p/1 (p(a) -> Q)",
        "p(a) -> p(a) -> p(a) by axiom k with F := p(a), G := p(a)",
        "p(a) -> forall p/1 (p(a) -> p(a))",
    ),
    "so-gen-ex": (
        "HHT2", "p/1",
        "p(a) & Q -> Q by axiom and-elim-right with F := p(a), G := Q",
        "exists p/1 (p(a) & Q) -> Q",
        "forall p/1 (p(a) & Q) -> Q",
        "p(a) & p(a) -> p(a) by axiom and-elim-right with F := p(a), G := p(a)",
        "exists p/1 (p(a) & p(a)) -> p(a)",
    ),
}


def _gen_case(kw, case):
    """The two-line proof for one table entry and its outcome: None when
    accepted, else (error type, reason) at line 2."""
    level, v, premise, good, wrong, free_premise, free_concl = _GEN_RULES[kw]
    fixed = "p(a)" if kw.startswith("so-") else "P(x)"
    line1, line2, outcome = {
        "accepted": (premise, good, None),
        "wrong-conclusion": (premise, wrong, (SchemaMismatch, f"expected {good}")),
        "premise-not-implication": (
            "a = a by axiom eq-refl with t := a", good,
            (SchemaMismatch, "line 1 is not an implication"),
        ),
        "binder-free": (
            free_premise, free_concl,
            (SideConditionViolation, f"{v.split('/')[0]} must not be free in {fixed}"),
        ),
    }[case]
    text = _GEN_HEADER.format(level=level) + f"1: {line1};\n2: {line2} by {kw} 1 {v};\n"
    return parse_proof_file(text), outcome


@pytest.mark.parametrize(
    "case", ["accepted", "wrong-conclusion", "premise-not-implication", "binder-free"]
)
@pytest.mark.parametrize("kw", sorted(_GEN_RULES))
def test_generalization_contract(kw, case):
    proof, outcome = _gen_case(kw, case)
    if outcome is None:
        assert formula_to_text(check_proof(proof)) == _GEN_RULES[kw][3]
        v = _GEN_RULES[kw][1]
        assert render_justification(proof.lines[-1].justification) == f"{kw} 1 {v}"
        return
    error, reason = outcome
    with pytest.raises(error) as err:
        check_proof(proof)
    assert (err.value.line, err.value.reason) == (2, reason)


@pytest.mark.parametrize("kw", ["so-gen", "so-gen-ex"])
def test_second_order_generalization_needs_hht2(kw):
    # the line itself is first-order, so only the rule's level gate refuses it
    text = _GEN_HEADER.format(level="HHT") + (
        "1: Q -> P(a) -> Q by axiom k with F := Q, G := P(a);\n"
        f"2: Q -> P(a) -> Q by {kw} 1 p/1;\n"
    )
    with pytest.raises(LevelViolation) as err:
        check_proof(parse_proof_file(text))
    assert err.value.line == 2
    assert err.value.reason == "second-order rules need level HHT2 or HHT2+DCA"


# quantifier axioms: second-order instances and captures ---------------------

_QUANT_HEADER = "const a, b.  pred P/1, Q/2.\nlevel HHT2;\n"

# label -> a proof line instantiating a second-order elimination schema
_SO_INSTANCES = {
    "so-forall-elim": (
        "forall p/1 forall x (p(x) -> P(x)) -> forall x (q(x) -> P(x)) by axiom "
        "so-forall-elim with v := p/1, G := forall x (p(x) -> P(x)), w := q/1"
    ),
    "so-forall-elim-function": (
        "forall f^1 P(f(a)) -> P(g(a)) by axiom so-forall-elim with "
        "v := f^1, G := P(f(a)), w := g^1"
    ),
    "so-exists-intro": (
        "q(a) & P(b) -> exists p/1 (p(a) & P(b)) by axiom so-exists-intro with "
        "v := p/1, G := p(a) & P(b), w := q/1"
    ),
    "so-forall-elim-abs": (
        "forall p/1 (p(a) -> exists x p(x)) -> P(a) & Q(a,z) -> exists x (P(x) & Q(x,z)) "
        "by axiom so-forall-elim-abs with p := p/1, G := p(a) -> exists x p(x), "
        "xs := [y], F := P(y) & Q(y,z)"
    ),
}

# schema -> (a proof line whose binding captures a variable, the reason)
_CAPTURES = {
    "forall-elim": (
        "forall x forall g^1 P(x) -> forall g^1 P(g(a)) by axiom forall-elim with "
        "x := x, F := forall g^1 P(x), t := g(a)",
        "term not substitutable: substituting for x would capture g",
    ),
    "exists-intro": (
        "exists y Q(y,y) -> exists x exists y Q(x,y) by axiom exists-intro with "
        "x := x, F := exists y Q(x,y), t := y",
        "term not substitutable: substituting for x would capture y",
    ),
    "eq-subst": (
        "a = y -> forall y Q(a,y) -> forall y Q(y,y) by axiom eq-subst with "
        "t1 := a, t2 := y, x := x, F := forall y Q(x,y)",
        "term not substitutable: substituting for x would capture y",
    ),
    "so-forall-elim": (
        "forall q/1 forall p/1 (q(a) -> p(a)) -> forall p/1 (p(a) -> p(a)) by axiom "
        "so-forall-elim with v := q/1, G := forall p/1 (q(a) -> p(a)), w := p/1",
        "term not substitutable: substituting for q would capture p",
    ),
    "so-exists-intro": (
        "forall g^1 P(g(a)) -> exists f^1 forall g^1 P(f(a)) by axiom so-exists-intro "
        "with v := f^1, G := forall g^1 P(f(a)), w := g^1",
        "term not substitutable: substituting for f would capture g",
    ),
    "so-forall-elim-abs": (
        "forall p/1 forall y p(y) -> forall y Q(y,y) by axiom so-forall-elim-abs with "
        "p := p/1, G := forall y p(y), xs := [x], F := Q(x,y)",
        "term not substitutable: substituting for p would capture y",
    ),
}


@pytest.mark.parametrize("label", sorted(_SO_INSTANCES))
def test_second_order_elimination_instances_accepted(label):
    from hhtkit.herbrand import hht_valid_bruteforce

    proof = parse_proof_file(_QUANT_HEADER + f"1: {_SO_INSTANCES[label]};\n")
    got = check_proof(proof)
    assert got == proof.lines[0].formula
    # each accepted instance is HHT-valid over the Herbrand universe {a, b}
    assert hht_valid_bruteforce(proof.signature, gen.universal_closure(got)) is None


@pytest.mark.parametrize("schema", sorted(_CAPTURES))
def test_quantifier_axiom_capture_reported(schema):
    line, reason = _CAPTURES[schema]
    assert f"by axiom {schema} with" in line
    with pytest.raises(SideConditionViolation) as err:
        check_proof(parse_proof_file(_QUANT_HEADER + f"1: {line};\n"))
    assert (err.value.line, err.value.reason) == (1, reason)


# a bound value not of the kind its schema key has is a mismatch, with the
# same reason without a proof line (line 0) and at the line it justifies
_WRONG_KINDS = {
    "F not a formula": ("k", {"F": 5, "G": fof("Q")}, "F must be a formula"),
    "ss item not a term": ("cet-inject", {"f": "s", "ss": (5,), "ts": (Var("y1"),)},
                           "ss must be a list of terms"),
    "ts item not a term": ("cet-inject", {"f": "s", "ss": (Var("x1"),), "ts": (fof("Q"),)},
                           "ts must be a list of terms"),
    "ss not a list": ("cet-inject", {"f": "s", "ss": Var("x1"), "ts": (Var("y1"),)},
                      "ss must be a list of terms"),
    "v not second-order": ("so-forall-elim", {"v": Var("x"), "G": fof("Q"), "w": Var("y")},
                           "v must be a second-order variable"),
    "w not second-order": ("so-forall-elim", {"v": PredVar("p", 0), "G": fof("Q"), "w": "q"},
                           "w must be a second-order variable"),
    "x not a variable": ("forall-elim", {"x": FnApp("a", ()), "F": fof("Q"), "t": Var("y")},
                         "x must be an object variable"),
    "t not a term": ("eq-refl", {"t": fof("Q")}, "t must be a term"),
    "xs not a list": ("comprehension", {"p": PredVar("p", 1), "xs": Var("x"), "F": fof("Q")},
                      "xs must be a list of object variables"),
    "p not a predicate variable": ("dca", {"p": FuncVar("p", 1)}, "p must be a predicate variable"),
}


@pytest.mark.parametrize("label", sorted(_WRONG_KINDS))
def test_a_binding_of_the_wrong_kind_is_a_schema_mismatch(label):
    schema, binding, reason = _WRONG_KINDS[label]
    with pytest.raises(SchemaMismatch) as err:
        build_axiom_instance(SIG, schema, binding)
    assert (err.value.line, err.value.reason) == (0, reason)
    line = ProofLine(fof("Q"), ByAxiom.of(schema, **binding))
    with pytest.raises(SchemaMismatch) as err:
        check_proof(Proof(SIG, TheoryLevel.HHT2_DCA, (line,)))
    assert (err.value.line, err.value.reason) == (1, reason)


# each builder refusal a proof file can reach: label -> (level, a proof
# line, the class and reason it is refused with, at line 0 without a proof
# line and at the line it justifies)
_REFUSALS = {
    "cet-distinct": ("HHT", "a != a by axiom cet-distinct with f := a, g := a",
                     SideConditionViolation, "function constants must be distinct"),
    "cet-inject constant": ("HHT", "a = b -> a = b by axiom cet-inject with f := a",
                            SideConditionViolation, "injectivity requires arity greater than 0"),
    "cet-inject length": ("HHT", "s(a) = s(b) -> a = b by axiom cet-inject with f := s, "
                          "ss := [a, b]", SideConditionViolation, "ss must have 1 term for s"),
    "cet-acyclic same": ("HHT", "x != x by axiom cet-acyclic with t := x, x := x",
                         SideConditionViolation, "term must be different from the variable"),
    "cet-acyclic absent": ("HHT", "s(y) != x by axiom cet-acyclic with t := s(y), x := x",
                           SideConditionViolation, "term must contain the variable"),
    "cet-acyclic function variable": (
        "HHT2", "g(x) != x by axiom cet-acyclic with t := g(x), x := x",
        SideConditionViolation, "term must be built from signature constructors only"),
    "comprehension free": ("HHT2", "P(a) by axiom comprehension with p := p/1, xs := [x], "
                           "F := p(x)", SideConditionViolation, "p/1 must not be free in F"),
    "comprehension arity": ("HHT2", "P(a) by axiom comprehension with p := p/1, xs := [x, y], "
                            "F := Q(x,y)", SideConditionViolation, "xs must match the arity of p"),
    "comprehension repeat": (
        "HHT2", "P(a) by axiom comprehension with p := p/2, xs := [x, x], F := Q(x,x)",
        SideConditionViolation, "xs must be distinct variables"),
    "choice n = 0": ("HHT2", "P(a) by axiom choice with p := p/1, f := g^0, xs := [y]",
                     SideConditionViolation, "choice requires n > 0"),
    "choice arity": ("HHT2", "P(a) by axiom choice with p := p/2, f := g^2, xs := [x, y]",
                     SideConditionViolation, "arities must be n+1 for p and n for f"),
    "so-forall-elim kind": (
        "HHT2", "P(a) by axiom so-forall-elim with v := p/1, G := p(a), w := g^1",
        SideConditionViolation, "second-order variables must have the same kind and arity"),
    "so-forall-elim arity": (
        "HHT2", "P(a) by axiom so-forall-elim with v := p/1, G := p(a), w := q/2",
        SideConditionViolation, "second-order variables must have the same kind and arity"),
    "so-forall-elim-abs arity": (
        "HHT2", "P(a) by axiom so-forall-elim-abs with p := p/1, G := p(a), xs := [x, y], "
        "F := Q(x,y)", SideConditionViolation, "xs must match the arity of p"),
    "dca binary": ("HHT2+DCA", "P(a) by axiom dca with p := p/2",
                   SideConditionViolation, "p must be a unary predicate variable"),
    "k without G": ("HHT", "P(a) -> P(b) -> P(a) by axiom k with F := P(a)",
                    SchemaMismatch, "missing binding for G"),
}


@pytest.mark.parametrize("label", list(_REFUSALS))
def test_a_refused_binding_is_reported_at_its_line(label):
    level, text, cls, reason = _REFUSALS[label]
    header = f"const a, b.  fn s/1.  pred P/1, Q/2.\nlevel {level};\n"
    proof = parse_proof_file(f"{header}1: {text};\n")
    just = proof.lines[0].justification
    with pytest.raises(ProofError) as err:
        build_axiom_instance(proof.signature, just.schema_id, just.as_dict())
    assert (type(err.value), err.value.line, err.value.reason) == (cls, 0, reason)
    with pytest.raises(ProofError) as err:
        check_proof(proof)
    assert (type(err.value), err.value.line, err.value.reason) == (cls, 1, reason)


# ---------------------------------------------------------------------------
# schema declarations: one well-formed binding per schema, and what leaving
# a key out or adding one gives

_A, _B, _X, _Y = FnApp("a", ()), FnApp("b", ()), Var("x"), Var("y")
_FG = {"F": fof("P(a)"), "G": fof("Q")}
_FGH = {**_FG, "H": fof("P(b)")}
_PX = {"x": _X, "F": fof("P(x)")}
_SO = {"v": PredVar("p", 1), "G": fof("p(a) -> Q"), "w": PredVar("q", 1)}
_BINDINGS = {
    "k": _FG, "s": _FGH, "and-elim-left": _FG, "and-elim-right": _FG, "and-intro": _FG,
    "or-intro-left": _FG, "or-intro-right": _FG, "or-elim": _FGH, "efq": {"F": fof("Q")},
    "forall-elim": {**_PX, "t": _A}, "exists-intro": {**_PX, "t": _B},
    "eq-refl": {"t": _A}, "eq-subst": {"t1": _A, "t2": _B, **_PX},
    "hosoi": _FG, "sqht": _PX, "dec-eq": {"t1": _A, "t2": _B},
    "cet-distinct": {"f": "s", "g": "a", "ss": (_B,), "ts": ()},
    "cet-inject": {"f": "s", "ss": (_A,), "ts": (_B,)},
    "cet-acyclic": {"t": FnApp("s", (_X,)), "x": _X},
    "so-forall-elim": _SO, "so-exists-intro": _SO,
    "so-forall-elim-abs": {"p": PredVar("p", 1), "G": fof("forall y p(y)"), "xs": (_X,),
                           "F": fof("P(x) & Q")},
    "comprehension": {"p": PredVar("p", 0), "xs": (), "F": fof("Q")},
    "choice": {"p": PredVar("p", 2), "f": FuncVar("f", 1), "xs": (_X, _Y)},
    "dca": {"p": PredVar("q", 1), "x": _Y},
}
# the value each key that may be left out stands for, as README lists them
_DEFAULTS = {
    "dec-eq": {"t1": _X, "t2": _Y},
    "cet-distinct": {"ss": (Var("x1"),), "ts": ()},  # s/1 and a/0
    "cet-inject": {"ss": (Var("x1"),), "ts": (Var("y1"),)},
    "comprehension": {"xs": ()},
    "dca": {"p": PredVar("p", 1), "x": _X},
}


def _keys(schema_id):
    return [key for key, _ in SCHEMAS[schema_id].keys]


def _parameters(schema_id):
    """The builder's parameters after `sig`."""
    params = list(inspect.signature(SCHEMAS[schema_id].build).parameters.values())
    assert params[0].name == "sig"
    return params[1:]


def test_schemas_keep_their_order():
    assert list(SCHEMAS) == [
        "k", "s", "and-elim-left", "and-elim-right", "and-intro", "or-intro-left",
        "or-intro-right", "or-elim", "efq", "forall-elim", "exists-intro", "eq-refl",
        "eq-subst", "hosoi", "sqht", "dec-eq", "cet-distinct", "cet-inject", "cet-acyclic",
        "so-forall-elim", "so-exists-intro", "so-forall-elim-abs", "comprehension", "choice",
        "dca",
    ]
    assert sorted(_BINDINGS) == sorted(SCHEMAS)


@pytest.mark.parametrize("schema_id", list(SCHEMAS))
def test_declared_keys_are_the_builder_parameters(schema_id):
    params = _parameters(schema_id)
    assert sorted(p.name for p in params) == sorted(_keys(schema_id))
    optional = {p.name for p in params if p.default is not inspect.Parameter.empty}
    assert optional == set(_DEFAULTS.get(schema_id, {}))


@pytest.mark.parametrize("schema_id", list(SCHEMAS))
def test_the_binding_builds_and_checks(schema_id):
    f = build_axiom_instance(SIG, schema_id, _BINDINGS[schema_id])
    line = ProofLine(f, ByAxiom.of(schema_id, **_BINDINGS[schema_id]))
    assert check_proof(Proof(SIG, TheoryLevel.HHT2_DCA, (line,))) is f


@pytest.mark.parametrize("schema_id", list(SCHEMAS))
def test_a_required_key_left_out_is_missing(schema_id):
    binding = _BINDINGS[schema_id]
    for key in _keys(schema_id):
        if key in _DEFAULTS.get(schema_id, {}):
            continue
        rest = {k: v for k, v in binding.items() if k != key}
        with pytest.raises(SchemaMismatch) as err:
            build_axiom_instance(SIG, schema_id, rest)
        assert (err.value.line, err.value.reason) == (0, f"missing binding for {key}")


@pytest.mark.parametrize("schema_id", sorted(_DEFAULTS))
def test_an_optional_key_left_out_takes_its_default(schema_id):
    binding = _BINDINGS[schema_id]
    for key, default in _DEFAULTS[schema_id].items():
        rest = {k: v for k, v in binding.items() if k != key}
        assert build_axiom_instance(SIG, schema_id, rest) == build_axiom_instance(
            SIG, schema_id, {**rest, key: default})


@pytest.mark.parametrize("schema_id", list(SCHEMAS))
def test_an_undeclared_key_is_a_schema_mismatch(schema_id):
    binding = {**_BINDINGS[schema_id], "Z": fof("Q")}
    reason = (f"schema {schema_id} has no metavariable Z "
              f"(expected one of {', '.join(_keys(schema_id))})")
    with pytest.raises(SchemaMismatch) as err:
        build_axiom_instance(SIG, schema_id, binding)
    assert (err.value.line, err.value.reason) == (0, reason)
    line = ProofLine(fof("Q"), ByAxiom.of(schema_id, **binding))
    with pytest.raises(SchemaMismatch) as err:
        check_proof(Proof(SIG, TheoryLevel.HHT2_DCA, (line,)))
    assert (err.value.line, err.value.reason) == (1, reason)
