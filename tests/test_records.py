"""The value classes `syntax.record` and `syntax._interned` build: reprs,
equality, hashing, construction and the frozen guard, pinned against what
the same classes gave as frozen dataclasses."""

import sys

import pytest

from hhtkit import corpus, instantiation, kernel, semantics, syntax
from hhtkit.corpus import CorpusCase
from hhtkit.instantiation import Bounded, Exact
from hhtkit.kernel import ByAxiom, ByGen, ByMP, Proof, ProofLine, Schema, TheoryLevel
from hhtkit.semantics import HTInterpretation
from hhtkit.syntax import (
    BOTTOM,
    Atom,
    Binary,
    Equals,
    Falsum,
    FnApp,
    FnVarApp,
    FuncVar,
    GenVar,
    PredVar,
    Quant,
    Signature,
    Var,
)

X = Var("x")
SIG = Signature.make({"a": 0}, {"P": 1}, ["P"])
LINE = ProofLine(Falsum(), ByMP(1, 2))

# one instance of every value class, with its repr as a dataclass gave it
REPRS = [
    (SIG, "Signature(functions=(('a', 0),), predicates=(('P', 1),), "
          "restrictors=frozenset({'P'}))"),
    (X, "Var(name='x')"),
    (PredVar("p", 1), "PredVar(name='p', arity=1)"),
    (FuncVar("g", 1), "FuncVar(name='g', arity=1)"),
    (FnApp("a"), "FnApp(fn='a', args=())"),
    (FnVarApp(FuncVar("g", 1), (X,)),
     "FnVarApp(var=FuncVar(name='g', arity=1), args=(Var(name='x'),))"),
    (Falsum(), "Falsum()"),
    (Equals(X, FnApp("a")), "Equals(left=Var(name='x'), right=FnApp(fn='a', args=()))"),
    (Atom("P", (X,)), "Atom(pred='P', args=(Var(name='x'),))"),
    (Binary("&", Falsum(), Atom("P", (X,))),
     "Binary(op='&', left=Falsum(), right=Atom(pred='P', args=(Var(name='x'),)))"),
    (GenVar(((X, "P"),)), "GenVar(items=((Var(name='x'), 'P'),))"),
    (Quant("forall", X, Atom("P", (X,))),
     "Quant(kind='forall', binder=Var(name='x'), body=Atom(pred='P', args=(Var(name='x'),)))"),
    (ByAxiom("efq", (("F", Falsum()),)), "ByAxiom(schema_id='efq', binding=(('F', Falsum()),))"),
    (ByMP(1, 2), "ByMP(i=1, j=2)"),
    (ByGen(1, X, "forall"), "ByGen(i=1, v=Var(name='x'), kind='forall')"),
    (LINE, "ProofLine(formula=Falsum(), justification=ByMP(i=1, j=2))"),
    (Proof(SIG, TheoryLevel.HHT, (LINE,)),
     "Proof(signature=Signature(functions=(('a', 0),), predicates=(('P', 1),), "
     "restrictors=frozenset({'P'})), level=<TheoryLevel.HHT: 'HHT'>, "
     "lines=(ProofLine(formula=Falsum(), justification=ByMP(i=1, j=2)),))"),
    (Schema("efq", TheoryLevel.HHT, (("F", "formula"),), "bot -> F", len),
     "Schema(schema_id='efq', min_level=<TheoryLevel.HHT: 'HHT'>, keys=(('F', 'formula'),), "
     "template='bot -> F', build=<built-in function len>)"),
    (Exact(), "Exact()"),
    (Bounded(2), "Bounded(depth=2)"),
    (HTInterpretation(frozenset(), frozenset({"p"}), ("p", "q")),
     "HTInterpretation(here=frozenset(), there=frozenset({'p'}))"),
    (CorpusCase("c", proof="c.proof", depth=1),
     "CorpusCase(name='c', proof='c.proof', subst=None, prop=None, depth=1, "
     "expect_proof='accepted', expect_instance=None, notes='')"),
]


def _value_classes():
    """Every class of the package that `record` or `_interned` built."""
    return {cls for module in (corpus, instantiation, kernel, semantics, syntax)
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and "__match_args__" in vars(cls)}


def test_every_value_class_is_pinned():
    assert {type(x) for x, _ in REPRS} == _value_classes()
    assert len(REPRS) == 22


@pytest.mark.parametrize("value, text", REPRS, ids=[type(x).__name__ for x, _ in REPRS])
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", [x for x, _ in REPRS], ids=[type(x).__name__ for x, _ in REPRS])
def test_instances_are_frozen(value):
    name = type(value).__match_args__[0] if type(value).__match_args__ else "name"
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        value.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(value, name)


def test_match_args_are_the_fields_in_order():
    assert ByMP.__match_args__ == ("i", "j")
    assert HTInterpretation.__match_args__ == ("here", "there", "atoms")
    assert CorpusCase.__match_args__[:3] == ("name", "proof", "subst")
    match ProofLine(Falsum(), ByMP(1, 2)):
        case ProofLine(Falsum(), ByMP(i, j)):
            assert (i, j) == (1, 2)
        case _:
            pytest.fail("no match")


def test_equality_and_hash_are_the_field_tuple():
    assert ByMP(1, 2) == ByMP(1, 2) and ByMP(1, 2) != ByMP(2, 1)
    assert hash(ByMP(1, 2)) == hash((1, 2))
    assert hash(Bounded(1)) == hash(1)
    assert ByMP(1, 2) != (1, 2) and ByMP(1, 2) != ByGen(1, X, "forall")
    assert Exact() == Exact() and hash(Exact()) == hash(())
    assert Bounded(1) != Bounded(2) and Bounded(1) != Exact()


def test_interpretations_compare_without_their_atoms():
    one = HTInterpretation(frozenset({"p"}), frozenset({"p", "q"}), ("p", "q"))
    other = HTInterpretation(frozenset({"p"}), frozenset({"p", "q"}))
    assert one == other and hash(one) == hash(other)
    assert hash(one) == hash((frozenset({"p"}), frozenset({"p", "q"})))
    assert one.atoms == ("p", "q") and other.atoms == ()
    assert repr(one) == repr(other)


def test_keyword_and_default_construction():
    case = CorpusCase("c", proof="c.proof", depth=1)
    assert (case.name, case.proof, case.subst, case.depth, case.expect_proof, case.notes) == (
        "c", "c.proof", None, 1, "accepted", "")
    assert CorpusCase(name="c", depth=1, proof="c.proof") == case
    assert ByAxiom("k").binding == () and ByAxiom("k") == ByAxiom("k", ())
    assert ByAxiom(schema_id="k", binding=(("F", BOTTOM),)) == ByAxiom("k", (("F", BOTTOM),))
    assert ByMP(j=2, i=1) == ByMP(1, 2)
    assert Bounded(depth=1) == Bounded(1)
    assert HTInterpretation(frozenset(), frozenset(), atoms=("p",)).atoms == ("p",)
    assert FnApp("a") is FnApp("a", ())


@pytest.mark.parametrize("call", [
    lambda: ByMP(1),
    lambda: ByMP(1, 2, 3),
    lambda: ByMP(1, 2, k=3),
    lambda: ByMP(1, i=1),
    lambda: CorpusCase(proof="c.proof"),
    lambda: Bounded(),
    lambda: Bounded(1, 2),
    lambda: Bounded(1, depth=2),
])
def test_a_miscounted_call_is_refused(call):
    with pytest.raises(TypeError):
        call()


def test_post_init_refusals():
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        Bounded(-1)
    with pytest.raises(ValueError, match="here must be a subset of there"):
        HTInterpretation(frozenset({"p"}), frozenset())
    with pytest.raises(ValueError, match="at least one item"):
        GenVar(())


def test_signature_caches_outside_its_fields():
    sig = Signature.make({"a": 0, "f": 1}, {"P": 1})
    fresh = Signature.make({"a": 0, "f": 1}, {"P": 1})
    assert sig.function_arity("f") == 1 and sig.predicate_arity("P") == 1
    assert "_function_arities" in vars(sig) and "_function_arities" not in vars(fresh)
    assert sig == fresh and hash(sig) == hash(fresh) and repr(sig) == repr(fresh)


def _nested(depth: int) -> Binary:
    f = Atom("p")
    for _ in range(depth):
        f = Binary("->", f, BOTTOM)
    return f


def test_repr_of_a_deep_formula():
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(10_000)
        text = repr(_nested(900))
    finally:
        sys.setrecursionlimit(limit)
    assert text == ("Binary(op='->', left=" * 900 + "Atom(pred='p', args=())"
                    + ", right=Falsum())" * 900)


def test_repr_takes_one_frame_per_level():
    # 400 levels fit the default limit of 1,000 at two recursion levels per
    # nesting level (the `__repr__` frame and the `repr` of its field); a
    # dataclass repr, with its `recursive_repr` wrapper frame, took three
    limit = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        text = repr(_nested(400))
    finally:
        sys.setrecursionlimit(limit)
    assert text.count("Binary(") == 400
