import os
import pathlib
import random
import re
import sys
from itertools import accumulate, repeat

import pytest

import gen
from hhtkit import parser
from hhtkit.corpus import data_path, load_text
from hhtkit.errors import ParseError
from hhtkit.parser import (
    _FO,
    _TOKEN_RE,
    Cursor,
    _parse_binary,
    parse_formula_file,
    parse_formula_text,
    parse_proof_file,
    parse_prop_file,
    parse_prop_text,
    parse_subst_file,
)
from hhtkit.syntax import (
    Atom,
    Binary,
    Equals,
    FnVarApp,
    FuncVar,
    PredVar,
    Quant,
    Signature,
    Var,
    const,
    formula_to_text,
    prop_stats,
    prop_to_text,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
from builder import render_proof  # noqa: E402

SIG = Signature.make({"a": 0, "b": 0, "s": 1}, {"P": 1, "Q": 0, "R": 1}, {"R"})


def fof(text):
    return parse_formula_text(text, SIG)


def test_precedence_not_and_or_imp():
    f = fof("not P(a) & Q | P(b) -> Q")
    # ((not P(a) & Q) | P(b)) -> Q
    assert isinstance(f, Binary) and f.op == "->"
    assert isinstance(f.left, Binary) and f.left.op == "|"
    assert isinstance(f.left.left, Binary) and f.left.left.op == "&"


def test_imp_right_assoc():
    f = fof("Q -> Q -> Q")
    assert f == fof("Q -> (Q -> Q)")
    assert f != fof("(Q -> Q) -> Q")


@pytest.mark.parametrize("parse, a, b, c", [
    (fof, "Q", "P(a)", "P(b)"),
    (parse_prop_text, "p", "q", "r"),
])
def test_associativity_in_both_languages(parse, a, b, c):
    if parse is parse_prop_text:  # programs are compared by their trees
        parse = lambda text: gen.tree(parse_prop_text(text))  # noqa: E731
    for op in ("<->", "|", "&"):
        f = parse(f"{a} {op} {b} {op} {c}")
        assert f == parse(f"({a} {op} {b}) {op} {c}"), op
        assert f != parse(f"{a} {op} ({b} {op} {c})"), op
    f = parse(f"{a} -> {b} -> {c}")
    assert f == parse(f"{a} -> ({b} -> {c})")
    assert f != parse(f"({a} -> {b}) -> {c}")


def test_quantifier_takes_smallest_body():
    f = fof("forall x P(x) -> exists x P(x)")
    assert isinstance(f, Binary) and f.op == "->"
    assert isinstance(f.left, Quant) and f.left.kind == "forall"


def test_equality_and_inequality():
    assert fof("a = b") == Equals(const("a"), const("b"))
    assert fof("s(a) != b") == fof("not (s(a) = b)")


def test_undeclared_identifiers_become_variables():
    f = fof("forall x P(x)")
    assert isinstance(f.binder, Var)
    # undeclared applied head in formula position is a predicate variable
    g = fof("p(a)")
    assert g == Atom(PredVar("p", 1), (const("a"),))
    # undeclared applied head in term position is a function variable
    h = fof("g(a) = b")
    assert h == Equals(FnVarApp(FuncVar("g", 1), (const("a"),)), const("b"))


def test_second_order_binders():
    f = fof("forall p/1 (p(a) -> p(a))")
    assert f.binder == PredVar("p", 1)
    g = fof("exists f^2 P(f(a, b))")
    assert g.binder == FuncVar("f", 2)


def test_arity_errors():
    with pytest.raises(ParseError):
        fof("P(a, b)")
    with pytest.raises(ParseError):
        fof("P")
    with pytest.raises(ParseError):
        fof("s(a)")  # function constant in formula position
    with pytest.raises(ParseError):
        fof("Q(a)")


def test_restrictor_binder_validation():
    fof("forall (x:R) P(x)")
    with pytest.raises(ParseError):
        fof("forall (x:P) P(x)")  # P is not a restrictor
    with pytest.raises(ParseError):
        fof("forall (a:R) P(a)")  # constants cannot be bound


def test_prop_sets_and_sugar():
    def prop(text):
        return gen.tree(parse_prop_text(text))

    p, q = gen.atom("p"), gen.atom("q")
    assert prop("And{}") == gen.TOP
    assert prop("top") == gen.TOP
    assert prop("bot") == gen.BOT
    assert prop("p & q") == gen.conj((p, q))
    assert prop("And{p; q; p}") == gen.conj((p, q))
    assert prop("not p") == gen.imp(p, gen.BOT)


def test_formula_file_and_errors():
    sig, f = parse_formula_file("const a. pred P/1.\nforall x P(x)\n")
    assert sig.predicate_arity("P") == 1
    with pytest.raises(ParseError) as err:
        parse_formula_file("pred P/1.\nforall x P(x)\n")
    assert "object constant" in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula_text("P(a) &&", SIG)
    assert (err.value.line, err.value.col) == (1, 7)
    assert str(err.value) == "1:7: expected a formula, found '&'"


_PROOF_HEAD = "const a. pred P/1.\nlevel HHT;\n"
_PARSERS = {
    "formula": lambda text: parse_formula_text(text, SIG),
    "prop": parse_prop_file,
    "fof": parse_formula_file,
    "subst": parse_subst_file,
    "proof": parse_proof_file,
}


@pytest.mark.parametrize("kind, text, message", [
    ("prop", "# a comment line\np &\n\tq | @r\n", "3:6: unexpected character '@'"),
    ("prop", "(p | q", "1:7: expected ')', found end of input"),
    ("prop", "And{p; q", "1:9: expected '}', found end of input"),
    ("prop", "And{p; }", "1:8: expected a propositional formula, found '}'"),
    ("prop", "p q;", "1:3: unexpected trailing input 'q'"),
    ("fof", "const a. pred P/1.\nP(a) P(a)\n", "2:6: unexpected trailing input 'P'"),
    ("fof", "const a. pred P/1.\nP(a, a)\n", "3:1: P expects 1 arguments, got 2"),
    ("fof", "const a. fn s/1. pred P/1.\ns(a, a) != a\n", "2:12: s expects 1 arguments, got 2"),
    ("fof", "const a. fn s/1. pred P/1.\nP(s)\n", "2:4: function constant s needs 1 arguments"),
    ("fof", "const a. pred P.\nP(a)\n", "1:16: expected /arity after P"),
    # numbers are ASCII digits only
    ("fof", "const a.  pred P/\u0661.\nP(a) -> P(a)\n", "1:18: unexpected character '\u0661'"),
    # a refusal of a name just read points at that name
    ("fof", "const a. fn a/1.\n", "1:13: conflicting declaration of a"),
    ("fof", "const a. pred P/1, P/2.\n", "1:20: conflicting declaration of P"),
    ("fof", "const a. pred P/1.\nforall a P(a)\n", "2:8: a is a declared constant, not a variable"),
    ("fof", "const a. pred P/1, R/1.\nforall (x:P) P(x)\n", "2:11: P is not a declared restrictor"),
    ("fof", "const a. fn s/1. pred P/1.\ns(a)\n", "3:1: function constant s used as a formula"),
    ("fof", "const a. pred P/1.\nP(a) = a\n", "2:8: predicate P used in term position"),
    # a `(` after `=` starts no argument list of a bare left side
    ("formula", "x = (y) z", "1:5: expected term, found '('"),
    ("formula", "a = (b)", "1:5: expected term, found '('"),
    ("subst", "const a. pred P/1.\nP(x) := p;\n", "2:4: unknown constant x"),
    ("subst", "const a. pred P/1.\nQ(a) := p;\n", "2:1: unknown predicate Q"),
    ("subst", "const a. pred P/1.\nP(a) := p;\nP(a) := q;\n", "4:1: duplicate entry for P"),
    ("subst", "const a. pred P/1.\ndefault P := p;\ndefault P := q;\n",
     "4:1: duplicate default for P"),
    ("proof", _PROOF_HEAD + "2: P(a) -> P(a) by axiom k with F := P(a), G := P(a);\n",
     "3:1: expected line number 1, found 2"),
    ("proof", _PROOF_HEAD + "1: P(a) by axiom double-negation with F := P(a);\n",
     "3:18: unknown schema id double-negation"),
    ("proof", "const a. pred P/1.\nlevel HHT2+X;\n", "2:12: unknown level HHT2+X"),
    ("proof", "const a. pred P/1.\nlevel HHT3;\n", "2:7: unknown theory level HHT3"),
    ("proof", _PROOF_HEAD + "1: a = a by axiom cet-inject with f := b;\n", "3:40: unknown function constant b"),
    ("proof", _PROOF_HEAD, "3:1: proof file has no lines"),
    ("proof", _PROOF_HEAD + "1: P(a) by gen-all 1 a;\n", "3:22: a is a declared constant, not a variable"),
    ("proof", _PROOF_HEAD + "1: P(a) by so-gen 1 x;\n", "3:22: expected p/arity or f^arity"),
    ("proof", _PROOF_HEAD + "1: P(a) by axiom k with H := P(a);\n",
     "3:25: schema k has no metavariable H (expected one of F, G)"),
    ("proof", _PROOF_HEAD + "1: P(a) by magic;\n", "3:12: unknown justification 'magic'"),
    # a repeated key is refused where it is repeated, not overwritten
    ("proof", _PROOF_HEAD + "1: a = a by axiom eq-refl with t := b, t := a;\n",
     "3:40: duplicate binding for t"),
    ("proof", _PROOF_HEAD + "1: P(a) by axiom k with F := P(b), G := P(a), F := P(a);\n",
     "3:47: duplicate binding for F"),
    # every message names the end of the text the same way
    ("prop", "p ->", "1:5: expected a propositional formula, found end of input"),
    ("prop", "not", "1:4: expected a propositional formula, found end of input"),
    ("fof", "const a. pred P/1.\nP(a) ->", "2:8: expected a formula, found end of input"),
    ("fof", "const a. pred P/1.\nforall", "2:7: expected variable, found end of input"),
    ("proof", _PROOF_HEAD + "1: P(a) by mp", "3:14: expected number, found end of input"),
    ("proof", _PROOF_HEAD + "1: P(a) by", "3:11: expected justification, found end of input"),
    ("subst", "const a. pred P/1.\nP(a) :=",
     "2:8: expected a propositional formula, found end of input"),
    ("subst", "const a. pred P/1.\nP(a) := p;\ndefault",
     "3:8: expected predicate, found end of input"),
    # a restrictor's image is refused at its entry, not at the end of input
    ("subst", "const a. pred P/1. restrictor R/1.\nR(a) := p;\nP(a) := q;\n\n\n",
     "2:1: restrictor atom R(a) must map to top or bot"),
    ("subst", "const a. pred P/1. restrictor R/1.\nP(a) := q;\n\ndefault R := p & q;\n",
     "4:1: restrictor default R must be top or bot"),
])
def test_parse_error_message_is_pinned(kind, text, message):
    with pytest.raises(ParseError) as err:
        _PARSERS[kind](text)
    assert str(err.value) == message


def test_subst_file_restrictor_must_be_top_or_bot():
    good = parse_subst_file("const a. pred P/1. restrictor R/1.\nP(a) := u; R(a) := top;")
    assert good.lookup.__self__ is good  # smoke: object built
    with pytest.raises(ParseError):
        parse_subst_file("const a. pred P/1. restrictor R/1.\nR(a) := u;")


def test_subst_file_rejects_variables_in_atoms():
    with pytest.raises(ParseError):
        parse_subst_file("const a. pred P/1.\nP(x) := u;")


def test_proof_file_requires_sequential_numbering():
    text = """const a. pred P/1.
level HHT;
2: P(a) -> P(a) -> P(a) by axiom k with F := P(a), G := P(a);
"""
    with pytest.raises(ParseError):
        parse_proof_file(text)


def test_proof_file_unknown_schema():
    text = """const a. pred P/1.
level HHT;
1: not not P(a) -> P(a) by axiom double-negation with F := P(a);
"""
    with pytest.raises(ParseError):
        parse_proof_file(text)


def test_fo_round_trip_randomized():
    rng = random.Random(13)
    sig = Signature.make({"a": 0, "b": 0}, {"P": 1, "Q": 2, "R": 1}, {"R"})
    for _ in range(300):
        f = gen.rand_formula(rng, sig, depth=4, restrictor_share=0.4)
        text = formula_to_text(f)
        assert parse_formula_text(text, sig) == f, text


def test_prop_round_trip_randomized():
    rng = random.Random(17)
    for _ in range(300):
        f = gen.rand_prop(rng, depth=3)
        text = prop_to_text(gen.program(f))
        assert gen.tree(parse_prop_text(text)) == f, text


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(os.path.dirname(data_path("lem.prop")))
                   if n.endswith(".proof")),
)
def test_shipped_proof_renders_back_to_its_text(name):
    text = load_text(name)
    assert render_proof(parse_proof_file(text)) == text


# ---------------------------------------------------------------------------
# the tokenizer against the one it replaced

_DATA = sorted(n for n in os.listdir(os.path.dirname(data_path("lem.prop")))
               if n.rsplit(".", 1)[-1] in ("prop", "fof", "subst", "proof"))

# the tokenizer before tokens became plain strings: one `finditer` pass into
# (kind, text, offset), kept as the reference for token texts and offsets
_REFERENCE_RE = re.compile(
    r"""(?P<skip>\s+|\#[^\n]*)
      | (?P<op><->|->|:=|!=|[(){}\[\],;:.&|=/^+])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z_][A-Za-z0-9_]*)*)
      | (?P<num>[0-9]+)
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _line_col(text, pos):
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _reference_tokens(text):
    """(token texts, offsets, kinds), closed by "" at the end of the text,
    or the (message, line, col) of the first bad character."""
    tokens, offsets, kinds = [], [], []
    for m in _REFERENCE_RE.finditer(text):
        if m.lastgroup == "bad":
            return (f"unexpected character {m.group()!r}", *_line_col(text, m.start()))
        if m.lastgroup != "skip":
            tokens.append(m.group())
            offsets.append(m.start())
            kinds.append(m.lastgroup)
    return tokens + [""], offsets + [len(text)], kinds + ["eof"]


def _kind(cur):
    """The kind of the next token, as `expect_ident` and `expect_num` read it."""
    cur.error = ParseError  # so a refusal does not scan the text for its position
    try:
        for kind, expect in (("ident", cur.expect_ident), ("num", cur.expect_num)):
            try:
                expect()
            except ParseError:
                continue
            cur.i -= 1
            return kind
        return "op" if cur.peek() else "eof"
    finally:
        del cur.error


def _assert_tokenizes_like_reference(text, at=None):
    """Same tokens, or the same bad-character error; and at the token
    indices `at` (default: all) the same kind, and `Cursor.error` reports
    the reference `line:col`."""
    ref = _reference_tokens(text)
    try:
        cur = Cursor(text)
    except ParseError as e:
        assert (str(e), e.line, e.col) == (f"{ref[1]}:{ref[2]}: {ref[0]}", *ref[1:])
        return
    tokens, offsets, kinds = ref
    assert cur.tokens == tokens
    for i in range(len(tokens)) if at is None else at:
        cur.i = min(max(i, 0), len(tokens) - 1)
        assert _kind(cur) == kinds[cur.i], i
        e = cur.error("m")
        assert (e.line, e.col) == _line_col(text, offsets[cur.i]), i


@pytest.mark.parametrize("name", _DATA)
def test_tokenizer_matches_reference_on_shipped_files(name):
    text = load_text(name)
    n = len(_reference_tokens(text)[0])
    _assert_tokenizes_like_reference(text, at=[*random.Random(name).sample(range(n), min(n, 8)), n - 1])


_SEPARATE = re.compile(r"\w+|\s+|:=|->|<->|!=|\S")  # as tests/test_cli_property.py splits
_REPLACEMENTS = ["(", ")", "{", "}", ";", ":", ":=", "->", "<->", "<", "-", "!", "!=", "#",
                 "# c\n", "x", "a-b", "9", "é", "²", "١", "\t", "\r", "\f", "\v", "\n", " ", ""]


@pytest.mark.parametrize("name", _DATA)
def test_tokenizer_matches_reference_on_mutations(name):
    rng = random.Random(name)
    pieces = _SEPARATE.findall(load_text(name))
    for _ in range(8):
        k = rng.randrange(len(pieces))
        mutated = pieces[:k] + [rng.choice(_REPLACEMENTS)] + pieces[k + 1:]
        # the token index of the site is at most its piece index
        _assert_tokenizes_like_reference("".join(mutated), at=(k - 1, k))


# every code point the regex's `\s` matches; `str.split` splits at the same ones
_SPACES = re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1))))


@pytest.mark.parametrize("text", [
    "", " ", "\n\n", " \t\r\f\v\n", "# comment at the end", "p # comment at the end",
    "p\t&\rq\f|\vr", "-", "<", "!", "p - q", "a-b", "a->b", "a - b", "a-b-c-", "a--b",
    "x<->y<-z", ":=:", "!==", "é", "pé", "x²", "١", "P(١)", "12ab", "_x-_y", "((#)\n)",
    # each space between tokens, in a text whose words repeat (tokenized per word)
    *(f"p{c}&{c}p{c}&{c}P(x){c}&{c}P(x)" for c in _SPACES),
    # comments glued to tokens, and a `#` inside a word
    "P(x)#c\nQ", "a#c", "ab#cd ef\ngh", "P(x)#c\nP(x)#c\nP(x) P(x)#c", "a a a#c",
    "a#b a#b\na a", "p -#c\n> p -> p",
    # most words distinct (one pass over the text), and most repeated (per word)
    "p & q & r", "p & p & p", "p & q & p", "P(é) & P(é) & P(é)", "- - - -", "P(a) P(a) P(a) ١",
])
def test_tokenizer_matches_reference_on_edge_cases(text):
    _assert_tokenizes_like_reference(text)


class _Findall:
    """Stands in for `parser._TOKEN_RE`, recording what it tokenizes."""

    def __init__(self):
        self.texts = []
        self.finditer = _TOKEN_RE.finditer

    def findall(self, text):
        self.texts.append(text)
        return _TOKEN_RE.findall(text)


@pytest.mark.parametrize("text, per_word", [
    ("p & q & r", False), ("p & q & p", False), ("p & p & p", True), ("P(a) P(a) P(a) ١", True),
    (load_text("example1a.proof"), True), (load_text("example6.subst"), False),
])
def test_tokenizer_takes_the_path_its_edge_cases_name(text, per_word, monkeypatch):
    recorded = _Findall()
    monkeypatch.setattr(parser, "_TOKEN_RE", recorded)
    try:
        Cursor(text)
    except ParseError:
        pass
    assert (recorded.texts != [text]) == per_word


# ---------------------------------------------------------------------------
# span ends against the depth list they replaced

class _ReferenceEnds:
    """`Cursor.end` before marks, kept as the reference for it: the answers
    are read from the parenthesis depth before each token."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.depth = [0, *accumulate(map({"(": 1, ")": -1}.get, tokens, repeat(0)))]

    def end(self, i, stop):
        depth, tokens, start, end = self.depth, self.tokens, i, -1
        try:
            if stop == ")":
                return depth.index(depth[i] - 1, i + 1) - 1
            end = tokens.index(";", i)
            while depth[j := tokens.index(stop, i, end)] != depth[start]:
                i = j + 1
            return j
        except ValueError:  # unbalanced, no `;`, or no `stop` before it
            return end


def _reference(tokens):
    """The reference over `tokens`, where `Cursor.end` reads braces as
    parentheses (the same answers for a text without braces)."""
    return _ReferenceEnds([{"{": "(", "}": ")"}.get(t, t) for t in tokens])


def _predicting(cur):
    """`cur`, made to predict span ends, and so to memoize spans, with the
    marks it builds for a text whose words mostly repeat, whatever its text."""
    if not cur.repeats:
        cur.repeats = True
        cur.marks = "".join(map(parser._MARKS.get, cur.tokens, repeat(".")))
    return cur


def _checked_ends(monkeypatch):
    """Make every `Cursor.end` call the parser makes check its answer
    against the reference (-1 in a text whose words mostly do not repeat);
    return the list of (stop, answer) it checked."""
    end, checked, refs = Cursor.end, [], {}

    def patched(self, stop):
        got = end(self, stop)
        if id(self) not in refs:  # the cursor is kept, so its id is not reused
            refs[id(self)] = (self, _reference(self.tokens))
        ref = refs[id(self)][1]
        assert got == (ref.end(self.i, stop) if self.repeats else -1), (self.i, stop)
        checked.append((stop, got))
        return got

    monkeypatch.setattr(Cursor, "end", patched)
    return checked


@pytest.mark.parametrize("name", sorted(n for n in _DATA if n.endswith(".proof")))
def test_end_matches_reference_where_a_proof_parse_calls_it(name, monkeypatch):
    text = load_text(name)
    checked = _checked_ends(monkeypatch)
    parse_proof_file(text)
    assert len([stop for stop, _ in checked if stop == "by"]) == text.count(" by ")


def test_end_matches_reference_where_a_mutation_parse_calls_it(monkeypatch):
    texts = _proof_mutations()
    checked = _checked_ends(monkeypatch)
    for text in texts:
        _parse_outcome(text)
    assert len(checked) > 10_000


def test_end_matches_reference_where_a_prop_parse_calls_it(monkeypatch):
    texts = _prop_mutations()
    checked = _checked_ends(monkeypatch)
    for text in texts:
        try:
            parse_prop_text(text)
        except ParseError:
            pass
    assert {stop for stop, _ in checked} == {")"} and -1 in {got for _, got in checked}


@pytest.mark.parametrize("text", [
    # unbalanced `(` and `)`
    "((P(a) -> Q", "P(a))) -> (Q", ")(", "(((", ")))", "( ) ) ( ( )",
    # no final `;`, and a `;` in a group
    "1: P(a) by axiom k with F := P(a), G := (P(a), Q)", "(P; Q) by x, y;",
    # a stop at another depth than the span's
    "F := P(a, b), G := (Q by R), H := Q by S, T;",
    "(a, (b, c), d) , e by (by) by ; f , g",
    # nests deeper than the marks regex skips, balanced or not, with braces too
    "(" * 20 + "P" + ")" * 20 + " by x;", "(" * 20 + "P" + ")" * 19 + " , ;",
    "And{" * 12 + "p" + "}" * 12 + " ; " + "Or{(" * 11 + "p" + ")}" * 10,
    "{ ( } )", "(P(a) & {Q}) ; {(p)}", "",
])
def test_end_matches_reference_at_every_token(text):
    # forward, then backward, so no answer kept from an earlier call stands
    # in for one it does not answer
    for order, stops in ((range, (")", "by", ",", ";")),
                         (lambda n: reversed(range(n)), (",", ")", "by"))):
        cur = _predicting(Cursor(text))
        ref = _reference(cur.tokens)
        for i in order(len(cur.tokens)):
            for stop in stops:
                cur.i = i
                assert cur.end(stop) == ref.end(i, stop), (i, stop)


@pytest.mark.parametrize("closed", [True, False])
def test_a_deep_nest_finds_each_end_once(closed):
    # 1,000 groups, each end asked for once, as a parse would, from the
    # outside in: the first answer keeps the end of each group it stepped
    # into (all but the 8 innermost closed ones), and the next read them
    n = 1000
    cur = _predicting(Cursor("(" * n + "P" + ")" * n * closed + ";"))
    for i in range(1, n + 1):
        cur.i = i
        assert cur.end(")") == (2 * n + 1 - i if closed else -1)
        assert len(cur.closes) == (max(n - 8, i) if closed else n)


def test_groups_nested_8_deep_are_skipped_whole():
    # the regex skips what nests at most 8 deep inside the group: only the
    # group asked for is kept, and one more level is stepped into
    for depth, kept in ((8, 1), (9, 2)):
        cur = _predicting(Cursor("(" * (depth + 1) + "P" + ")" * (depth + 1) + ";"))
        cur.i = 1
        assert cur.end(")") == 2 * depth + 2
        assert len(cur.closes) == kept


# ---------------------------------------------------------------------------
# the span memo

class _NoMemo(dict):
    """A span memo that stores nothing, so every span is parsed."""

    def __setitem__(self, key, value):
        pass


class _Counting(dict):
    """A span memo that records each lookup: the key, joined, and whether
    it hit."""

    def __init__(self):
        super().__init__()
        self.lookups = []

    def get(self, key):
        got = super().get(key)
        self.lookups.append((" ".join(key), got is not None))
        return got


def _with_memo(monkeypatch, memo):
    """Make every `Cursor` predict span ends (`_predicting`) and use a new
    `memo()` as its span memo; return the list of the memos made."""
    init, made = Cursor.__init__, []

    def patched(self, text):
        init(self, text)
        _predicting(self)
        self.spans = memo()
        made.append(self.spans)

    monkeypatch.setattr(Cursor, "__init__", patched)
    return made


def _without_memo(monkeypatch):
    _with_memo(monkeypatch, _NoMemo)


def _same_sharing(a, b, seen):
    """Walk `a` and `b` in parallel: one object of `a` always meets one
    object of `b` (`seen` maps the id of the first to the second)."""
    if isinstance(a, (str, int)) or a is None:
        assert a == b
        return
    if id(a) in seen:
        assert seen[id(a)] is b
        return
    seen[id(a)] = b
    assert type(a) is type(b)
    if isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same_sharing(x, y, seen)
    else:
        for name in type(a).__match_args__:
            _same_sharing(getattr(a, name), getattr(b, name), seen)


@pytest.mark.parametrize("name", sorted(n for n in _DATA if n.endswith(".proof")))
def test_memo_changes_no_parse(name, monkeypatch):
    text = load_text(name)
    memoized = parse_proof_file(text)
    _without_memo(monkeypatch)
    plain = parse_proof_file(text)
    assert memoized == plain
    assert repr(memoized) == repr(plain)
    seen = {}
    _same_sharing(memoized.lines, plain.lines, seen)
    # and one object of `plain` always meets one object of `memoized`
    assert len({id(b) for b in seen.values()}) == len(seen)


def test_memo_is_used():
    cur = _predicting(Cursor("(P(a) | Q) -> (P(a) | Q) & ((P(a) | Q))"))
    cur.spans = _Counting()
    f = _parse_binary(cur, SIG, _FO)
    # groups only: the formula's own end is not predicted; a key leaves out
    # the `)` that stops it
    assert cur.spans.lookups == [
        ("P ( a ) | Q", False), ("P ( a ) | Q", True),
        ("( P ( a ) | Q )", False), ("P ( a ) | Q", True),
    ]
    assert f.left is f.right.left is f.right.right


def test_a_text_of_mostly_distinct_words_looks_up_no_span():
    cur = Cursor("(P(a) | Q) -> (P(a) | Q) & ((P(a) | Q))")
    cur.spans = _Counting()
    assert not cur.repeats and cur.end(")") == cur.end("by") == -1
    f = _parse_binary(cur, SIG, _FO)
    assert cur.spans.lookups == []
    assert f.left is f.right.left is f.right.right  # interned all the same


def test_memo_lookups_in_a_proof_are_pinned(monkeypatch):
    made = _with_memo(monkeypatch, _Counting)
    proof = parse_proof_file(
        "const a.  pred P/0, Q/1.  level HHT;\n"
        "1: P -> Q(x) -> P by axiom k with F := P, G := Q(x);\n"
        "2: Q(x) -> P by mp 3 1;\n"
        "3: (P <-> P) <-> P -> P by axiom k with F := (P <-> P) <-> P, G := P -> P;\n"
    )
    (memo,) = made
    assert memo.lookups == [
        # a line's formula, the right operand of each `->` and each binding;
        # a key leaves out its stop, so `F := P` hits the right operand `P`
        ("P -> Q ( x ) -> P", False), ("Q ( x ) -> P", False), ("P", False),
        ("P", True), ("Q ( x )", False),
        # an `mp` line restates a right operand
        ("Q ( x ) -> P", True),
        # a group; no right operand of a span that holds `<->`
        ("( P <-> P ) <-> P -> P", False), ("P <-> P", False),
        # a binding stops at the first `,` at its depth, else at the `;`
        ("( P <-> P ) <-> P", False), ("P <-> P", True), ("P -> P", False), ("P", True),
    ]
    assert proof.lines[1].formula is proof.lines[0].formula.right


def test_a_binding_hits_an_equal_group_or_right_operand(monkeypatch):
    # a span stopped by `)`, `by`, `,` or `;` is one entry: `F := P -> Q`
    # hits the group `(P -> Q)` and `G := R -> S` the right operand of the
    # line's `->`, both parsed earlier on the same line
    made = _with_memo(monkeypatch, _Counting)
    parse_proof_file("const a.  pred P/0, Q/0, R/0, S/0.  level HHT;\n"
                     "1: (P -> Q) -> R -> S by axiom k with F := P -> Q, G := R -> S;\n")
    (memo,) = made
    assert memo.lookups == [
        ("( P -> Q ) -> R -> S", False), ("P -> Q", False), ("Q", False),
        ("R -> S", False), ("S", False),
        ("P -> Q", True), ("R -> S", True),
    ]


def test_proof_memo_misses_are_bounded(monkeypatch):
    # a span is parsed once whichever token stops it: 2,919 misses over the
    # shipped proofs, where keys that held their stop took 5,711
    names = sorted(n for n in _DATA if n.endswith(".proof"))
    made = _with_memo(monkeypatch, _Counting)
    for name in names:
        parse_proof_file(load_text(name))
    assert len(names) == 12
    assert sum(not hit for memo in made for _, hit in memo.lookups) <= 3000


def test_a_wrong_prediction_costs_a_miss(monkeypatch):
    # `by` is a predicate here too, so each line's end is predicted at its
    # first token; the parse stops elsewhere, and nothing is stored
    line = "by -> by by axiom k with F := by, G := by;\n"
    text = f"const a.  pred by/0.  level HHT;\n1: {line}2: {line}"
    _with_memo(monkeypatch, dict)
    memoized = parse_proof_file(text)
    _without_memo(monkeypatch)
    assert repr(memoized) == repr(parse_proof_file(text))


def test_a_right_operand_never_takes_a_parse_across_iff(monkeypatch):
    # line 2's `->` operand has line 1's tokens and stop, but at power 1 it
    # ends at `<->`: `(P -> Q) <-> R`, not `P -> (Q <-> R)`
    text = ("const a.  pred P/0, Q/0, R/0.  level HHT;\n"
            "1: Q <-> R by axiom efq with F := P;\n2: P -> Q <-> R by axiom efq with F := P;\n")
    made = _with_memo(monkeypatch, _Counting)
    memoized = parse_proof_file(text)
    assert any(hit for _, hit in made[0].lookups)  # the memo is in use
    assert memoized.lines[1].formula == parse_formula_text("(P -> Q) <-> R", memoized.signature)
    _without_memo(monkeypatch)
    assert repr(memoized) == repr(parse_proof_file(text))


def test_memo_keys_stay_linear_in_the_text(monkeypatch):
    # each line's right operands nest 300 deep: every one looked up, their
    # keys would hold about 150 tokens per token of the text
    text = "const a.  pred P/0, Q/1.  level HHT;\n" + "".join(
        f"{k}: {'P -> ' * 300}Q(x{k}) by axiom efq with F := P;\n" for k in range(1, 11))
    made = _with_memo(monkeypatch, _Counting)
    memoized = parse_proof_file(text)
    (memo,) = made
    # 8 tokens per token, and the last key may run over by one text's worth
    assert sum(len(key.split()) for key, _ in memo.lookups) <= 9 * len(Cursor(text).tokens)
    _without_memo(monkeypatch)
    assert repr(memoized) == repr(parse_proof_file(text))


# edits that keep a proof's syntax or break it; a piece of the file itself
# is drawn as well
_EDITS = ["(", ")", ",", ";", "->", "<->", "&", "|", "not", "by", ":=", "x", "P(x)", ""]


def _parse_outcome(text):
    try:
        return repr(parse_proof_file(text))
    except ParseError as e:
        return f"ParseError: {e}"


def _proof_mutations():
    """Each shipped proof with one piece replaced, at 4 seeded sites."""
    rng = random.Random(13)
    texts = []
    for name in sorted(n for n in _DATA if n.endswith(".proof")):
        pieces = _SEPARATE.findall(load_text(name))
        for _ in range(4):
            k = rng.randrange(len(pieces))
            edit = rng.choice(_EDITS + [rng.choice(pieces)])
            texts.append("".join(pieces[:k] + [edit] + pieces[k + 1:]))
    return texts


def test_memo_changes_no_parse_of_a_mutation(monkeypatch):
    texts = _proof_mutations()
    made = _with_memo(monkeypatch, _Counting)
    memoized = [_parse_outcome(text) for text in texts]
    _without_memo(monkeypatch)
    assert [_parse_outcome(text) for text in texts] == memoized
    # not vacuous: the memo hit, and both outcomes occur
    assert any(hit for memo in made for _, hit in memo.lookups)
    errors = sum(out.startswith("ParseError") for out in memoized)
    assert 0 < errors < len(texts)


def _nested_iff_instance(n):
    """The printed instance of `gen.nested_iff(n)` under `P := p`."""
    text = "And{p -> p}"
    for _ in range(n - 1):
        text = f"And{{{text} -> p; p -> {text}}}"
    return text


@pytest.mark.parametrize("n", [1, 2, 3, 6, 18])
def test_prop_groups_are_parsed_once(n):
    # each level's group is parsed once and met again as a memo hit, and
    # the program holds each distinct subformula once: 3 entries a level
    # (the group and two implications; `p` is one entry) where the tree
    # doubles, also at n = 2, whose words are mostly distinct, so that no
    # group is looked up
    f = parse_prop_text(_nested_iff_instance(n))
    assert prop_stats(f)[2:] == (3 * n, 9 * 2 ** (n - 1) - 5)


def _prop_mutations():
    """Prop texts with one piece replaced, at seeded sites."""
    rng = random.Random(17)
    # spaced out, so that most words repeat and groups are looked up
    texts = [_nested_iff_instance(4), "( p | q ) -> ( p | q ) & ( ( p | q ) )",
             "And{ Or{ p ; q } ; ( p -> q ) } -> Or{ ( p -> q ) ; And{ Or{ p ; q } } }"]
    texts += [load_text(n) for n in _DATA if n.endswith(".prop")]
    out = []
    for text in texts:
        pieces = _SEPARATE.findall(text)
        for _ in range(6):
            k = rng.randrange(len(pieces))
            edit = rng.choice(["(", ")", "{", "}", ";", "And", "Or{", "->", "p", ""])
            out.append("".join(pieces[:k] + [edit] + pieces[k + 1:]))
    return texts + out


def test_prop_memo_changes_no_parse(monkeypatch):
    def outcome(text):
        try:
            return prop_to_text(parse_prop_text(text))
        except ParseError as e:
            return f"ParseError: {e}"

    texts = _prop_mutations()
    made = _with_memo(monkeypatch, _Counting)
    memoized = [outcome(text) for text in texts]
    _without_memo(monkeypatch)
    assert [outcome(text) for text in texts] == memoized
    assert any(hit for memo in made for _, hit in memo.lookups)
    errors = sum(out.startswith("ParseError") for out in memoized)
    assert 0 < errors < len(texts)


@pytest.mark.parametrize("text, message", [
    ("(P(a) | Q) -> (P(a) | Q) P(b)", "1:26: unexpected trailing input 'P'"),
    ("(P(a) | Q) ->\n  (P(a) | Q) &\n  (P(a) | Q) )", "3:14: unexpected trailing input ')'"),
    ("(P(a) | Q) -> (P(a) | Q", "1:24: expected ')', found end of input"),
    ("(P(a) | Q) -> (P(a) | Q) -> (P(a) | Q(a))", "1:41: Q expects 0 arguments, got 1"),
])
def test_error_after_a_memo_hit_is_pinned(text, message, monkeypatch):
    for memo in (True, False):
        if memo:
            _with_memo(monkeypatch, dict)
        else:
            _without_memo(monkeypatch)
        with pytest.raises(ParseError) as err:
            fof(text)
        assert str(err.value) == message, memo


@pytest.mark.parametrize("parse, text, message", [
    # a hit on `And{p; q}` moves past its own `}` unchecked, so that `}` is
    # in the key, and the last group, closed by `)`, misses
    (parse_prop_text, "And{p; q} & And{p; q} & And{p; q} & And{p; q)",
     "1:45: expected '}', found ')'"),
    # a `(` group's key leaves out its close, which is checked after a hit
    (fof, "(P(a) | Q) -> (P(a) | Q) & (P(a) | Q}", "1:37: expected ')', found '}'"),
    (fof, "(P(a) | Q) ->\n  (P(a) | Q} & (P(a) | Q)", "2:12: expected ')', found '}'"),
])
def test_a_group_closed_by_the_wrong_bracket_after_a_memo_hit(parse, text, message, monkeypatch):
    for memo in (True, False):
        made = _with_memo(monkeypatch, _Counting) if memo else _without_memo(monkeypatch)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message, memo
        if memo:
            assert any(hit for _, hit in made[0].lookups)
