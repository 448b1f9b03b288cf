"""ASCII text front-end: terms, formulas, propositional formulas,
signature blocks, substitution files and proof files.

Precedence, tightest first: `not` and quantifiers, `&`, `|`, `->`
(right-associative), `<->`.  A quantifier takes the smallest formula that
follows it, so `forall x P(x) -> Q` is `(forall x P(x)) -> Q`.

Identifiers not declared in the ambient signature parse as variables:
object variables in term position, predicate variables (of the applied
arity) in formula position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .instantiation import Substitution
from .kernel import (
    GEN_KEYWORDS,
    ByAxiom,
    ByGen,
    ByMP,
    Proof,
    ProofLine,
    SCHEMAS,
    TheoryLevel,
)
from .syntax import (
    BOT,
    BOTTOM,
    TOP,
    TRUTH,
    Atom,
    Binary,
    Equals,
    FnApp,
    FnVarApp,
    FOFormula,
    FuncVar,
    GenVar,
    GroundAtom,
    PAnd,
    PAtom,
    PImp,
    POr,
    PredVar,
    PropFormula,
    Quant,
    Signature,
    Term,
    Var,
    conj,
    iff,
    impl,
    neg,
    piff,
    pneg,
)

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<op><->|->|:=|!=|[(){}\[\],;:.&|=/^+])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z_][A-Za-z0-9_]*)*)
      | (?P<num>\d+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "num" | "op" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class Cursor:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            found = repr(tok.text) if tok.kind != "eof" else "end of input"
            raise self.error(f"expected {text!r}, found {found}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected {what}, found {tok.text!r}")
        return self.next()

    def expect_num(self) -> int:
        tok = self.peek()
        if tok.kind != "num":
            raise self.error(f"expected number, found {tok.text!r}")
        self.next()
        return int(tok.text)

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error(f"unexpected trailing input {tok.text!r}")

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# signature blocks

_SIG_KEYWORDS = {"const", "fn", "pred", "restrictor"}


def parse_signature_block(cur: Cursor) -> Signature:
    """`const a, b.  fn s/1.  pred P/1, Q/0.  restrictor R/1.`"""
    functions: dict[str, int] = {}
    predicates: dict[str, int] = {}
    restrictors: set[str] = set()

    def declare(table: dict[str, int], name: str, arity: int) -> None:
        if name in functions or name in predicates:
            if table.get(name) != arity:
                raise cur.error(f"conflicting declaration of {name}")
        table[name] = arity

    while cur.peek().kind == "ident" and cur.peek().text in _SIG_KEYWORDS:
        kw = cur.next().text
        while True:
            name = cur.expect_ident("name").text
            if kw == "const":
                declare(functions, name, 0)
            else:
                if cur.eat("/"):
                    arity = cur.expect_num()
                elif kw == "restrictor" and predicates.get(name) == 1:
                    arity = 1
                else:
                    raise cur.error(f"expected /arity after {name}")
                if kw == "fn":
                    declare(functions, name, arity)
                else:
                    declare(predicates, name, arity)
                    if kw == "restrictor":
                        restrictors.add(name)
            if not cur.eat(","):
                break
        cur.expect(".")
    try:
        return Signature.make(functions, predicates, restrictors)
    except Exception as e:
        raise cur.error(str(e)) from None


# ---------------------------------------------------------------------------
# terms and first-order formulas

def _parse_args(cur: Cursor, sig: Signature, allow_vars: bool) -> tuple[Term, ...]:
    cur.expect("(")
    args = []
    if not cur.at(")"):
        while True:
            args.append(_parse_term(cur, sig, allow_vars))
            if not cur.eat(","):
                break
    cur.expect(")")
    return tuple(args)


def _term_from_ident(cur: Cursor, sig: Signature, name: str, allow_vars: bool) -> Term:
    if cur.at("("):
        args = _parse_args(cur, sig, allow_vars)
        arity = sig.function_arity(name)
        if arity is not None:
            if arity != len(args):
                raise cur.error(f"{name} expects {arity} arguments, got {len(args)}")
            return FnApp(name, args)
        if sig.predicate_arity(name) is not None:
            raise cur.error(f"predicate {name} used in term position")
        if not allow_vars:
            raise cur.error(f"unknown function constant {name}")
        return FnVarApp(FuncVar(name, len(args)), args)
    arity = sig.function_arity(name)
    if arity == 0:
        return FnApp(name, ())
    if arity is not None:
        raise cur.error(f"function constant {name} needs {arity} arguments")
    if sig.predicate_arity(name) is not None:
        raise cur.error(f"predicate {name} used in term position")
    if not allow_vars:
        raise cur.error(f"unknown constant {name}")
    return Var(name)


def _parse_term(cur: Cursor, sig: Signature, allow_vars: bool = True) -> Term:
    name = cur.expect_ident("term").text
    return _term_from_ident(cur, sig, name, allow_vars)


def parse_term_text(text: str, sig: Signature, allow_vars: bool = True) -> Term:
    cur = Cursor(text)
    t = _parse_term(cur, sig, allow_vars)
    cur.expect_eof()
    return t


def _parse_binder(cur: Cursor, sig: Signature):
    if cur.at("("):
        cur.expect("(")
        items = []
        while True:
            vname = cur.expect_ident("variable").text
            if sig.function_arity(vname) is not None or sig.predicate_arity(vname) is not None:
                raise cur.error(f"{vname} is a declared constant, not a variable")
            cur.expect(":")
            rname = cur.expect_ident("restrictor").text
            if not sig.is_restrictor(rname):
                raise cur.error(f"{rname} is not a declared restrictor")
            items.append((Var(vname), rname))
            if not cur.eat(","):
                break
        cur.expect(")")
        try:
            return GenVar(tuple(items))
        except ValueError as e:
            raise cur.error(str(e)) from None
    name = cur.expect_ident("variable").text
    if sig.function_arity(name) is not None or sig.predicate_arity(name) is not None:
        raise cur.error(f"{name} is a declared constant, not a variable")
    if cur.eat("/"):
        return PredVar(name, cur.expect_num())
    if cur.eat("^"):
        return FuncVar(name, cur.expect_num())
    return Var(name)


def _parse_unary(cur: Cursor, sig: Signature) -> FOFormula:
    tok = cur.peek()
    if tok.text == "(":
        cur.next()
        f = _parse_formula(cur, sig)
        cur.expect(")")
        return f
    if tok.text == "not":
        cur.next()
        return neg(_parse_unary(cur, sig))
    if tok.text in ("forall", "exists"):
        cur.next()
        binder = _parse_binder(cur, sig)
        return Quant(tok.text, binder, _parse_unary(cur, sig))
    if tok.text == "bot":
        cur.next()
        return BOTTOM
    if tok.text == "top":
        cur.next()
        return TRUTH
    if tok.kind != "ident":
        raise cur.error(f"expected a formula, found {tok.text!r}")
    cur.next()
    name = tok.text
    args: tuple[Term, ...] | None = None
    if cur.at("("):
        args = _parse_args(cur, sig, allow_vars=True)
    if cur.at("=") or cur.at("!="):
        negated = cur.next().text == "!="
        if args is None:
            left = _term_from_ident(cur, sig, name, allow_vars=True)
        else:
            arity = sig.function_arity(name)
            if arity is not None:
                if arity != len(args):
                    raise cur.error(f"{name} expects {arity} arguments, got {len(args)}")
                left = FnApp(name, args)
            elif sig.predicate_arity(name) is not None:
                raise cur.error(f"predicate {name} used in term position")
            else:
                left = FnVarApp(FuncVar(name, len(args)), args)
        right = _parse_term(cur, sig, allow_vars=True)
        eqf = Equals(left, right)
        return neg(eqf) if negated else eqf
    arity = sig.predicate_arity(name)
    nargs = len(args) if args is not None else 0
    if arity is not None:
        if arity != nargs:
            raise cur.error(f"{name} expects {arity} arguments, got {nargs}")
        return Atom(name, args or ())
    if sig.function_arity(name) is not None:
        raise cur.error(f"function constant {name} used as a formula")
    return Atom(PredVar(name, nargs), args or ())


def _parse_and(cur: Cursor, sig: Signature) -> FOFormula:
    f = _parse_unary(cur, sig)
    while cur.at("&"):
        cur.next()
        f = conj(f, _parse_unary(cur, sig))
    return f


def _parse_or(cur: Cursor, sig: Signature) -> FOFormula:
    f = _parse_and(cur, sig)
    while cur.at("|"):
        cur.next()
        f = Binary("|", f, _parse_and(cur, sig))
    return f


def _parse_imp(cur: Cursor, sig: Signature) -> FOFormula:
    f = _parse_or(cur, sig)
    if cur.at("->"):
        cur.next()
        return impl(f, _parse_imp(cur, sig))
    return f


def _parse_formula(cur: Cursor, sig: Signature) -> FOFormula:
    f = _parse_imp(cur, sig)
    while cur.at("<->"):
        cur.next()
        f = iff(f, _parse_imp(cur, sig))
    return f


def parse_formula_text(text: str, sig: Signature) -> FOFormula:
    cur = Cursor(text)
    f = _parse_formula(cur, sig)
    cur.expect_eof()
    return f


def parse_formula_file(text: str) -> tuple[Signature, FOFormula]:
    """A signature block followed by one formula, optionally `;`-terminated."""
    cur = Cursor(text)
    sig = parse_signature_block(cur)
    f = _parse_formula(cur, sig)
    cur.eat(";")
    cur.expect_eof()
    return sig, f


# ---------------------------------------------------------------------------
# propositional formulas

_PROP_KEYWORDS = {"And", "Or", "not", "top", "bot"}


def _parse_prop_unary(cur: Cursor) -> PropFormula:
    tok = cur.peek()
    if tok.text == "(":
        cur.next()
        f = _parse_prop(cur)
        cur.expect(")")
        return f
    if tok.text == "not":
        cur.next()
        return pneg(_parse_prop_unary(cur))
    if tok.text == "top":
        cur.next()
        return TOP
    if tok.text == "bot":
        cur.next()
        return BOT
    if tok.text in ("And", "Or"):
        cur.next()
        cur.expect("{")
        items = []
        if not cur.at("}"):
            while True:
                items.append(_parse_prop(cur))
                if not cur.eat(";"):
                    break
        cur.expect("}")
        return PAnd(items) if tok.text == "And" else POr(items)
    if tok.kind != "ident":
        raise cur.error(f"expected a propositional formula, found {tok.text!r}")
    cur.next()
    return PAtom(tok.text)


def _parse_prop_and(cur: Cursor) -> PropFormula:
    f = _parse_prop_unary(cur)
    while cur.at("&"):
        cur.next()
        f = PAnd((f, _parse_prop_unary(cur)))
    return f


def _parse_prop_or(cur: Cursor) -> PropFormula:
    f = _parse_prop_and(cur)
    while cur.at("|"):
        cur.next()
        f = POr((f, _parse_prop_and(cur)))
    return f


def _parse_prop_imp(cur: Cursor) -> PropFormula:
    f = _parse_prop_or(cur)
    if cur.at("->"):
        cur.next()
        return PImp(f, _parse_prop_imp(cur))
    return f


def _parse_prop(cur: Cursor) -> PropFormula:
    f = _parse_prop_imp(cur)
    while cur.at("<->"):
        cur.next()
        f = piff(f, _parse_prop_imp(cur))
    return f


def parse_prop_text(text: str) -> PropFormula:
    cur = Cursor(text)
    f = _parse_prop(cur)
    cur.expect_eof()
    return f


def parse_prop_file(text: str) -> PropFormula:
    cur = Cursor(text)
    f = _parse_prop(cur)
    cur.eat(";")
    cur.expect_eof()
    return f


# ---------------------------------------------------------------------------
# substitution files

def parse_subst_file(text: str) -> Substitution:
    """Signature block, then `P(a,b) := <prop>;` entries and
    `default P := <prop>;` lines."""
    cur = Cursor(text)
    sig = parse_signature_block(cur)
    entries: dict[GroundAtom, PropFormula] = {}
    defaults: dict[str, PropFormula] = {}
    while cur.peek().kind != "eof":
        if cur.eat("default"):
            pred = cur.expect_ident("predicate").text
            if sig.predicate_arity(pred) is None:
                raise cur.error(f"unknown predicate {pred}")
            cur.expect(":=")
            defaults[pred] = _parse_prop(cur)
            cur.expect(";")
            continue
        pred = cur.expect_ident("predicate").text
        arity = sig.predicate_arity(pred)
        if arity is None:
            raise cur.error(f"unknown predicate {pred}")
        args: tuple[Term, ...] = ()
        if cur.at("("):
            args = _parse_args(cur, sig, allow_vars=False)
        if len(args) != arity:
            raise cur.error(f"{pred} expects {arity} arguments, got {len(args)}")
        cur.expect(":=")
        image = _parse_prop(cur)
        cur.expect(";")
        atom = GroundAtom(pred, args)
        if atom in entries:
            raise cur.error(f"duplicate entry for {pred}")
        entries[atom] = image
    try:
        return Substitution(sig, entries, defaults)
    except Exception as e:
        raise cur.error(str(e)) from None


# ---------------------------------------------------------------------------
# proof files

_LEVELS = {lvl.value: lvl for lvl in TheoryLevel}


def _parse_level(cur: Cursor) -> TheoryLevel:
    cur.expect("level")
    name = cur.expect_ident("theory level").text
    if name == "HHT2" and cur.eat("+"):
        suffix = cur.expect_ident("DCA").text
        if suffix != "DCA":
            raise cur.error(f"unknown level HHT2+{suffix}")
        name = "HHT2+DCA"
    level = _LEVELS.get(name)
    if level is None:
        raise cur.error(f"unknown theory level {name}")
    cur.expect(";")
    return level


def _parse_sovar_token(cur: Cursor) -> PredVar | FuncVar:
    name = cur.expect_ident("second-order variable").text
    if cur.eat("/"):
        return PredVar(name, cur.expect_num())
    if cur.eat("^"):
        return FuncVar(name, cur.expect_num())
    raise cur.error("expected p/arity or f^arity")


def _parse_binding_value(cur: Cursor, sig: Signature, kind: str):
    if kind == "formula":
        return _parse_formula(cur, sig)
    if kind == "term":
        return _parse_term(cur, sig)
    if kind == "var":
        name = cur.expect_ident("variable").text
        if sig.function_arity(name) is not None or sig.predicate_arity(name) is not None:
            raise cur.error(f"{name} is a declared constant, not a variable")
        return Var(name)
    if kind == "fn":
        name = cur.expect_ident("function constant").text
        if sig.function_arity(name) is None:
            raise cur.error(f"unknown function constant {name}")
        return name
    if kind in ("sovar", "predvar", "funcvar"):
        v = _parse_sovar_token(cur)
        if kind == "predvar" and not isinstance(v, PredVar):
            raise cur.error("expected a predicate variable p/arity")
        if kind == "funcvar" and not isinstance(v, FuncVar):
            raise cur.error("expected a function variable f^arity")
        return v
    if kind in ("terms", "vars"):
        cur.expect("[")
        items = []
        if not cur.at("]"):
            while True:
                if kind == "terms":
                    items.append(_parse_term(cur, sig))
                else:
                    items.append(_parse_binding_value(cur, sig, "var"))
                if not cur.eat(","):
                    break
        cur.expect("]")
        return tuple(items)
    raise cur.error(f"unhandled binding kind {kind}")


_GEN_RULES = {kw: key for key, kw in GEN_KEYWORDS.items()}


def _parse_justification(cur: Cursor, sig: Signature):
    cur.expect("by")
    kw = cur.expect_ident("justification").text
    if kw == "axiom":
        sid = cur.expect_ident("schema id").text
        schema = SCHEMAS.get(sid)
        if schema is None:
            raise cur.error(f"unknown schema id {sid}")
        binding: dict[str, object] = {}
        kinds = dict(schema.keys)
        if cur.eat("with"):
            while True:
                key = cur.expect_ident("binding key").text
                if key not in kinds:
                    raise cur.error(
                        f"schema {sid} has no metavariable {key} "
                        f"(expected one of {', '.join(kinds)})"
                    )
                cur.expect(":=")
                binding[key] = _parse_binding_value(cur, sig, kinds[key])
                if not cur.eat(","):
                    break
        return ByAxiom.of(sid, **binding)
    if kw == "mp":
        i = cur.expect_num()
        j = cur.expect_num()
        return ByMP(i, j)
    if kw in _GEN_RULES:
        second_order, kind = _GEN_RULES[kw]
        i = cur.expect_num()
        v = _parse_binding_value(cur, sig, "sovar" if second_order else "var")
        return ByGen(i, v, kind)
    raise cur.error(f"unknown justification {kw!r}")


def parse_proof_file(text: str) -> Proof:
    """Signature block, `level <LEVEL>;`, then numbered lines
    `n: <formula> by <justification>;` with n counting from 1."""
    cur = Cursor(text)
    sig = parse_signature_block(cur)
    level = _parse_level(cur)
    lines: list[ProofLine] = []
    while cur.peek().kind != "eof":
        n = cur.expect_num()
        if n != len(lines) + 1:
            raise cur.error(f"expected line number {len(lines) + 1}, found {n}")
        cur.expect(":")
        f = _parse_formula(cur, sig)
        just = _parse_justification(cur, sig)
        cur.expect(";")
        lines.append(ProofLine(f, just))
    if not lines:
        raise cur.error("proof file has no lines")
    return Proof(sig, level, tuple(lines))
