"""ASCII text front-end: terms, formulas, propositional formulas,
signature blocks, substitution files and proof files.

Precedence, tightest first: `not` and quantifiers, `&`, `|`, `->`
(right-associative), `<->`.  A quantifier takes the smallest formula that
follows it, so `forall x P(x) -> Q` is `(forall x P(x)) -> Q`.

Both formula languages share one precedence-climbing routine,
`_parse_binary`, driven by the table `_BINARY` (connective -> binding power
and associativity) and a per-language constructor; only the prefix forms
(atoms, `not`, quantifiers, `And{..}`, `Or{..}`) have a parser per
language.  Each level of `(`, `And{` or `Or{` costs two Python frames
(`_parse_binary` and the prefix parser) and each `not` or quantifier one,
so under the default recursion limit of 1000 about 490 nested parentheses
or 980 nested `not` parse; deeper input ends in `RecursionError`.

`Cursor` tokenizes a text into plain strings, per distinct word (split at
spaces, comments removed) if most words repeat, as a proof's do, else in
one `findall`.  It keeps no offsets: the `line:col` of a `ParseError` is
found only when the error is raised, by scanning the text again.

First-order constructors intern their nodes (see `syntax`): a subformula
that recurs, within a line, across lines and bindings, or across parses, is
one object while any occurrence of it is alive, so its facts are computed
and `syntax.eliminate_restrictors` unfolds it once.  Propositional text is
parsed straight into the model checker's program: each rule emits its
entry through a `syntax.program_builder` and returns its position, so a
subformula that recurs in one text is one entry; a substitution keeps the
program of its images.

Parsing is context-free given the signature and reads one token ahead, so
in a text whose words mostly repeat, a span whose tokens occurred earlier
in the parse is not parsed again: the `Cursor`'s span memo returns the node
or program position a second parse would give, which saves time only.
`_parse_binary` looks a span up where it is told the token that stops it: a
group's `)`, a proof line's `by`, a formula binding's `,` or `;` at its
depth and, for the right operand of `->` or `<->` in a span without `<->`
(power 1 stops at one, power 0 does not), the span's own.  A span is stored
once it parsed and stopped there, so a wrong prediction costs a miss and
errors do not change.  The key is the span's tokens alone: no formula goes
on at any of these stops, and the caller checks its own (`expect(")")`,
`eat(",")`, `expect("by")`), so a subformula restated as a group, a right
operand and a binding is parsed once.  A propositional `And{..}` or
`Or{..}` group is looked up whole, and its key keeps its `}`, since a hit
moves past that `}` without checking it.  The keys one parse slices hold at
most 8 tokens per token of its text (the shipped proofs take 1.5 to 1.7).
`Cursor.end` reads a stop from a string of one mark per token; in a text
whose words are mostly distinct it predicts none, and no span is looked up.

Identifiers not declared in the ambient signature parse as variables:
object variables in term position, predicate variables (of the applied
arity) in formula position.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import islice, repeat

from .errors import ParseError, SignatureError
from .instantiation import TRUTH_VALUES, Substitution, restrictor_error
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
    AND,
    ATOM,
    BOTTOM,
    IMP,
    OR,
    TRUTH,
    Atom,
    Binary,
    Equals,
    FnApp,
    FnVarApp,
    FOFormula,
    FuncVar,
    GenVar,
    PredVar,
    Quant,
    Signature,
    Term,
    Var,
    iff,
    program_builder,
)

_TOKEN = (r"[A-Za-z_][A-Za-z0-9_]*+(?:-[A-Za-z_][A-Za-z0-9_]*+)*+"
          r"|[(){}\[\],;.&|=/^+]|->|<->|:=?|!=|[0-9]++")
# the valid one-character tokens: a longer one `_TOKEN_RE` finds is a token or a comment
_ONE_CHAR = frozenset(c for c in map(chr, range(128)) if re.fullmatch(_TOKEN, c))
# a token, a comment or any other non-space character; `findall` skips spaces
_TOKEN_RE = re.compile(rf"{_TOKEN}|\#[^\n]*|\S")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# a token's mark (`Cursor.marks`); any other token's is `.`
_MARKS = {"(": "(", "{": "(", ")": ")", "}": ")", ";": ";", ",": ",", "by": "b"}
# skips marks but brackets, and groups closed within 8 levels, up to a `(` or `)`
_FLAT = r"[^()]*+"
for _ in range(8):
    _FLAT = rf"[^()]*+(?:\({_FLAT}\)[^()]*+)*+"
_FLAT = re.compile(_FLAT)


class Cursor:
    """The tokens of one text as plain strings, closed by the eof sentinel
    `""` (so no `at`/`eat`/`expect` of a non-empty text matches it); a
    token's kind is read from its first character, and `marks` holds its
    mark (see `end`).  It also holds the memo of the spans parsed so far."""

    def __init__(self, text: str):
        self.text = text
        if "#" in text:
            text = re.sub(r"#[^\n]*", "", text)
        words = text.split()  # at the same spaces as the regex's `\s`
        distinct = set(words)
        self.repeats = 2 * len(distinct) <= len(words)  # most words repeat
        if self.repeats:
            table = {w: _TOKEN_RE.findall(w) for w in distinct}
            self.tokens: list[str] = []
            deque(map(self.tokens.extend, map(table.__getitem__, words)), 0)
            marks = {w: "".join(map(_MARKS.get, t, repeat("."))) for w, t in table.items()}
            self.marks = "".join(map(marks.__getitem__, words)) + "."
            distinct = set().union(*table.values())
        else:
            self.tokens = _TOKEN_RE.findall(text)
            distinct = set(self.tokens)
        self.tokens.append("")
        self.i = 0
        bad = [t for t in distinct if len(t) == 1 and t not in _ONE_CHAR]
        if bad:
            self.i = min(map(self.tokens.index, bad))
            raise self.error(f"unexpected character {self.found()}")
        self.spans: dict[tuple[str, ...], object] = {}
        self.room = 8 * len(self.tokens)  # key tokens left (module docstring)
        self.semi = (0, -1)  # a token and the first `;` from it on (see `end`)
        self.closes: dict[int, int] = {}  # a group's first token -> its close (see `end`)

    def end(self, stop: str) -> int:
        """Where a formula from the next token on is predicted to stop, or -1:
        the bracket closing the group (`(..)` or `{..}`) the next token is in
        if `stop` is `)`, found once per group; else the first `stop` at its
        depth before the next `;`, or that `;`.  Always -1 in a text whose
        words mostly do not repeat, so no span of it is memoized."""
        if not self.repeats:
            return -1
        marks, i = self.marks, self.i
        if stop == ")":
            if (got := self.closes.get(i)) is not None:
                return got
            opened = [i]  # the groups stepped into, by their first token
            while True:
                i = _FLAT.match(marks, i).end()
                if i == len(marks):  # unbalanced: none of them closes
                    self.closes.update(dict.fromkeys(opened, -1))
                    return -1
                if marks[i] == "(":
                    opened.append(i + 1)
                else:
                    self.closes[opened.pop()] = i
                    if not opened:
                        return i
                i += 1
        if not self.semi[0] <= i <= self.semi[1]:  # found once per statement
            self.semi = (i, marks.find(";", i))
        end, j = self.semi[1], i - 1
        if end < 0:
            return -1
        while (j := marks.find(_MARKS[stop], j + 1, end)) >= 0:
            if marks.count("(", i, j) == marks.count(")", i, j):
                return j
        return end

    def recall(self, start: int, end: int) -> tuple[tuple[str, ...], object]:
        """The key of the tokens from `start` up to, not including, `end`,
        and its memo node; no key if `end` is -1 or the room is used up.  A
        span's key leaves out the token that stops it, which its caller
        checks; an `And{..}` or `Or{..}` group's key keeps its `}`, which a
        hit skips unchecked."""
        if end < 0 or self.room <= 0:
            return (), None
        key = tuple(self.tokens[start:end])
        self.room -= len(key)
        return key, self.spans.get(key)

    def peek(self) -> str:
        return self.tokens[self.i]

    def next(self) -> str:
        text = self.tokens[self.i]
        if text:
            self.i += 1
        return text

    def at(self, text: str) -> bool:
        return self.tokens[self.i] == text

    def eat(self, text: str) -> bool:
        if self.tokens[self.i] == text:
            self.i += 1
            return True
        return False

    def found(self) -> str:
        """The next token as an error message names it."""
        text = self.tokens[self.i]
        return repr(text) if text else "end of input"

    def expect(self, text: str) -> None:
        if self.tokens[self.i] != text:
            raise self.error(f"expected {text!r}, found {self.found()}")
        self.i += 1

    def expect_ident(self, what: str = "identifier") -> str:
        text = self.tokens[self.i]
        if text[:1] not in _IDENT_START:
            raise self.error(f"expected {what}, found {self.found()}")
        self.i += 1
        return text

    def expect_num(self) -> int:
        text = self.tokens[self.i]
        if not text.isdecimal():
            raise self.error(f"expected number, found {self.found()}")
        self.i += 1
        return int(text)

    def expect_eof(self) -> None:
        if self.tokens[self.i]:
            raise self.error(f"unexpected trailing input {self.found()}")

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at token `at`, by default the next one (`i - 1` is
        the token just read), whose offset is found by scanning the text
        again up to it."""
        found = (m for m in _TOKEN_RE.finditer(self.text) if m.group()[0] != "#")
        m = next(islice(found, self.i if at is None else at, None), None)
        pos = m.start() if m else len(self.text)
        line = self.text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))


# ---------------------------------------------------------------------------
# signature blocks

_SIG_KEYWORDS = {"const", "fn", "pred", "restrictor"}


def parse_signature_block(cur: Cursor) -> Signature:
    """`const a, b.  fn s/1.  pred P/1, Q/0.  restrictor R/1.`"""
    functions: dict[str, int] = {}
    predicates: dict[str, int] = {}
    restrictors: set[str] = set()

    def declare(table: dict[str, int], name: str, arity: int, at: int) -> None:
        if name in functions or name in predicates:
            if table.get(name) != arity:
                raise cur.error(f"conflicting declaration of {name}", at)
        table[name] = arity

    while cur.peek() in _SIG_KEYWORDS:
        kw = cur.next()
        while True:
            at = cur.i
            name = cur.expect_ident("name")
            if kw == "const":
                declare(functions, name, 0, at)
            else:
                if cur.eat("/"):
                    arity = cur.expect_num()
                elif kw == "restrictor" and predicates.get(name) == 1:
                    arity = 1
                else:
                    raise cur.error(f"expected /arity after {name}")
                if kw == "fn":
                    declare(functions, name, arity, at)
                else:
                    declare(predicates, name, arity, at)
                    if kw == "restrictor":
                        restrictors.add(name)
            if not cur.eat(","):
                break
        cur.expect(".")
    try:
        return Signature.make(functions, predicates, restrictors)
    except SignatureError as e:
        raise cur.error(str(e)) from None


# ---------------------------------------------------------------------------
# binary connectives, shared by both formula languages

# connective -> (binding power, right-associative)
_BINARY = {"<->": (0, False), "->": (1, True), "|": (2, False), "&": (3, False)}


def _parse_binary(cur: Cursor, ctx, lang, min_power: int = 0, end: int = -1):
    """A formula whose top-level connectives bind at least `min_power`, by
    precedence climbing.  `lang` is a pair (prefix parser, constructor
    `build(ctx, connective, left, right)`), both passed `ctx`: a signature
    or a propositional program's `emit`.  The prefix parser is called
    directly, so a nesting level costs one frame here and one there.  `end`
    is where a span is predicted to stop (module docstring)."""
    key, f = cur.recall(cur.i, end) if end >= 0 else ((), None)
    if f is not None:
        cur.i = end
        return f
    inner = end if key and "<->" not in key else -1  # the `end` of the right operands
    prefix, build = lang
    f = prefix(cur, ctx)
    while True:
        op = cur.peek()
        spec = _BINARY.get(op)
        if spec is None or spec[0] < min_power:
            if key and cur.i == end:
                cur.spans[key] = f
            return f
        cur.next()
        power, right = spec
        f = build(ctx, op, f, _parse_binary(cur, ctx, lang, power if right else power + 1,
                                            inner if power < 2 else -1))


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


def _make_term(
    cur: Cursor, sig: Signature, name: str, args: tuple[Term, ...] | None, allow_vars: bool
) -> Term:
    """The term `name` (`args` None) or `name(args)`; an undeclared head is
    a variable, or an error unless `allow_vars`."""
    arity = sig.function_arity(name)
    if args is None:
        if arity == 0:
            return FnApp(name, ())
        if arity is not None:
            raise cur.error(f"function constant {name} needs {arity} arguments")
    elif arity is not None:
        if arity != len(args):
            raise cur.error(f"{name} expects {arity} arguments, got {len(args)}")
        return FnApp(name, args)
    if sig.predicate_arity(name) is not None:
        raise cur.error(f"predicate {name} used in term position")
    if not allow_vars:
        what = "constant" if args is None else "function constant"
        raise cur.error(f"unknown {what} {name}")
    if args is None:
        return Var(name)
    return FnVarApp(FuncVar(name, len(args)), args)


def _parse_term(cur: Cursor, sig: Signature, allow_vars: bool = True) -> Term:
    name = cur.expect_ident("term")
    args = _parse_args(cur, sig, allow_vars) if cur.at("(") else None
    return _make_term(cur, sig, name, args, allow_vars)


def _expect_variable(cur: Cursor, sig: Signature) -> str:
    name = cur.expect_ident("variable")
    if sig.function_arity(name) is not None or sig.predicate_arity(name) is not None:
        raise cur.error(f"{name} is a declared constant, not a variable", cur.i - 1)
    return name


def _parse_binder(cur: Cursor, sig: Signature, second_order: bool = False):
    """A quantifier's binder: `x`, `p/n`, `f^n` or `(x:R, ...)`.  With
    `second_order` only `p/n` or `f^n`, whose name is not checked against
    the signature."""
    if not second_order and cur.eat("("):
        items = []
        while True:
            vname = _expect_variable(cur, sig)
            cur.expect(":")
            rname = cur.expect_ident("restrictor")
            if not sig.is_restrictor(rname):
                raise cur.error(f"{rname} is not a declared restrictor", cur.i - 1)
            items.append((Var(vname), rname))
            if not cur.eat(","):
                break
        cur.expect(")")
        try:
            return GenVar(tuple(items))
        except ValueError as e:
            raise cur.error(str(e)) from None
    if second_order:
        name = cur.expect_ident("second-order variable")
    else:
        name = _expect_variable(cur, sig)
    if cur.eat("/"):
        arity = cur.expect_num()
        return PredVar(name, arity)
    if cur.eat("^"):
        arity = cur.expect_num()
        return FuncVar(name, arity)
    if second_order:
        raise cur.error("expected p/arity or f^arity")
    return Var(name)


def _parse_unary(cur: Cursor, sig: Signature) -> FOFormula:
    text = cur.peek()
    if text == "(":
        cur.next()
        f = _parse_binary(cur, sig, _FO, 0, cur.end(")"))
        cur.expect(")")
        return f
    if text == "not":
        cur.next()
        return Binary("->", _parse_unary(cur, sig), BOTTOM)
    if text in ("forall", "exists"):
        cur.next()
        binder = _parse_binder(cur, sig)
        body = _parse_unary(cur, sig)
        return Quant(text, binder, body)
    if text == "bot":
        cur.next()
        return BOTTOM
    if text == "top":
        cur.next()
        return TRUTH
    if text[:1] not in _IDENT_START:
        raise cur.error(f"expected a formula, found {cur.found()}")
    cur.next()
    args = _parse_args(cur, sig, allow_vars=True) if cur.at("(") else None
    if cur.at("=") or cur.at("!="):
        negated = cur.next() == "!="
        left = _make_term(cur, sig, text, args, allow_vars=True)
        right = _parse_term(cur, sig)
        eqf = Equals(left, right)
        return Binary("->", eqf, BOTTOM) if negated else eqf
    args = args or ()
    arity = sig.predicate_arity(text)
    if arity is not None:
        if arity != len(args):
            raise cur.error(f"{text} expects {arity} arguments, got {len(args)}")
        return Atom(text, args)
    if sig.function_arity(text) is not None:
        raise cur.error(f"function constant {text} used as a formula")
    return Atom(PredVar(text, len(args)), args)


def _fo_binary(sig: Signature, op: str, left: FOFormula, right: FOFormula) -> FOFormula:
    """`left op right`; `<->` is the conjunction of the two implications."""
    return iff(left, right) if op == "<->" else Binary(op, left, right)


_FO = (_parse_unary, _fo_binary)


def parse_formula_text(text: str, sig: Signature) -> FOFormula:
    cur = Cursor(text)
    f = _parse_binary(cur, sig, _FO)
    cur.expect_eof()
    return f


def parse_formula_file(text: str) -> tuple[Signature, FOFormula]:
    """A signature block followed by one formula, optionally `;`-terminated."""
    cur = Cursor(text)
    sig = parse_signature_block(cur)
    f = _parse_binary(cur, sig, _FO)
    cur.eat(";")
    cur.expect_eof()
    return sig, f


# ---------------------------------------------------------------------------
# propositional formulas, parsed into program entries (module docstring)

def _parse_prop_unary(cur: Cursor, emit) -> int:
    text = cur.peek()
    if text == "(":
        cur.next()
        f = _parse_binary(cur, emit, _PROP, 0, cur.end(")"))
        cur.expect(")")
        return f
    if text == "not":
        cur.next()
        return emit(IMP, (_parse_prop_unary(cur, emit), emit(OR, ())))
    if text in ("top", "bot"):
        cur.next()
        return emit(AND if text == "top" else OR, ())
    if text in ("And", "Or"):
        cur.next()
        cur.expect("{")
        end = cur.end(")")
        key, f = cur.recall(cur.i - 2, end + 1 if end >= 0 else -1)
        if f is not None:
            cur.i = end + 1
            return f
        items = set()
        if not cur.at("}"):
            while True:
                items.add(_parse_binary(cur, emit, _PROP))
                if not cur.eat(";"):
                    break
        cur.expect("}")
        f = cur.spans[key] = emit(AND if text == "And" else OR, tuple(sorted(items)))
        return f  # stored as the span closed at `end`
    if text[:1] not in _IDENT_START:
        raise cur.error(f"expected a propositional formula, found {cur.found()}")
    cur.next()
    return emit(ATOM, text)


def _prop_binary(emit, op: str, left: int, right: int) -> int:
    """`left op right`; `<->` is the conjunction of the two implications."""
    if op == "->":
        return emit(IMP, (left, right))
    if op == "<->":
        op, left, right = "&", emit(IMP, (left, right)), emit(IMP, (right, left))
    pair = (left, right) if left < right else (right, left) if right < left else (left,)
    return emit(AND if op == "&" else OR, pair)


_PROP = (_parse_prop_unary, _prop_binary)


def _prop_program(text: str, semicolon: bool) -> list[tuple[int, object]]:
    """The program of the formula `text` holds, root last; `semicolon` allows a `;` after it."""
    prog, emit = program_builder()
    cur = Cursor(text)
    _parse_binary(cur, emit, _PROP)
    if semicolon:
        cur.eat(";")
    cur.expect_eof()
    return prog


def parse_prop_text(text: str) -> list[tuple[int, object]]:
    """The program (see `syntax.program_builder`) of one formula."""
    return _prop_program(text, False)


def parse_prop_file(text: str) -> list[tuple[int, object]]:
    """The program of a `.prop` file: one formula, optionally `;`-terminated."""
    return _prop_program(text, True)


# ---------------------------------------------------------------------------
# substitution files

def parse_subst_file(text: str) -> Substitution:
    """Signature block, then `P(a,b) := <prop>;` entries and
    `default P := <prop>;` lines.  The images are parsed into one program,
    the substitution's, so equal images are one entry.  Each entry is
    checked where it is read, a refused one reported at its start."""
    cur = Cursor(text)
    sig = parse_signature_block(cur)
    prog, emit = program_builder()
    entries: dict[Atom, int] = {}  # an image's position in `prog`
    defaults: dict[str, int] = {}
    while cur.peek():
        start = cur.i
        default = cur.eat("default")
        pred = cur.expect_ident("predicate")
        arity = sig.predicate_arity(pred)
        if arity is None:
            raise cur.error(f"unknown predicate {pred}", cur.i - 1)
        args: tuple[Term, ...] = ()
        if not default:
            if cur.at("("):
                args = _parse_args(cur, sig, allow_vars=False)
            if len(args) != arity:
                raise cur.error(f"{pred} expects {arity} arguments, got {len(args)}")
        cur.expect(":=")
        image = _parse_binary(cur, emit, _PROP)
        cur.expect(";")
        key, table = (pred, defaults) if default else (Atom(pred, args), entries)
        if key in table:
            raise cur.error(f"duplicate {'default' if default else 'entry'} for {pred}")
        if sig.is_restrictor(pred) and prog[image] not in TRUTH_VALUES:
            raise cur.error(restrictor_error(key), start)
        table[key] = image
    return Substitution(sig, prog, entries, defaults)


# ---------------------------------------------------------------------------
# proof files

_LEVELS = {lvl.value: lvl for lvl in TheoryLevel}


def _parse_level(cur: Cursor) -> TheoryLevel:
    cur.expect("level")
    name = cur.expect_ident("theory level")
    if name == "HHT2" and cur.eat("+"):
        suffix = cur.expect_ident("DCA")
        if suffix != "DCA":
            raise cur.error(f"unknown level HHT2+{suffix}", cur.i - 1)
        name = "HHT2+DCA"
    level = _LEVELS.get(name)
    if level is None:
        raise cur.error(f"unknown theory level {name}", cur.i - 1)
    cur.expect(";")
    return level


def _parse_binding_value(cur: Cursor, sig: Signature, kind: str):
    if kind == "formula":
        return _parse_binary(cur, sig, _FO, 0, cur.end(","))
    if kind == "term":
        return _parse_term(cur, sig)
    if kind == "var":
        return Var(_expect_variable(cur, sig))
    if kind == "fn":
        name = cur.expect_ident("function constant")
        if sig.function_arity(name) is None:
            raise cur.error(f"unknown function constant {name}", cur.i - 1)
        return name
    if kind in ("sovar", "predvar", "funcvar"):
        v = _parse_binder(cur, sig, second_order=True)
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
                    items.append(Var(_expect_variable(cur, sig)))
                if not cur.eat(","):
                    break
        cur.expect("]")
        return tuple(items)
    raise cur.error(f"unhandled binding kind {kind}")


_GEN_RULES = {kw: key for key, kw in GEN_KEYWORDS.items()}


def _parse_justification(cur: Cursor, sig: Signature):
    cur.expect("by")
    kw = cur.expect_ident("justification")
    if kw == "axiom":
        sid = cur.expect_ident("schema id")
        schema = SCHEMAS.get(sid)
        if schema is None:
            raise cur.error(f"unknown schema id {sid}", cur.i - 1)
        binding: dict[str, object] = {}
        kinds = dict(schema.keys)
        if cur.eat("with"):
            while True:
                if cur.peek() in binding:
                    raise cur.error(f"duplicate binding for {cur.peek()}")
                key = cur.expect_ident("binding key")
                if key not in kinds:
                    raise cur.error(f"schema {sid} has no metavariable {key} "
                                    f"(expected one of {', '.join(kinds)})", cur.i - 1)
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
    raise cur.error(f"unknown justification {kw!r}", cur.i - 1)


def parse_proof_file(text: str) -> Proof:
    """Signature block, `level <LEVEL>;`, then numbered lines
    `n: <formula> by <justification>;` with n counting from 1."""
    cur = Cursor(text)
    sig = parse_signature_block(cur)
    level = _parse_level(cur)
    lines: list[ProofLine] = []
    while cur.peek():
        n = cur.expect_num()
        if n != len(lines) + 1:
            raise cur.error(f"expected line number {len(lines) + 1}, found {n}", cur.i - 1)
        cur.expect(":")
        f = _parse_binary(cur, sig, _FO, 0, cur.end("by"))
        just = _parse_justification(cur, sig)
        cur.expect(";")
        lines.append(ProofLine(f, just))
    if not lines:
        raise cur.error("proof file has no lines")
    return Proof(sig, level, tuple(lines))
