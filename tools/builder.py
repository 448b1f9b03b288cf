"""Construction and serialization of Hilbert-style proofs for
`tools/mkcorpus.py`.

`ProofBuilder` tracks derivations with open hypotheses and compiles
`imp_i` (discharge) into axiom-level steps, so proofs can be written in a
natural-deduction style and then emitted as plain checkable lines.  Nothing
here is trusted: `build()` returns an ordinary Proof that the kernel
verifies from scratch.

Generalization steps demand that the generalized variable is free neither
in the implication's antecedent nor in any open hypothesis, which keeps
later discharges sound.

`render_proof`, `render_subst` and `render_signature` write proofs,
substitutions and signature blocks as text that re-parses to structurally
identical objects.  `make_subst` builds a substitution from formula objects,
the one place outside the parser that makes a substitution's program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from hhtkit.instantiation import Substitution
from hhtkit.kernel import (
    ByAxiom,
    ByGen,
    ByMP,
    Proof,
    ProofLine,
    TheoryLevel,
    build_axiom_instance,
)
from hhtkit.render import render_justification
from hhtkit.syntax import (
    BOTTOM,
    Binary,
    FOFormula,
    FuncVar,
    PredVar,
    Quant,
    Signature,
    Term,
    Var,
    conj,
    eliminate_restrictors,
    formula_to_text,
    free_variables,
    graft,
    impl,
    program_builder,
    prop_dag,
    prop_to_text,
)


class BuildError(Exception):
    pass


@dataclass(frozen=True)
class Derivation:
    """Handle to a node of the derivation graph."""

    node: int
    formula: FOFormula
    hyps: frozenset


class ProofBuilder:
    def __init__(self, signature: Signature, level: TheoryLevel = TheoryLevel.HHT):
        self.signature = signature
        self.level = level
        self._nodes: list[tuple] = []  # (rule tag, payload..., formula, hyps)
        self._discharge_memo: dict[tuple[int, FOFormula], Derivation] = {}

    # -- primitive steps ----------------------------------------------------

    def _add(self, rule: tuple, formula: FOFormula, hyps: frozenset) -> Derivation:
        self._nodes.append((rule, formula, hyps))
        return Derivation(len(self._nodes) - 1, formula, hyps)

    def hyp(self, f: FOFormula) -> Derivation:
        return self._add(("hyp",), f, frozenset((f,)))

    def ax(self, schema_id: str, **binding) -> Derivation:
        just = ByAxiom.of(schema_id, **binding)
        f = build_axiom_instance(self.signature, schema_id, just.as_dict())
        return self._add(("axiom", just), f, frozenset())

    def mp(self, antecedent: Derivation, implication: Derivation) -> Derivation:
        f = implication.formula
        if not (isinstance(f, Binary) and f.op == "->" and f.left == antecedent.formula):
            raise BuildError(
                f"mp: {formula_to_text(f)} is not ({formula_to_text(antecedent.formula)} -> _)"
            )
        return self._add(
            ("mp", antecedent, implication), f.right, antecedent.hyps | implication.hyps
        )

    def gen(self, d: Derivation, v: Var | PredVar | FuncVar, kind: str) -> Derivation:
        """Generalize over v: G -> F gives G -> forall v F (kind "forall"),
        F -> G gives exists v F -> G (kind "exists")."""
        f = d.formula
        if not (isinstance(f, Binary) and f.op == "->"):
            raise BuildError(f"gen {kind}: premise must be an implication")
        fixed = f.left if kind == "forall" else f.right
        for h in d.hyps | {fixed}:
            if v in free_variables(h):
                raise BuildError(f"gen {kind}: {v.name} is free in {formula_to_text(h)}")
        if kind == "forall":
            out = impl(f.left, Quant(kind, v, f.right))
        else:
            out = impl(Quant(kind, v, f.left), f.right)
        return self._add(("gen", d, v, kind), out, d.hyps)

    # -- the deduction theorem ----------------------------------------------

    def imp_i(self, a: FOFormula, d: Derivation) -> Derivation:
        """Discharge hypothesis `a`, producing a -> (formula of d)."""
        if a not in d.hyps:
            k = self.ax("k", F=d.formula, G=a)
            return self.mp(d, k)
        return self._discharge(a, d)

    def _discharge(self, a: FOFormula, d: Derivation) -> Derivation:
        memo_key = (d.node, a)
        got = self._discharge_memo.get(memo_key)
        if got is not None:
            return got
        rule, formula, _hyps = self._nodes[d.node]
        tag = rule[0]
        if tag == "hyp" and formula == a:
            out = self._identity(a)
        elif tag in ("hyp", "axiom"):
            out = self.mp(d, self.ax("k", F=formula, G=a))
        elif tag == "mp":
            ant, imp_d = rule[1], rule[2]
            da = self.imp_i(a, ant)
            db = self.imp_i(a, imp_d)
            s = self.ax("s", F=a, G=ant.formula, H=formula)
            out = self.mp(da, self.mp(db, s))
        elif tag == "gen":
            child, v, kind = rule[1:]
            dc = self.imp_i(a, child)
            if kind == "forall":  # dc: a -> (g -> body)
                g, body = child.formula.left, child.formula.right
                imported = self.mp(dc, self._lemma_import(a, g, body))
                gen = self.gen(imported, v, kind)
                out = self.mp(gen, self._lemma_export(a, g, Quant(kind, v, body)))
            else:  # dc: a -> (body -> g)
                body, g = child.formula.left, child.formula.right
                swapped = self.mp(dc, self._lemma_swap(a, body, g))
                gen = self.gen(swapped, v, kind)
                out = self.mp(gen, self._lemma_swap(Quant(kind, v, body), a, g))
        else:
            raise BuildError(f"cannot discharge through rule {tag}")
        assert out.formula == impl(a, formula)
        assert a not in out.hyps
        self._discharge_memo[memo_key] = out
        return out

    def _identity(self, a: FOFormula) -> Derivation:
        k1 = self.ax("k", F=a, G=impl(a, a))
        s1 = self.ax("s", F=a, G=impl(a, a), H=a)
        step = self.mp(k1, s1)
        k2 = self.ax("k", F=a, G=a)
        return self.mp(k2, step)

    def _lemma_import(self, a, g, f) -> Derivation:
        """(a -> (g -> f)) -> ((a & g) -> f)"""
        h1 = self.hyp(impl(a, impl(g, f)))
        h2 = self.hyp(conj(a, g))
        da = self.and_e1(h2)
        dg = self.and_e2(h2)
        df = self.mp(dg, self.mp(da, h1))
        return self.imp_i(h1.formula, self.imp_i(h2.formula, df))

    def _lemma_export(self, a, g, f) -> Derivation:
        """((a & g) -> f) -> (a -> (g -> f))"""
        h1 = self.hyp(impl(conj(a, g), f))
        ha = self.hyp(a)
        hg = self.hyp(g)
        df = self.mp(self.and_i(ha, hg), h1)
        return self.imp_i(h1.formula, self.imp_i(a, self.imp_i(g, df)))

    def _lemma_swap(self, a, f, g) -> Derivation:
        """(a -> (f -> g)) -> (f -> (a -> g))"""
        h1 = self.hyp(impl(a, impl(f, g)))
        hf = self.hyp(f)
        ha = self.hyp(a)
        dg = self.mp(hf, self.mp(ha, h1))
        return self.imp_i(h1.formula, self.imp_i(f, self.imp_i(a, dg)))

    # -- derived connective steps -------------------------------------------

    def and_i(self, d1: Derivation, d2: Derivation) -> Derivation:
        step = self.ax("and-intro", F=d1.formula, G=d2.formula)
        return self.mp(d2, self.mp(d1, step))

    def _conj_parts(self, d: Derivation) -> tuple[FOFormula, FOFormula]:
        f = d.formula
        if not (isinstance(f, Binary) and f.op == "&"):
            raise BuildError(f"not a conjunction: {formula_to_text(f)}")
        return f.left, f.right

    def and_e1(self, d: Derivation) -> Derivation:
        l, r = self._conj_parts(d)
        return self.mp(d, self.ax("and-elim-left", F=l, G=r))

    def and_e2(self, d: Derivation) -> Derivation:
        l, r = self._conj_parts(d)
        return self.mp(d, self.ax("and-elim-right", F=l, G=r))

    def or_i1(self, d: Derivation, right: FOFormula) -> Derivation:
        return self.mp(d, self.ax("or-intro-left", F=d.formula, G=right))

    def or_i2(self, d: Derivation, left: FOFormula) -> Derivation:
        return self.mp(d, self.ax("or-intro-right", F=left, G=d.formula))

    def or_e(self, d_disj: Derivation, d_left: Derivation, d_right: Derivation) -> Derivation:
        f = d_disj.formula
        if not (isinstance(f, Binary) and f.op == "|"):
            raise BuildError(f"not a disjunction: {formula_to_text(f)}")
        target = d_left.formula
        if not (isinstance(target, Binary) and target.op == "->" and target.left == f.left):
            raise BuildError("left case must be (left disjunct -> goal)")
        h = target.right
        step = self.ax("or-elim", F=f.left, G=f.right, H=h)
        return self.mp(d_disj, self.mp(d_right, self.mp(d_left, step)))

    def efq(self, d_bot: Derivation, f: FOFormula) -> Derivation:
        if d_bot.formula != BOTTOM:
            raise BuildError("efq needs a derivation of bot")
        return self.mp(d_bot, self.ax("efq", F=f))

    def not_i(self, a: FOFormula, d_bot: Derivation) -> Derivation:
        if d_bot.formula != BOTTOM:
            raise BuildError("not_i needs a derivation of bot")
        return self.imp_i(a, d_bot)

    def iff_i(self, d1: Derivation, d2: Derivation) -> Derivation:
        return self.and_i(d1, d2)

    # -- derived quantifier steps --------------------------------------------

    def forall_e(self, d: Derivation, t: Term) -> Derivation:
        f = d.formula
        if not (isinstance(f, Quant) and f.kind == "forall" and isinstance(f.binder, Var)):
            raise BuildError(f"not a universal formula: {formula_to_text(f)}")
        return self.mp(d, self.ax("forall-elim", x=f.binder, F=f.body, t=t))

    def forall_i(self, x: Var | PredVar | FuncVar, d: Derivation) -> Derivation:
        top = self.ax("efq", F=BOTTOM)  # bot -> bot, a closed premise to hang on
        lifted = self.mp(d, self.ax("k", F=d.formula, G=top.formula))
        gen = self.gen(lifted, x, "forall")
        return self.mp(top, gen)

    def exists_i(self, d: Derivation, x: Var, body: FOFormula, t: Term) -> Derivation:
        return self.mp(d, self.ax("exists-intro", x=x, F=body, t=t))

    def exists_e(self, d_ex: Derivation, x: Var, d_body: Derivation) -> Derivation:
        """From exists x F and a derivation of G using hypothesis F, get G.
        Requires x free neither in G nor in the other open hypotheses."""
        f = d_ex.formula
        if not (isinstance(f, Quant) and f.kind == "exists" and f.binder == x):
            raise BuildError(f"not an existential in {x.name}: {formula_to_text(f)}")
        step = self.imp_i(f.body, d_body)
        gen = self.gen(step, x, "exists")
        return self.mp(d_ex, gen)

    # a predicate or function binder makes forall_i the second-order rule
    so_forall_i = forall_i

    # -- emission -------------------------------------------------------------

    def build(self, d: Derivation, presentation: FOFormula | None = None) -> Proof:
        """Linearize the derivation into a Proof.  `presentation` replaces
        the final line's formula; it must eliminate to the derived one."""
        if d.hyps:
            open_hyps = ", ".join(sorted(formula_to_text(h) for h in d.hyps))
            raise BuildError(f"open hypotheses remain: {open_hyps}")
        if presentation is not None and eliminate_restrictors(presentation) != d.formula:
            raise BuildError("presentation formula does not eliminate to the conclusion")

        lines: list[ProofLine] = []
        by_formula: dict[FOFormula, int] = {}

        def emit(node: int) -> int:
            rule, formula, _hyps = self._nodes[node]
            got = by_formula.get(formula)
            if got is not None:
                return got
            tag = rule[0]
            if tag == "axiom":
                just = rule[1]
            elif tag == "mp":
                just = ByMP(emit(rule[1].node), emit(rule[2].node))
            elif tag == "gen":
                just = ByGen(emit(rule[1].node), rule[2], rule[3])
            else:
                raise BuildError("hypothesis leaked into a closed derivation")
            lines.append(ProofLine(formula, just))
            by_formula[formula] = len(lines)
            return len(lines)

        root = emit(d.node)
        if root != len(lines):
            # conclusion deduplicated against an earlier line; restate it
            lines.append(lines[root - 1])
        if presentation is not None:
            last = lines[-1]
            lines[-1] = ProofLine(presentation, last.justification)
        return Proof(self.signature, self.level, tuple(lines))


def render_signature(sig: Signature) -> str:
    parts = []
    consts = [n for n, a in sig.functions if a == 0]
    if consts:
        parts.append("const " + ", ".join(consts) + ".")
    fns = [f"{n}/{a}" for n, a in sig.functions if a > 0]
    if fns:
        parts.append("fn " + ", ".join(fns) + ".")
    preds = [f"{n}/{a}" for n, a in sig.predicates if n not in sig.restrictors]
    if preds:
        parts.append("pred " + ", ".join(preds) + ".")
    rs = [f"{n}/1" for n in sorted(sig.restrictors)]
    if rs:
        parts.append("restrictor " + ", ".join(rs) + ".")
    return "  ".join(parts)


def render_proof(proof: Proof) -> str:
    out = [render_signature(proof.signature), f"level {proof.level.value};"]
    for n, line in enumerate(proof.lines, 1):
        jtext = render_justification(line.justification)
        out.append(f"{n}: {formula_to_text(line.formula)} by {jtext};")
    return "\n".join(out) + "\n"


def make_subst(sig: Signature, entries: Mapping = (), defaults: Mapping = ()) -> Substitution:
    """The substitution mapping the atoms of `entries` and the predicates of
    `defaults` to the formula objects they give, each image's `prop_dag`
    grafted into one program, so an entry images share is one entry."""
    prog, emit = program_builder()

    def place(f) -> int:
        dag = prop_dag(f)
        return graft(dag, len(dag) - 1, emit, [None] * len(dag))

    return Substitution(sig, prog, {a: place(f) for a, f in dict(entries).items()},
                        {p: place(f) for p, f in dict(defaults).items()})


def render_subst(subst: Substitution) -> str:
    """The text of `subst`; an image at position k is printed from the
    program's first k + 1 entries, a program rooted at k."""
    def image(k: int) -> str:
        return prop_to_text(None, subst.program[: k + 1])

    out = [render_signature(subst.signature)]
    for atom in sorted(subst.entries, key=str):
        out.append(f"{atom} := {image(subst.entries[atom])};")
    for pred in sorted(subst.defaults):
        out.append(f"default {pred} := {image(subst.defaults[pred])};")
    return "\n".join(out) + "\n"
