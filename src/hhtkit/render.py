"""Serializers for signature blocks, substitution files and proof files.
Output re-parses to structurally identical objects."""

from __future__ import annotations

from .instantiation import Substitution
from .kernel import SCHEMAS, ByAxiom, ByGen, ByMP, Proof
from .syntax import (
    FuncVar,
    PredVar,
    Signature,
    Var,
    formula_to_text,
    prop_to_text,
    term_to_text,
)


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


def _render_value(value) -> str:
    if isinstance(value, Var):
        return value.name
    if isinstance(value, PredVar):
        return f"{value.name}/{value.arity}"
    if isinstance(value, FuncVar):
        return f"{value.name}^{value.arity}"
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    # formula or term node
    try:
        return formula_to_text(value)
    except TypeError:
        return term_to_text(value)


def _render_binding(just: ByAxiom) -> str:
    if not just.binding:
        return ""
    keys = [k for k, _ in SCHEMAS[just.schema_id].keys]
    items = sorted(just.binding, key=lambda kv: keys.index(kv[0]))
    return " with " + ", ".join(f"{k} := {_render_value(v)}" for k, v in items)


def render_justification(just) -> str:
    if isinstance(just, ByAxiom):
        return f"axiom {just.schema_id}{_render_binding(just)}"
    if isinstance(just, ByMP):
        return f"mp {just.i} {just.j}"
    if isinstance(just, ByGen):
        return f"{just.keyword} {just.i} {_render_value(just.v)}"
    raise TypeError(f"unknown justification {just!r}")


def render_proof(proof: Proof) -> str:
    out = [render_signature(proof.signature), f"level {proof.level.value};"]
    for n, line in enumerate(proof.lines, 1):
        jtext = render_justification(line.justification)
        out.append(f"{n}: {formula_to_text(line.formula)} by {jtext};")
    return "\n".join(out) + "\n"


def render_subst(subst: Substitution) -> str:
    out = [render_signature(subst.signature)]
    for atom in sorted(subst.entries, key=str):
        out.append(f"{atom} := {prop_to_text(subst.entries[atom])};")
    for pred in sorted(subst.defaults):
        out.append(f"default {pred} := {prop_to_text(subst.defaults[pred])};")
    return "\n".join(out) + "\n"
