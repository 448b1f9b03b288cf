"""The text of a proof line's justification, as a proof file writes it;
it re-parses to a structurally identical justification."""

from __future__ import annotations

from .kernel import SCHEMAS, ByAxiom, ByGen, ByMP
from .syntax import FuncVar, PredVar, Term, Var, binder_to_text, formula_to_text, term_to_text


def _render_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    if isinstance(value, (Var, PredVar, FuncVar)):
        return binder_to_text(value)
    return term_to_text(value) if isinstance(value, Term) else formula_to_text(value)


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
