"""Registry of the shipped corpus: worked proofs with substitutions,
propositional validity cases, and negative controls.

Files live under the package's data directory; `load_text` fetches them by
name so tests and the CLI corpus runner can share one source of truth.
"""

from __future__ import annotations

from importlib import resources

from .syntax import record


@record
class CorpusCase:
    name: str
    proof: str | None = None
    subst: str | None = None
    prop: str | None = None
    depth: int | None = None  # None = exact instantiation
    expect_proof: str = "accepted"  # or "rejected"
    expect_instance: str | None = None  # "valid" | "countermodel" | None
    notes: str = ""


def cases() -> tuple[CorpusCase, ...]:
    return (
        CorpusCase(
            "example1a",
            proof="example1a.proof",
            subst="example1a.subst",
            expect_instance="valid",
            notes="conjunction of negations against negated disjunction",
        ),
        CorpusCase(
            "example1b",
            proof="example1b.proof",
            subst="example1a.subst",
            expect_instance="valid",
            notes="disjunction of negations against negated conjunction",
        ),
        CorpusCase(
            "subsum4",
            proof="subsum4.proof",
            subst="subsum4.subst",
            expect_instance="valid",
            notes="distributing a conjunct over a disjunction family",
        ),
        CorpusCase(
            "example2",
            proof="example2.proof",
            subst="subsum4.subst",
            expect_instance="valid",
            notes="distributing a disjunct over a conjunction family",
        ),
        CorpusCase(
            "example3",
            proof="example3.proof",
            subst="subsum4.subst",
            expect_instance="valid",
            notes="implication from a disjunction family",
        ),
        CorpusCase(
            "example4",
            proof="example4.proof",
            subst="example1a.subst",
            expect_instance="valid",
            notes="quantifier-shift axiom instance",
        ),
        CorpusCase(
            "example5",
            proof="example5.proof",
            subst="example5.subst",
            expect_instance="valid",
            notes="restricted conjunction over a carved index set",
        ),
        CorpusCase(
            "example6",
            proof="example6.proof",
            subst="example6.subst",
            expect_instance="valid",
            notes="product-indexed disjunction via a pair of restrictors",
        ),
        CorpusCase(
            "example5_alt",
            proof="example5_alt.proof",
            subst="example5_alt.subst",
            depth=2,
            expect_instance="valid",
            notes="restrictor-free alternate encoding; bounded mode only, "
            "never certifying",
        ),
        CorpusCase(
            "example7",
            proof="example7.proof",
            subst="example7.subst",
            depth=3,
            expect_instance="countermodel",
            notes="induction equivalence; truncating the universe breaks the "
            "instance, demonstrating that bounded mode does not certify",
        ),
        CorpusCase(
            "bad_rewritten",
            proof="bad_rewritten.proof",
            subst="bad_rewritten.subst",
            expect_instance="valid",
            notes="mixed-shape conjunction split into two homogeneous "
            "conjunctions, one per quantifier",
        ),
        CorpusCase(
            "classical",
            proof="classical.proof",
            expect_proof="rejected",
            notes="double-negation elimination claimed as an axiom",
        ),
        CorpusCase("lem", prop="lem.prop", expect_instance="countermodel"),
        CorpusCase("dne", prop="dne.prop", expect_instance="countermodel"),
        CorpusCase("hosoi", prop="hosoi.prop", expect_instance="valid"),
        CorpusCase("sqht_inst", prop="sqht_inst.prop", expect_instance="valid"),
        CorpusCase("top_iff_not_bot", prop="top_iff_not_bot.prop", expect_instance="valid"),
        CorpusCase(
            "bad_direct",
            prop="bad_direct.prop",
            expect_instance="valid",
            notes="valid but mixes two conjunct shapes, so it is not an "
            "instance of any provable conclusion without rewriting",
        ),
    )


def load_text(filename: str) -> str:
    return (resources.files("hhtkit") / "data" / filename).read_text(encoding="utf-8")


def data_path(filename: str) -> str:
    return str(resources.files("hhtkit") / "data" / filename)
