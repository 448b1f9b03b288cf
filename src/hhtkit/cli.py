"""Command-line front door.

Subcommands wire the parser, proof kernel, instantiation and the two model
checkers into a pipeline: an accepted proof plus an exact instantiation is
certified by exhaustive validity checking of the instance.  Bounded-depth
instantiation is a labeled approximation and never certifies.

Exit codes: 0 success/valid (exact mode only), 1 rejected or countermodel
or non-certifying, 2 usage, format or resource errors and unreadable paths.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .errors import (
    BudgetExceeded,
    ConclusionNotClosed,
    ConclusionNotFirstOrder,
    HhtError,
    ProofError,
    UnmappedAtom,
)
from .herbrand import hht_valid_bruteforce
from .instantiation import EXACT, Bounded, count_universe, instantiate
from .kernel import check_proof, conclusion_for_pipeline
from .parser import (
    parse_formula_file,
    parse_proof_file,
    parse_prop_file,
    parse_subst_file,
)
from .render import render_justification
from .semantics import (
    DEFAULT_BUDGET,
    STATE_NAMES,
    ht_valid,
    render_countermodel,
)
from .syntax import (
    eliminate_restrictors,
    formula_to_text,
    prop_dag,
    prop_stats,
    prop_to_text,
)

BUDGET_ENV = "HHTKIT_BUDGET"


def _budget(option: str | None = None) -> int:
    """The step budget both checkers get: `option` (the `--budget` value) if
    given, else `HHTKIT_BUDGET` if set, else the default.  Whichever is given
    must be a positive integer."""
    source, raw = "--budget", option
    if raw is None:
        source, raw = BUDGET_ENV, os.environ.get(BUDGET_ENV)
        if raw is None:
            return DEFAULT_BUDGET
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        raise HhtError(f"{source} must be a positive integer, got {raw!r}") from None
    return value


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class _Report:
    def __init__(self, command: str, as_json: bool):
        self.data: dict = {"command": command}
        self.as_json = as_json
        self.lines: list[str] = []

    def say(self, text: str) -> None:
        self.lines.append(text)

    def emit(self, exit_code: int) -> int:
        self.data["exit"] = exit_code
        if self.as_json:
            print(json.dumps(self.data, indent=2))
        else:
            print("\n".join(self.lines))
        return exit_code


def _stage(report: _Report, name: str, started: float, parsed: float | None = None,
           **fields) -> float:
    """Record stage `name`'s `fields` and its seconds since `started`; a
    `parsed` time (when the stage's input was parsed) splits them into
    `parse_seconds` and `check_seconds`."""
    now = time.perf_counter()
    if parsed is not None:
        fields["parse_seconds"] = round(parsed - started, 6)
        fields["check_seconds"] = round(now - parsed, 6)
    fields["seconds"] = seconds = round(now - started, 6)
    report.data[name] = fields
    return seconds


def _mode_from_args(args) -> tuple:
    if getattr(args, "depth", None) is not None:
        return Bounded(args.depth), f"bounded depth {args.depth} (non-validity-preserving)"
    return EXACT, "exact"


def _ms(seconds: float, pipeline: bool) -> str:
    # pipeline stage lines end with the stage's wall time
    return f" [{seconds * 1000:.1f} ms]" if pipeline else ""


# Stages.  Each one records its `_stage` entry and text lines, then returns
# its result or, when the run's verdict is already settled, an exit code.

def _proof_stage(report: _Report, path: str, pipeline: bool):
    """Parse and check a proof; in the pipeline its conclusion must also be
    closed and first-order.  Returns (proof, conclusion) or exit code 1."""
    t0 = time.perf_counter()
    proof = parse_proof_file(_read(path))
    parsed = time.perf_counter()
    try:
        conclusion = check_proof(proof)
        if pipeline:
            conclusion = conclusion_for_pipeline(proof)
    except ProofError as e:
        claimed = ""
        if 1 <= e.line <= len(proof.lines):
            claimed = render_justification(proof.lines[e.line - 1].justification)
        _stage(report, "proof", t0, parsed, verdict="rejected", line=e.line,
               kind=type(e).__name__, reason=e.reason, justification=claimed)
        report.say(f"proof: REJECTED at line {e.line}: {type(e).__name__}: {e.reason}")
        if claimed:
            report.say(f"claimed justification: {claimed}")
        return 1
    except (ConclusionNotFirstOrder, ConclusionNotClosed) as e:
        _stage(report, "proof", t0, parsed, verdict="rejected", kind=type(e).__name__,
               reason=str(e))
        report.say(f"proof: conclusion unusable: {type(e).__name__}: {e}")
        return 1
    text = formula_to_text(conclusion)
    secs = _stage(report, "proof", t0, parsed, verdict="accepted", level=proof.level.value,
                  lines=len(proof.lines), conclusion=text)
    report.say(f"proof: accepted (level {proof.level.value}, "
               f"{len(proof.lines)} lines){_ms(secs, pipeline)}")
    report.say(f"conclusion: {text}")
    return proof, conclusion


def _instantiation_stage(report: _Report, args, sig, f, pipeline: bool):
    """Instantiate `f` with `args.subst_file` in the mode `args` asks for.
    Returns (instance, its `prop_dag` program, mode, mode label) or exit
    code 2 for missing entries.  A `--depth` universe is charged before it
    is built, as in herbrand."""
    subst = parse_subst_file(_read(args.subst_file))
    if subst.signature != sig:
        source = "proof" if pipeline else "formula"
        raise HhtError(f"{source} and substitution files declare different signatures")
    mode, mode_label = _mode_from_args(args)
    budget = _budget()
    if mode != EXACT and (nodes := count_universe(sig, mode)[1]) > budget:
        raise BudgetExceeded(nodes, budget)
    t0 = time.perf_counter()
    try:
        instance = instantiate(subst, f, mode)
    except UnmappedAtom as e:
        report.data["missing"] = list(e.missing)
        report.say("substitution is missing entries for: " + ", ".join(e.missing))
        return 2
    dag = prop_dag(instance)
    atoms, rank, nodes, size = prop_stats(instance, dag)
    stats = {"atoms": len(atoms), "rank": rank, "nodes": nodes}
    secs = _stage(report, "instantiation", t0, mode=mode_label, **stats)
    counts = f"atoms={stats['atoms']} rank={stats['rank']} nodes={stats['nodes']}"
    if pipeline:
        report.say(f"instantiation: {mode_label}; {counts}{_ms(secs, pipeline)}")
    else:  # the text is tree-sized, however much is shared
        if size > budget:
            raise HhtError(f"printing the instance needs {size} steps, budget is {budget}")
        report.data["instance"] = text = prop_to_text(instance, dag)
        report.say(f"mode: {mode_label}")
        report.say(f"instance: {text}")
        report.say(counts)
    return instance, dag, mode, mode_label


def _validity_stage(report: _Report, started: float, counter, headlines: tuple,
                    pipeline: bool, **fields) -> int:
    """Report a validity check begun at `started`: exit code 0 if `counter`
    is None, 1 if it is a countermodel, shown over its `atoms` (sorted by
    text).  `headlines` holds the verdict line for each outcome (None: no
    line)."""
    found = counter is not None
    fields = {"verdict": "countermodel" if found else "valid", **fields}
    if found:
        fields["countermodel"] = {str(a): STATE_NAMES[counter.atom_state(a)]
                                  for a in counter.atoms}
    secs = _stage(report, "validity", started, **fields)
    if headlines[found]:
        report.say(headlines[found] + _ms(secs, pipeline))
    if found:
        report.say(render_countermodel(counter, counter.atoms))
    return int(found)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check_proof(args, report: _Report) -> int:
    got = _proof_stage(report, args.proof_file, pipeline=False)
    return report.emit(got if isinstance(got, int) else 0)


def _cmd_eliminate(args, report: _Report) -> int:
    _, f = parse_formula_file(_read(args.formula_file))
    out = formula_to_text(eliminate_restrictors(f))
    report.data["formula"] = out
    report.say(out)
    return report.emit(0)


def _cmd_instantiate(args, report: _Report) -> int:
    sig, f = parse_formula_file(_read(args.formula_file))
    got = _instantiation_stage(report, args, sig, f, pipeline=False)
    return report.emit(got if isinstance(got, int) else 0)


# verdict lines (HT-valid, countermodel) of the stand-alone validity commands
_VALIDITY_HEADLINES = {
    "ht-valid": ("HT-valid", "countermodel found:"),
    "countermodel": ("no countermodel: formula is HT-valid", None),
}


def _cmd_ht_valid(args, report: _Report) -> int:
    f = parse_prop_file(_read(args.prop_file))
    t0 = time.perf_counter()
    counter = ht_valid(f, _budget())
    headlines = _VALIDITY_HEADLINES[args.command]
    return report.emit(_validity_stage(report, t0, counter, headlines, pipeline=False))


def _cmd_herbrand_check(args, report: _Report) -> int:
    sig, f = parse_formula_file(_read(args.formula_file))
    mode, mode_label = _mode_from_args(args)
    t0 = time.perf_counter()
    counter = hht_valid_bruteforce(sig, f, mode, _budget(args.budget))
    headlines = (f"valid over all interpretations ({mode_label})",
                 f"countermodel found ({mode_label}):")
    if _validity_stage(report, t0, counter, headlines, pipeline=False, mode=mode_label):
        return report.emit(1)
    if mode != EXACT:
        report.say("bounded mode: non-validity-preserving")
    return report.emit(0 if mode == EXACT else 1)


def _cmd_pipeline(args, report: _Report) -> int:
    got = _proof_stage(report, args.proof_file, pipeline=True)
    if isinstance(got, int):
        return report.emit(got)
    proof, conclusion = got
    got = _instantiation_stage(report, args, proof.signature, conclusion, pipeline=True)
    if isinstance(got, int):
        return report.emit(got)
    instance, dag, mode, mode_label = got
    t0 = time.perf_counter()
    counter = ht_valid(instance, _budget(), dag=dag)
    headlines = (f"validity: HT-valid ({mode_label})",
                 f"validity: countermodel found ({mode_label})")
    valid = _validity_stage(report, t0, counter, headlines, pipeline=True) == 0
    certifying = mode == EXACT and valid
    report.data["certifying"] = certifying
    if certifying:
        report.say("certificate: VALID (accepted proof + exact instance)")
        return report.emit(0)
    if mode != EXACT:
        report.say("certificate: NOT CERTIFYING (bounded mode: non-validity-preserving)")
    else:
        report.say("certificate: FAILED (countermodel for an exact instance "
                   "of an accepted conclusion)")
    return report.emit(1)


def build_arg_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a machine-readable report")
    ap = argparse.ArgumentParser(
        prog="hhtkit",
        description="check Hilbert-style proofs and certify instances by "
        "exhaustive two-world model checking",
    )
    ap.add_argument("--json", action="store_true", dest="json_global",
                    help=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-proof", parents=[common], help="verify a proof file")
    p.add_argument("proof_file")

    p = sub.add_parser("instantiate", parents=[common],
                       help="compute the instance of a formula")
    p.add_argument("formula_file")
    p.add_argument("subst_file")
    p.add_argument("--depth", type=int, default=None,
                   help="bounded universe depth (approximate)")

    p = sub.add_parser("ht-valid", parents=[common],
                       help="exhaustively check a propositional formula")
    p.add_argument("prop_file")

    p = sub.add_parser("countermodel", parents=[common], help="search for a countermodel")
    p.add_argument("prop_file")

    p = sub.add_parser("eliminate-restrictors", parents=[common],
                       help="unfold generalized variables")
    p.add_argument("formula_file")

    p = sub.add_parser("herbrand-check", parents=[common],
                       help="brute-force validity over ground-term models")
    p.add_argument("formula_file")
    p.add_argument("--budget", default=None,
                   help=f"work budget in steps (default: ${BUDGET_ENV} or {DEFAULT_BUDGET})")
    p.add_argument("--depth", type=int, default=None,
                   help="bounded universe depth (approximate)")

    p = sub.add_parser("pipeline", parents=[common],
                       help="proof -> instance -> validity certificate")
    p.add_argument("proof_file")
    p.add_argument("subst_file")
    p.add_argument("--depth", type=int, default=None,
                   help="bounded universe depth (approximate, never certifies)")
    return ap


# parsing leaves no state in the parser, so one serves every call
_arg_parser = functools.cache(build_arg_parser)


def run(argv: list[str] | None = None) -> int:
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    report = _Report(args.command, args.json or args.json_global)
    handlers = {
        "check-proof": _cmd_check_proof,
        "instantiate": _cmd_instantiate,
        "ht-valid": _cmd_ht_valid,
        "countermodel": _cmd_ht_valid,
        "eliminate-restrictors": _cmd_eliminate,
        "herbrand-check": _cmd_herbrand_check,
        "pipeline": _cmd_pipeline,
    }
    try:
        return handlers[args.command](args, report)
    except (OSError, HhtError, ValueError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        # last resort: a fault of the program still ends in one line, exit 2
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entry()
