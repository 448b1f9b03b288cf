"""Exception types shared across the toolkit, and the cap on budget counts."""

from __future__ import annotations


class HhtError(Exception):
    """Base class for all toolkit errors."""


class ParseError(HhtError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class SignatureError(HhtError):
    """Signature violates a structural invariant."""


class CaptureViolation(HhtError):
    """A substitution would capture a variable of the substituted term."""


class NotClosed(HhtError):
    """Operation requires a closed formula."""


class NotFirstOrder(HhtError):
    """Operation requires a first-order formula."""


class UnmappedAtom(HhtError):
    """A substitution has no entry or default for a ground atom.  `missing`
    holds every such atom an instance reached, sorted, with `atom` first."""

    def __init__(self, atom, missing=()):
        super().__init__(f"no entry or default for atom {atom!r}")
        self.atom = atom
        self.missing = tuple(missing) or (atom,)


class InfiniteUniverse(HhtError):
    """Exact mode requires every function constant to be nullary."""


class OutsideUniverse(HhtError):
    """A function name was applied to a term outside the universe its table
    covers, as a truncated universe allows."""


# Budget counts saturate here, above any budget parsed from text (at most
# 4,300 digits), so counting stays cheap; such a count is always refused.
STEP_CAP = 10**4300


def capped_pow(base: int, exp: int) -> int:
    """`min(base ** exp, STEP_CAP)`, computed without a larger power."""
    if base > 1 and (base.bit_length() - 1) * exp >= STEP_CAP.bit_length():
        return STEP_CAP
    return min(base**exp, STEP_CAP)


class BudgetExceeded(HhtError):
    """Enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int):
        need = "at least 10^4300" if required >= STEP_CAP else required
        super().__init__(f"enumeration needs {need} steps, budget is {budget}")
        self.required = required
        self.budget = budget


class SubstitutionError(HhtError):
    """Substitution table violates a structural invariant."""


class ProofError(HhtError):
    """A proof line failed checking. `line` is 1-based."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ForwardReference(ProofError):
    pass


class MPMismatch(ProofError):
    pass


class SchemaMismatch(ProofError):
    pass


class SideConditionViolation(ProofError):
    pass


class LevelViolation(ProofError):
    pass


class ConclusionNotFirstOrder(HhtError):
    pass


class ConclusionNotClosed(HhtError):
    pass
