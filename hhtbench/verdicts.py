"""The verdict oracle and the canonical order of interpretations."""

from __future__ import annotations

import json

STATE_DIGITS = {"absent": 0, "there-only": 1, "both": 2}


def canonical_index(states: list[int]) -> int:
    """Position of an interpretation in canonical order: one base-3 digit
    per atom (absent < there-only < both), first atom most significant."""
    index = 0
    for s in states:
        index = index * 3 + s
    return index


def _lookup(data, dotted: str):
    for key in dotted.split("."):
        if not isinstance(data, dict) or key not in data:
            raise KeyError(dotted)
        data = data[key]
    return data


def mismatches(case, code: int, stdout: str) -> list[str]:
    """Every way one CLI result differs from the case's known answer."""
    found = []
    if code != case.exit:
        found.append(f"exit {code}, expected {case.exit}")
    if case.stdout is not None and stdout != case.stdout:
        found.append(f"output {stdout[:200]!r}, expected {case.stdout[:200]!r}")
    if case.json:
        try:
            data = json.loads(stdout)
        except ValueError:
            return found + [f"no JSON report: {stdout[:200]!r}"]
        for path, want in case.json.items():
            try:
                got = _lookup(data, path)
            except KeyError:
                found.append(f"{path} missing")
                continue
            if got != want:
                found.append(f"{path} = {str(got)[:200]!r}, expected {str(want)[:200]!r}")
    return found
