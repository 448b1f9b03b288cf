"""A fixed pure-Python reference workload that gauges the machine's speed.

The shared host the benchmark was tuned on changes speed by up to 2x
within a minute, as other tenants come and go.  Timing this fixed work next
to every pass gives the speed the pass ran at, and the benchmark reports
each time scaled to a machine on which the reference takes `NOMINAL_S`.
The workload imports nothing from hhtkit, so no change to the program can
move it; it does the same kinds of work as the program (regex
tokenizing, recursive descent into tuples, structural matching, dicts and
frozensets), so it slows down with the program when the host is busy.
"""

from __future__ import annotations

import re
from time import perf_counter

NOMINAL_S = 0.2
ROUNDS = 150

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z]\w*)|(.))")
_TEXT = " ; ".join(f"(a{i % 7} + {i} * (b{i % 5} - {i % 11}) / (c + {i % 3 + 1}))"
                   for i in range(60))
_ENV = {f"{p}{i}": i + 1 for p in "abc" for i in range(11)} | {"c": 2}


def _tokens(text):
    return [("n", int(num)) if num else ("v", name) if name else ("o", op)
            for num, name, op in _TOKEN.findall(text)]


def _sum(toks, i):
    left, i = _product(toks, i)
    while i < len(toks) and toks[i] in (("o", "+"), ("o", "-")):
        op = toks[i][1]
        right, i = _product(toks, i + 1)
        left = (op, left, right)
    return left, i


def _product(toks, i):
    left, i = _atom(toks, i)
    while i < len(toks) and toks[i] in (("o", "*"), ("o", "/")):
        op = toks[i][1]
        right, i = _atom(toks, i + 1)
        left = (op, left, right)
    return left, i


def _atom(toks, i):
    if toks[i] == ("o", "("):
        e, i = _sum(toks, i + 1)
        return e, i + 1
    return toks[i], i + 1


def _eval(e):
    match e:
        case ("n", value):
            return value
        case ("v", name):
            return _ENV[name]
        case (op, left, right):
            a, b = _eval(left), _eval(right)
            return a + b if op == "+" else a - b if op == "-" else a * b if op == "*" else a / b


def reference_time() -> float:
    """Seconds this machine takes, right now, for the fixed workload."""
    started = perf_counter()
    total = 0.0
    for _ in range(ROUNDS):
        toks = _tokens(_TEXT)
        i, exprs = 0, []
        while i < len(toks):
            e, i = _sum(toks, i)
            exprs.append(e)
            i += 1  # the ";" between expressions
        total += sum(_eval(e) for e in exprs)
        total += len(frozenset(str(e)[:12] for e in exprs))
    return perf_counter() - started
