"""Span recording around the calls `hhtkit.cli` makes into the other modules.

`install` replaces every function that `hhtkit.cli` imported from another
hhtkit module with a wrapper that records a span (name, layer, start, end,
parent, input id); the layer is the module the function is defined in.  The
root span is `cli.run` itself.  Spans stay in memory until the run ends.
Work counts are taken from each call's arguments and return value after its
span has closed, inside a `trace` span of their own, so their cost lands in
the tracing overhead and not in any layer's self time.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

from verdicts import canonical_index

LAYERS = ("parser", "kernel", "instantiation", "semantics", "herbrand", "syntax",
          "render", "cli")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    input_id: str | None


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.input_id: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn, count=None):
        """`fn` inside a span; `count(counts, arguments, result, error)` runs
        after the span closes."""
        bind = inspect.signature(fn).bind if count is not None else None

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, perf_counter(), 0.0, parent, self.input_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                error = e
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if count is not None:
                    bound = bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counts, bound.arguments, result, error)
                    self.spans.append(Span("trace.count", "trace", span.end, perf_counter(),
                                           parent, self.input_id))

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        intervals = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children[i])
        for a, b in intervals:
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans: list[Span], first: int = 0) -> dict[str, float]:
    """`<layer>.self_s` and `<layer>.calls` for every layer, over the spans
    from index `first` on (parents are indices into the whole list)."""
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    for s, own in zip(spans[first:], self_times(spans)[first:]):
        if s.layer in LAYERS:
            out[f"{s.layer}.self_s"] += own
            out[f"{s.layer}.calls"] += 1
    return out


# ---------------------------------------------------------------------------
# work counts


def _counters():
    """Count functions by the name `hhtkit.cli` imports them under."""
    from hhtkit.errors import ProofError
    from hhtkit.herbrand import estimate_cost
    from hhtkit.instantiation import herbrand_base, universe
    from hhtkit.syntax import eliminate_restrictors, prop_atoms, prop_node_count

    def parsed(counts, a, result, error):
        text = next(iter(a.values()))
        counts["parser.bytes"] += len(text.encode("utf-8"))

    def check_proof(counts, a, result, error):
        counts["kernel.lines"] += len(a["proof"].lines)
        if isinstance(error, ProofError):
            counts["kernel.rejected"] += 1

    def instantiate(counts, a, result, error):
        if error is None:
            counts["instantiation.universe_terms"] += len(universe(a["subst"].signature, a["mode"]))
            counts["instantiation.instance_nodes"] += prop_node_count(result)

    def ht_valid(counts, a, result, error):
        if error is not None:
            return
        atoms = sorted(prop_atoms(a["f"]))
        space = 3 ** len(atoms)
        if result is None:
            examined = space
        else:
            examined = 1 + canonical_index(
                [2 if x in result.here else 1 if x in result.there else 0 for x in atoms])
        counts["semantics.interpretations"] += examined
        counts["semantics.space"] += space

    def bruteforce(counts, a, result, error):
        if error is not None:
            return
        terms = universe(a["sig"], a["mode"])
        base = herbrand_base(a["sig"], terms)
        space = 3 ** len(base)
        if result is None:
            examined = space
        else:
            examined = 1 + canonical_index(
                [2 if x in result.here else 1 if x in result.there else 0 for x in base])
        counts["herbrand.interpretations"] += examined
        counts["herbrand.cost_estimate"] += space * estimate_cost(
            eliminate_restrictors(a["f"]), len(terms))

    def exit_code(counts, a, result, error):
        counts[f"cli.exit_{result}"] += 1

    table = {
        "check_proof": check_proof,
        "instantiate": instantiate,
        "ht_valid": ht_valid,
        "hht_valid_bruteforce": bruteforce,
        "run": exit_code,
    }
    return lambda name: parsed if name.startswith("parse_") else table.get(name)


def install(cli, recorder: Recorder):
    """Wrap `cli`'s imported functions; returns the traced `run` and an
    `uninstall` callable that restores the originals."""
    count_for = _counters()
    saved = {}
    for name, fn in list(vars(cli).items()):
        module = getattr(fn, "__module__", "") or ""
        if (inspect.isfunction(fn) and module.startswith("hhtkit.")
                and module != cli.__name__):
            layer = module.rsplit(".", 1)[-1]
            saved[name] = fn
            setattr(cli, name, recorder.wrap(f"{layer}.{name}", layer, fn, count_for(name)))
    run = recorder.wrap("cli.run", "cli", cli.run, count_for("run"))

    def uninstall():
        for name, fn in saved.items():
            setattr(cli, name, fn)

    return run, uninstall


def work_metrics(totals: dict[str, float], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self time and calls per layer,
    work counts, and rates of work per second of the layer's self time."""
    def rate(work, layer):
        busy = totals[f"{layer}.self_s"]
        return work / busy if busy > 0 else 0.0

    out = dict(totals)
    out["parser.bytes"] = counts["parser.bytes"]
    out["parser.mb_per_s"] = rate(counts["parser.bytes"] / 1e6, "parser")
    out["kernel.lines"] = counts["kernel.lines"]
    out["kernel.lines_per_s"] = rate(counts["kernel.lines"], "kernel")
    out["kernel.rejected"] = counts["kernel.rejected"]
    out["instantiation.universe_terms"] = counts["instantiation.universe_terms"]
    out["instantiation.instance_nodes"] = counts["instantiation.instance_nodes"]
    out["instantiation.nodes_per_s"] = rate(counts["instantiation.instance_nodes"], "instantiation")
    out["semantics.interpretations"] = counts["semantics.interpretations"]
    out["semantics.interp_per_s"] = rate(counts["semantics.interpretations"], "semantics")
    space = counts["semantics.space"]
    out["semantics.examined_share"] = counts["semantics.interpretations"] / space if space else 0.0
    out["herbrand.interpretations"] = counts["herbrand.interpretations"]
    out["herbrand.interp_per_s"] = rate(counts["herbrand.interpretations"], "herbrand")
    out["herbrand.cost_estimate"] = counts["herbrand.cost_estimate"]
    for code in (0, 1, 2):
        out[f"cli.exit_{code}"] = counts[f"cli.exit_{code}"]
    return out


def by_input(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Mean self time per call of each input, by layer: how one input's time
    to verdict splits between the layers."""
    own = self_times(spans)
    per_call: dict[tuple[str, str], list[float]] = defaultdict(list)
    calls = Counter()
    for s, t in zip(spans, own):
        if s.layer == "cli" and s.parent is None:
            calls[s.input_id] += 1
        if s.layer in LAYERS:
            per_call[(s.input_id, s.layer)].append(t)
    out: dict[str, dict[str, float]] = defaultdict(dict)
    for (input_id, layer), times in per_call.items():
        out[input_id][layer] = sum(times) / calls[input_id]
    return dict(out)


if __name__ == "__main__":
    import json
    import sys

    if len(sys.argv) != 2:
        sys.exit("usage: python3 hhtbench/spans.py hhtbench/_out/spans-<workload>-seed<n>.jsonl")
    with open(sys.argv[1], encoding="utf-8") as fh:
        recorded = [Span(**json.loads(line)) for line in fh]
    print("input".ljust(24) + "".join(layer.rjust(14) for layer in LAYERS))
    for input_id, layers in sorted(by_input(recorded).items()):
        print(input_id.ljust(24) + "".join(f"{1000 * layers.get(l, 0.0):12.2f}ms" for l in LAYERS))
