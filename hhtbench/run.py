"""hhtkit benchmark: time to verdict of in-process `hhtkit.cli.run` calls.

    python3 hhtbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; `hhtkit` is imported from the checkout's
`src/`.  One process and one thread send the workload's inputs in a closed
loop, one pass after another, until `--seconds` have gone by (at least one
pass).  Every result is checked against its known answer.  With `--trace 0`
the last line reports the end-to-end metrics; with `--trace 1` untraced and
traced passes alternate and it reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Every time is scaled to a machine of fixed speed, as gauged by the reference
workload in `reference.py`, which runs between the passes; the unscaled pass
time is printed alongside.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import reference
import spans
import verdicts
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("corpus", "ht_atoms", "herbrand", "universe")
SETUP_REPEATS = 5  # before the passes; one more follows each untraced pass

UNITS = {
    "wall_s": "s", "verdict_ms.p50": "ms", "verdict_ms.p90": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "trace.overhead_s": "s",
    "parser.bytes": "B", "parser.mb_per_s": "MB/s", "kernel.lines_per_s": "1/s",
    "instantiation.nodes_per_s": "1/s", "semantics.interp_per_s": "1/s",
    "semantics.examined_share": "ratio", "herbrand.interp_per_s": "1/s",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def build_cases(workload: str, seed: int) -> list[workloads.Case]:
    from hhtkit.corpus import cases, data_path

    if workload == "corpus":
        return workloads.corpus(seed, cases, data_path)
    if workload == "ht_atoms":
        return workloads.ht_atoms(seed)
    if workload == "herbrand":
        return workloads.herbrand(seed, data_path("excluded_middle.fof"))
    return workloads.universe(seed)


def write_inputs(cases, workdir: str) -> None:
    for case in cases:
        for name, text in case.files.items():
            Path(workdir, name).write_text(text, encoding="utf-8")
        case.argv = [a.replace("{dir}", workdir) for a in case.argv]


def cross_check(cases) -> list[str]:
    """Each generated propositional family at its smallest size, checked
    against the literal satisfaction relation."""
    from hhtkit.parser import parse_prop_file
    from hhtkit.semantics import STATE_NAMES, ht_valid
    from hhtkit.syntax import prop_atoms

    problems = []
    smallest = {f"{shape}{workloads.HT_SIZES[0]}" for shape in workloads.HT_SHAPES}
    for case in cases:
        if case.id not in smallest:
            continue
        f = parse_prop_file(Path(case.argv[1]).read_text(encoding="utf-8"))
        counter = ht_valid(f, evaluator="literal")
        got = None if counter is None else {
            a: STATE_NAMES[counter.atom_state(a)] for a in sorted(prop_atoms(f))}
        if got != case.json.get("validity.countermodel"):
            problems.append(f"{case.id}: literal evaluator gives {got}")
    return problems


def import_time() -> float:
    """One fresh interpreter importing hhtkit.cli, as every CLI invocation
    does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import hhtkit.cli"], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def run_pass(cases, run, recorder=None):
    """One closed-loop pass: each call starts after the previous verdict."""
    results = []
    started = perf_counter()
    for case in cases:
        if recorder is not None:
            recorder.input_id = case.id
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = run(list(case.argv))
            except Exception as e:  # a traceback is a failed call, not a crash
                code = f"raised {type(e).__name__}: {e}"
            t1 = perf_counter()
        results.append((case, code, out.getvalue(), t1 - t0))
    return perf_counter() - started, results


def check(results) -> list[str]:
    failures = []
    for case, code, stdout, _ in results:
        problems = verdicts.mismatches(case, code, stdout)
        if problems:
            failures.append(f"{case.id}: {'; '.join(problems)}")
    return failures


def verdict_percentiles(samples: dict[str, list[float]]) -> tuple[float, float]:
    """Median and 90th percentile, in ms, over the inputs of each input's
    median time across passes.  Taking each input's median first keeps one
    slow call from moving the result when the percentile falls in the gap
    between two inputs' times."""
    per_input = [1000 * statistics.median(times) for times in samples.values()]
    if len(per_input) == 1:
        return per_input[0], per_input[0]
    return (statistics.median(per_input),
            statistics.quantiles(per_input, n=10, method="inclusive")[-1])


def measure(cases, seconds: float, trace: bool, seed: int):
    """Passes until `seconds` have gone by.  The reference workload runs
    before the first pass and after each one; the mean of the two timings
    around a pass gives its scale, NOMINAL_S / reference time, by which every
    time taken in the pass is multiplied.  A set-up sample is scaled by the
    reference timing just before it.  Each pass after the first sends the
    inputs in a new seeded order, so no input always follows the same one:
    what a call costs can depend on the garbage its predecessor left."""
    from hhtkit import cli

    shuffle = random.Random(seed).shuffle
    recorder = spans.Recorder() if trace else None
    ref = reference.reference_time()
    setup = []
    if not trace:
        import_time()  # writes the bytecode caches; not counted
        setup = [import_time() * reference.NOMINAL_S / ref for _ in range(SETUP_REPEATS)]
    deadline = perf_counter() + seconds
    plain, raw, traced, scales, failures = [], [], [], [], []
    samples: dict[str, list[float]] = {case.id: [] for case in cases}
    per_layer: list[dict] = []
    attempted = 0
    while not plain or (trace and not traced) or perf_counter() < deadline:
        if plain:
            shuffle(cases)
        traced_pass = trace and len(traced) < len(plain)
        if traced_pass:
            recorder.counts.clear()
            first = len(recorder.spans)
            run, uninstall = spans.install(cli, recorder)
            try:
                wall, results = run_pass(cases, run, recorder)
            finally:
                uninstall()
        else:
            wall, results = run_pass(cases, cli.run)
        after = reference.reference_time()
        scale = reference.NOMINAL_S / ((ref + after) / 2)
        ref = after
        scales.append(scale)
        if traced_pass:
            traced.append(wall * scale)
            totals = spans.layer_totals(recorder.spans, first)
            for layer in spans.LAYERS:
                totals[f"{layer}.self_s"] *= scale
            per_layer.append(spans.work_metrics(totals, recorder.counts))
        else:
            plain.append(wall * scale)
            raw.append(wall)
            for case, _, _, seconds in results:
                samples[case.id].append(seconds * scale)
            if not trace:
                # spread over the run, like the passes
                setup.append(import_time() * reference.NOMINAL_S / ref)
        attempted += len(results)
        failures += check(results)
    return {"plain": plain, "raw": raw, "traced": traced, "samples": samples,
            "scales": scales, "failures": failures, "attempted": attempted,
            "per_layer": per_layer, "recorder": recorder, "setup": setup}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hhtkit" / "cli.py").is_file():
        print(f"hhtbench: no hhtkit sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cases = build_cases(args.workload, args.seed)
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        write_inputs(cases, workdir)
        problems = cross_check(cases)
        m = measure(cases, args.seconds, bool(args.trace), args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = m["failures"]
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} inputs, "
          f"{len(m['plain'])} untraced and {len(m['traced'])} traced passes")
    print(f"machine speed: reference scale {statistics.median(m['scales']):.3f} "
          f"(median over passes); unscaled wall_s {statistics.median(m['raw']):.4f} s")
    print(f"error_rate {len(failures) / m['attempted']:.4f} "
          f"({len(failures)} of {m['attempted']} calls)")
    for line in problems + failures[:20]:
        print(f"  FAIL {line}")

    if args.trace:
        metrics = {name: statistics.median(p[name] for p in m["per_layer"])
                   for name in m["per_layer"][0]}
        metrics["trace.overhead_s"] = (statistics.median(m["traced"])
                                       - statistics.median(m["plain"]))
        out_dir = BENCH_DIR / "_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as fh:
            for s in m["recorder"].spans:
                fh.write(json.dumps(asdict(s)) + "\n")
        print(f"spans: {len(m['recorder'].spans)} written to {span_file.relative_to(ROOT)}")
        busy = {layer: metrics[f"{layer}.self_s"] for layer in spans.LAYERS}
        total = sum(busy.values())
        print("self-time shares: " + ", ".join(
            f"{layer} {100 * t / total:.1f}%"
            for layer, t in sorted(busy.items(), key=lambda kv: -kv[1]) if t > 0))
    else:
        p50, p90 = verdict_percentiles(m["samples"])
        metrics = {
            "wall_s": statistics.median(m["plain"]),
            "verdict_ms.p50": p50,
            "verdict_ms.p90": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(m["setup"]),
        }
        print(f"verdict samples: {len(cases) * len(m['plain'])} "
              f"({len(cases)} inputs x {len(m['plain'])} passes); "
              f"set-up samples: {len(m['setup'])}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit(name)}")

    correct = not problems and not failures
    print(json.dumps({
        "correct": correct,
        "attempted": m["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
