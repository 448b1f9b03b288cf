"""Run hhtbench on a parent and a change checkout in alternating pairs and
write the record as `BENCH_<n>.json`.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR BENCH_19.json \\
        [--pairs 10] [--seed 1] [--workloads corpus ht_atoms ...]

Each directory is the root of a checkout (its own `hhtbench/` and `src/`).
For every workload, pair i runs `python3 hhtbench/run.py --trace 0` in the
parent and then in the change when i is even, the other way round when it
is odd, each for the `run_seconds` of this checkout's `BENCHMARK.json`.  The
end-to-end metrics and their bounds come from that file too.

Both sides run with `PYTHONDONTWRITEBYTECODE=1` and no
`PYTHONPYCACHEPREFIX`, so every set-up sample compiles `src/` afresh, as
in a fresh checkout that writes no bytecode: `setup_s` then includes the
compile, on both sides alike.  A checkout whose `src/` holds a
`__pycache__` would time cached imports instead; it is refused with exit 2,
not cleaned.

The record holds, per workload and metric, both sides' values pair by pair,
their medians and quartiles, the bound, in how many pairs the change was
better, and two verdicts by the rules the benchmark is judged by: `within_bound`
(the change's median is not worse than the parent's by more than the
bound) and `gain` (better in at least nine tenths of the pairs, and the
medians further apart than the parent's quartiles).  Failed and attempted
operations are kept per run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_env(checkout: Path) -> dict:
    """The environment for runs in `checkout`: no bytecode is read from a
    cache or written.  Exits 2 if `checkout`'s `src/` holds a `__pycache__`."""
    cached = next((checkout / "src").rglob("__pycache__"), None)
    if cached is not None:
        print(f"error: {cached} exists; set-up would time cached imports", file=sys.stderr)
        sys.exit(2)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def describe(checkout: Path) -> str:
    """The checkout's commit, marked `-dirty` when its files differ from it,
    or its directory name outside git."""
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else checkout.name


def run_once(checkout: Path, env: dict, workload: str, seed: int, seconds: float,
             label: str) -> dict:
    """One benchmark run: the JSON object its last line of output holds.  A
    run that fails ends the record, with `label` and the end of its stderr."""
    cmd = [sys.executable, "hhtbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stderr.splitlines()[-20:])
        sys.exit(f"{label}: exit {done.returncode}\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    def quartiles(values):
        if len(values) == 1:
            return values * 3
        return statistics.quantiles(values, n=4, method="inclusive")

    sign = 1 if better == "lower" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    return {
        "parent": parent, "change": change,
        "parent_median": p_med, "parent_quartiles": [p_q1, p_q3],
        "change_median": c_med, "change_quartiles": [c_q1, c_q3],
        "ratio": c_med / p_med if p_med else None,
        "bound": bound, "better": better,
        "change_better_pairs": wins,
        "within_bound": sign * (c_med - p_med) <= bound * abs(p_med),
        "gain": wins >= 0.9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the change checkout")
    ap.add_argument("out", type=Path, help="JSON file to write, e.g. BENCH_19.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    envs = {side: run_env(path) for side, path in sides.items()}
    record = {"parent": describe(sides["parent"]), "change": describe(sides["change"]),
              "seed": args.seed, "run_seconds": seconds, "pairs": args.pairs,
              "python": sys.version.split()[0], "cpus": os.cpu_count(),
              "workloads": {}}
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                got = run_once(sides[side], envs[side], workload, args.seed, seconds,
                               f"{side} run of {workload}, pair {i + 1}")
                runs[side].append(got)
                print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                      f"wall_s {got['metrics']['wall_s']['value']:.4f} "
                      f"failed {got['failed']}/{got['attempted']}", flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side]]
                      for side in runs}
            metrics[m["name"]] = {"unit": m["unit"], **summarize(
                values["parent"], values["change"], m["better"], m["bound"])}
        record["workloads"][workload] = {
            "metrics": metrics,
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
            "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{len(args.workloads)} workloads x {args.pairs} pairs -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
