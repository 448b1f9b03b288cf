"""Record hhtkit's CLI output on every benchmark command line, for
byte-identity checks between two checkouts.

    python3 tools/cli_snapshot.py CHECKOUT OUT.json [--workloads ...] [--seeds ...]

`CHECKOUT` is the root of a checkout, the directory that holds `src/hhtkit`
(exit 2 if it does not); that package is imported and each command runs
in-process through `hhtkit.cli.run`.  The command lines are those
of this checkout's `hhtbench/workloads.py` for every workload and seed asked
for (default: every group below, seeds 1-3), with generated inputs written to
a temporary directory.  The `pairs` group adds `instantiate` of every shipped
`.fof` with a `.subst` of the same name, exact and at `--depth` 1 and 2, each
with and without `--json`.  The `proofs` group runs `check-proof`, with and
without `--json`, on seeded single-line mutations of every shipped `.proof`:
an `mp` reference redirected, a formula binding replaced by another line's
formula, and a `gen-all` binder renamed, two of each where the proof has
such lines, and the first binding of its first axiom line given twice
(`with K := V, K := V, ...`), so that rejection and parse-error messages
are compared too.  The `limits` group writes inputs near the default work
budget (the example6 instances with 9 and 10 constants per restrictor, a
Herbrand base of 13 atoms, and a function quantifier over 4 constants) and
records `ht-valid` or `herbrand-check` on each, with and without `--json`.
The `captures` group
writes one single-line proof per quantifier schema whose binding makes the
substitution capture a variable (`forall-elim`, `exists-intro`, `eq-subst`,
`so-forall-elim`, `so-exists-intro`, `so-forall-elim-abs`) and records
`check-proof` on each, with and without `--json`, so that capture messages
are compared too.  The `depth` group writes one single-line proof whose
`forall-elim` binding `F` is a flat chain of `P(x) & ...`, a nest of
`forall y`, or a nest of parentheses around `P(x)`, at depths 300, 330, 490
and 1,000, and records `check-proof` on each, with and without `--json`, so
that how deep each stage goes is compared too.  The flat chain also runs at
987 and 988, and the nest of `forall y` at 983 and 984: the last depth each
is accepted at and the first it is refused at, when this tool runs it
(found by bisection between 490 and 1,000).
The `syntax` group mutates every shipped `.proof`, `.prop`, `.fof` and
`.subst` at three seeded token sites, each token replaced as
`tests/test_cli_property.py` replaces one, and records `check-proof`,
`ht-valid` or `instantiate` on each (a `.fof` or `.subst` with its
same-named partner, else with subsum4's), with and without `--json`, so
that parse-error text is compared too.  The `sharing` group writes
`P <-> (P <-> ... (P <-> P))` with n = 2, 4, ..., 12 connectives, whose
subformulas the parser shares while the text doubles per level, and records
`instantiate` (with `P := p`, with and without `--json`) and
`herbrand-check` on each, so that work linear in the shared formula is
checked to print what the tree walks printed.  It also writes each level's
text as a `.prop` file, where `P` is an atom, and records `ht-valid` on it,
with and without `--json`, so that propositional sharing is compared too.  The `models` group records
`herbrand-check`, with and without `--json`, on second-order formulas over
`const a, b` whose quantifiers range over predicate names and function
tables, and at `--depth 1` on a function variable applied outside the
truncated universe, so that countermodels and the message of that error
are compared too.  The `spacing` group rejoins the tokens of every shipped
`.proof` by a seeded mix of spaces, tabs, `\\r\\n`, `\\f`, U+3000 and
`# comment\\n` lines, glued to a token or not, and records `check-proof` on
each, with and without `--json`, so that how whole files are tokenized is
compared too.  The `images` group rewrites every shipped `.subst` and
records `instantiate` of it with its formula (the same-named `.fof`, else
the conclusion of the same-named `.proof` under its signature), exact and at
`--depth 1`, each with and without `--json`: with one entry of a predicate
without a default dropped (so the atom is reported missing), with each
restrictor's entries replaced by `default R := top;` or `default R := bot;`,
with one restrictor image set to `p` (refused), with every other image
replaced by one shared formula, and with that formula joined to each of
them, so that unmapped atoms, restrictor defaults and errors, and images
that share entries are compared too.

Each record holds the exit code, stdout and stderr.  Stage timings
(`"seconds"`, `"parse_seconds"`, `"check_seconds"` and `[N ms]`), `CHECKOUT`
and the temporary directory are masked, so two snapshots differ only where
the CLI's output does:

    python3 tools/cli_snapshot.py ../parent parent.json
    python3 tools/cli_snapshot.py . change.json
    diff parent.json change.json
"""

from __future__ import annotations

import argparse
import io
import json
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "hhtbench"))
import workloads  # noqa: E402

GROUPS = ("corpus", "ht_atoms", "herbrand", "universe", "pairs", "proofs", "syntax",
          "sharing", "models", "spacing", "limits", "captures", "depth", "images")
UNSEEDED = ("pairs", "proofs", "syntax", "sharing", "models", "spacing", "limits", "captures",
            "depth", "images")
_LIMIT_FOFS = {
    "c13.fof": "const a, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12.  pred P/1.\n"
               "forall x (P(x) -> P(x)) & exists x (P(x) | not P(x) | P(a))\n",
    "f2.fof": "const a, b, c, d.  pred Q/0.\nforall f^2 (Q | not Q)\n",
}
_CAPTURE_HEADER = "const a, b.  pred P/1, Q/2.\nlevel HHT2;\n1: "
_CAPTURE_LINES = {
    "forall-elim": "forall x forall g^1 P(x) -> forall g^1 P(g(a)) by axiom forall-elim "
                   "with x := x, F := forall g^1 P(x), t := g(a);",
    "exists-intro": "exists y Q(y,y) -> exists x exists y Q(x,y) by axiom exists-intro "
                    "with x := x, F := exists y Q(x,y), t := y;",
    "eq-subst": "a = y -> forall y Q(a,y) -> forall y Q(y,y) by axiom eq-subst "
                "with t1 := a, t2 := y, x := x, F := forall y Q(x,y);",
    "so-forall-elim": "forall q/1 forall p/1 (q(a) -> p(a)) -> forall p/1 (p(a) -> p(a)) "
                      "by axiom so-forall-elim with v := q/1, G := forall p/1 (q(a) -> p(a)), "
                      "w := p/1;",
    "so-exists-intro": "forall g^1 P(g(a)) -> exists f^1 forall g^1 P(f(a)) by axiom "
                       "so-exists-intro with v := f^1, G := forall g^1 P(f(a)), w := g^1;",
    "so-forall-elim-abs": "forall p/1 forall y p(y) -> forall y Q(y,y) by axiom "
                          "so-forall-elim-abs with p := p/1, G := forall y p(y), xs := [x], "
                          "F := Q(x,y);",
}
# name -> (herbrand-check options, file text)
_MODEL_FOFS = {
    "outside": (["--depth", "1"], "const a. fn s/1. pred P/1.\nforall g^1 forall x P(g(s(x)))\n"),
    **{f"so{k}": ([], f"const a, b.  pred P/1, Q/0.\n{text}\n") for k, text in enumerate((
        "exists p/1 forall x (p(x) <-> P(x))",
        "forall p/0 (not not p -> p)",
        "forall p/0 (not not p -> p) | Q",
        "exists p/0 (p <-> Q) & (P(a) | not P(b))",
        "forall p/1 (p(a) & p(b) -> forall x p(x))",
        "exists g^1 (P(g(a)) -> P(a))",
        "forall g^1 exists x (P(g(x)) -> Q) | not Q",
    ), 1)},
}
# shape -> (the `F` of a `forall-elim` line at a depth, extra depths)
_DEPTH_SHAPES = {
    "and": (lambda n: "(" + " & ".join(["P(x)"] * n) + ")", (987, 988)),
    "forall": (lambda n: "forall y " * n + "P(x)", (983, 984)),
    "parens": (lambda n: "(" * n + "P(x)" + ")" * n, ()),
}
_DEPTHS = (300, 330, 490, 1000)
# how tests/test_cli_property.py splits a file into tokens and replaces one
_SYNTAX_TOKEN = re.compile(r"\w+|\s+|:=|->|<->|!=|\S")
_SYNTAX_REPLACEMENTS = ["(", ")", "{", "}", ";", ",", ".", ":", ":=", "->", "<->", "|", "&",
                        "not", "bot", "top", "forall", "exists", "And", "Or", "x", "P",
                        "P(x)", "c1", "f^1", "p/2", "0", "99", "level", "by", "axiom", "gen",
                        "\n", " ", ""]
# a token as hhtkit reads one, and what `spacing` puts between two
_SPACING_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z_][A-Za-z0-9_]*)*"
                            r"|<->|->|:=|!=|[0-9]+|\S")
_SPACINGS = [" ", "\t", "\r\n", "\f", "\u3000", "# comment\n", "\t# comment\r\n\u3000"]
_TIMINGS = re.compile(r'(?<=\[)\d+\.\d(?= ms\])|(?<=seconds": )[-+.\deE]+')


def _load_hhtkit(checkout: Path):
    """`hhtkit.cli` and `hhtkit.corpus` from `checkout/src`."""
    sys.path.insert(0, str(checkout / "src"))
    from hhtkit import cli, corpus

    if not Path(cli.__file__).resolve().is_relative_to(checkout):
        raise SystemExit(f"cli_snapshot: hhtkit was imported from {cli.__file__}, "
                         f"not from {checkout}")
    return cli, corpus


def _pair_argvs(data_path) -> dict[str, list[str]]:
    out = {}
    for fof in sorted(Path(data_path("")).glob("*.fof")):
        subst = fof.with_suffix(".subst")
        if not subst.is_file():
            continue
        for depth in ([], ["--depth", "1"], ["--depth", "2"]):
            for flag in ([], ["--json"]):
                argv = ["instantiate", str(fof), str(subst), *depth, *flag]
                out[" ".join(["pairs", fof.stem, *depth, *flag])] = argv
    return out


# a numbered proof line, and the sites of each kind of mutation in its
# justification: the two mp references, a formula binding's value, the
# gen-all binder
_PROOF_LINE = re.compile(r"(\d+): (.*) by (.*);$")
_MUTATION_SITES = {
    "mp": re.compile(r"^mp (\d+) (\d+)$"),
    "binding": re.compile(r"(?:with|,) [FGH] := (.*?)(?=, [\w-]+ := |$)"),
    "gen": re.compile(r"^gen-all \d+ (\w+)$"),
}
# an axiom line's first binding, `K := V`
_FIRST_BINDING = re.compile(r"^axiom [\w-]+ with (\w+ := .*?)(?=, \w+ := |$)")


def _mutate(text: str, rng: random.Random) -> dict[str, str]:
    """Label -> `text` with one proof line changed, two per kind of mutation
    where the proof has a site for it, and `repeat`: the first axiom line
    with a binding given its first binding twice."""
    lines = text.split("\n")
    numbered = [(i, m) for i, line in enumerate(lines) if (m := _PROOF_LINE.match(line))]
    formulas = sorted({m.group(2) for _, m in numbered})
    out = {}
    for kind, site in _MUTATION_SITES.items():
        sites = [(i, m, s) for i, m in numbered for s in site.finditer(m.group(3))]
        for k, (i, m, s) in enumerate(rng.sample(sites, min(2, len(sites)))):
            group = rng.randint(1, 2) if kind == "mp" else 1
            old = s.group(group)
            if kind == "mp":
                choices = [str(n) for n in range(1, int(m.group(1))) if str(n) != old]
            elif kind == "binding":
                choices = [f for f in formulas if f != old]
            else:
                choices = [v for v in ("x", "y", "z", "u") if v != old]
            if not choices:
                continue
            start, end = m.start(3) + s.start(group), m.start(3) + s.end(group)
            line = lines[i]
            mutated = lines[:i] + [line[:start] + rng.choice(choices) + line[end:]] + lines[i + 1:]
            out[f"{kind}{k + 1}"] = "\n".join(mutated)
    for i, m in numbered:
        if s := _FIRST_BINDING.match(m.group(3)):
            end = m.start(3) + s.end(1)
            lines[i] = f"{lines[i][:end]}, {s.group(1)}{lines[i][end:]}"
            out["repeat"] = "\n".join(lines)
            break
    return out


def _proof_argvs(data_path, workdir: str) -> dict[str, list[str]]:
    out = {}
    for proof in sorted(Path(data_path("")).glob("*.proof")):
        rng = random.Random(proof.stem)
        for label, text in _mutate(proof.read_text(encoding="utf-8"), rng).items():
            path = Path(workdir, f"{proof.stem}-{label}.proof")
            path.write_text(text, encoding="utf-8")
            for flag in ([], ["--json"]):
                argv = ["check-proof", str(path), *flag]
                out[" ".join(["proofs", proof.stem, label, *flag])] = argv
    return out


def _syntax_argvs(data_path, workdir: str) -> dict[str, list[str]]:
    data = Path(data_path(""))
    out = {}
    for path in sorted(data.glob("*")):
        suffix = path.suffix
        if suffix not in (".proof", ".prop", ".fof", ".subst"):
            continue
        rng = random.Random(path.name)
        tokens = _SYNTAX_TOKEN.findall(path.read_text(encoding="utf-8"))
        for k in range(3):
            mutated = list(tokens)
            mutated[rng.randrange(len(tokens))] = rng.choice(_SYNTAX_REPLACEMENTS)
            target = Path(workdir, f"syntax{k + 1}-{path.name}")
            target.write_text("".join(mutated), encoding="utf-8")
            if suffix == ".proof":
                argv = ["check-proof", str(target)]
            elif suffix == ".prop":
                argv = ["ht-valid", str(target)]
            else:
                partner = path.with_suffix(".subst" if suffix == ".fof" else ".fof")
                if not partner.is_file():
                    partner = data / f"subsum4{partner.suffix}"
                files = (target, partner) if suffix == ".fof" else (partner, target)
                argv = ["instantiate", *map(str, files)]
            for flag in ([], ["--json"]):
                out[" ".join(["syntax", path.name, f"mutation{k + 1}", *flag])] = argv + flag
    return out


def _spacing_argvs(data_path, workdir: str) -> dict[str, list[str]]:
    out = {}
    for proof in sorted(Path(data_path("")).glob("*.proof")):
        rng = random.Random(proof.stem)
        text = proof.read_text(encoding="utf-8")
        # each gap between two tokens: glued as it was, or a drawn spacing
        pieces = []
        for m in _SPACING_TOKEN.finditer(text):
            glued = m.start() == 0 or not text[m.start() - 1].isspace()
            if pieces and not (glued and rng.random() < 0.5):
                pieces.append(rng.choice(_SPACINGS))
            pieces.append(m.group())
        path = Path(workdir, f"spacing-{proof.name}")
        path.write_text("".join(pieces) + rng.choice(_SPACINGS), encoding="utf-8")
        for flag in ([], ["--json"]):
            out[" ".join(["spacing", proof.stem, *flag])] = ["check-proof", str(path), *flag]
    return out


def _limit_argvs(workdir: str) -> dict[str, list[str]]:
    files = dict(_LIMIT_FOFS)
    for k in (9, 10):
        case = workloads.example6_case(random.Random(1), k)
        files[f"example6-k{k}.prop"] = case.json["instance"] + "\n"
    out = {}
    for name, text in files.items():
        path = Path(workdir, name)
        path.write_text(text, encoding="utf-8")
        command = "ht-valid" if name.endswith(".prop") else "herbrand-check"
        for flag in ([], ["--json"]):
            out[" ".join(["limits", name, *flag])] = [command, str(path), *flag]
    return out


def _capture_argvs(workdir: str) -> dict[str, list[str]]:
    out = {}
    for schema, line in _CAPTURE_LINES.items():
        path = Path(workdir, f"capture-{schema}.proof")
        path.write_text(_CAPTURE_HEADER + line + "\n", encoding="utf-8")
        for flag in ([], ["--json"]):
            out[" ".join(["captures", schema, *flag])] = ["check-proof", str(path), *flag]
    return out


def _depth_argvs(workdir: str) -> dict[str, list[str]]:
    out = {}
    for shape, (body, bounds) in _DEPTH_SHAPES.items():
        for n in sorted({*_DEPTHS, *bounds}):
            f = body(n)
            line = (f"1: forall x {f} -> {f.replace('P(x)', 'P(a)')} by axiom forall-elim "
                    f"with x := x, F := {f}, t := a;")
            path = Path(workdir, f"depth-{shape}{n}.proof")
            path.write_text(f"const a.  pred P/1.\nlevel HHT;\n{line}\n", encoding="utf-8")
            for flag in ([], ["--json"]):
                out[" ".join(["depth", f"{shape}{n}", *flag])] = ["check-proof", str(path), *flag]
    return out


def _model_argvs(workdir: str) -> dict[str, list[str]]:
    out = {}
    for name, (options, text) in _MODEL_FOFS.items():
        path = Path(workdir, f"models-{name}.fof")
        path.write_text(text, encoding="utf-8")
        for flag in ([], ["--json"]):
            argv = ["herbrand-check", str(path), *options, *flag]
            out[" ".join(["models", name, *flag])] = argv
    return out


def _sharing_argvs(workdir: str) -> dict[str, list[str]]:
    subst = Path(workdir, "iff.subst")
    subst.write_text("const a.  pred P/0.\nP := p;\n", encoding="utf-8")
    out = {}
    for n in range(2, 13, 2):
        text = "P <-> P"
        for _ in range(n - 1):
            text = f"P <-> ({text})"
        path = Path(workdir, f"iff{n}.fof")
        path.write_text(f"const a.  pred P/0.\n{text}\n", encoding="utf-8")
        prop = Path(workdir, f"iff{n}.prop")
        prop.write_text(f"{text}\n", encoding="utf-8")
        for flag in ([], ["--json"]):
            argv = ["instantiate", str(path), str(subst), *flag]
            out[" ".join(["sharing", f"iff{n}", "instantiate", *flag])] = argv
            out[" ".join(["sharing", f"iff{n}", "ht-valid", *flag])] = ["ht-valid", str(prop),
                                                                          *flag]
        out[f"sharing iff{n} herbrand-check"] = ["herbrand-check", str(path)]
    return out


# an entry or default line of a `.subst` file: `default`, the predicate, the image
_SUBST_LINE = re.compile(r"(default )?([A-Za-z_]\w*).* := (.*);$")
_SHARED_IMAGE = "(u -> v) & not w"


def _image_variants(text: str) -> dict[str, str]:
    """Label -> `text` with its images rewritten (see `images` in the module
    docstring)."""
    header, *lines = text.rstrip("\n").split("\n")
    found = re.search(r"restrictor ([^.]*)\.", header)
    restrictors = [r.split("/")[0].strip() for r in found.group(1).split(",")] if found else []
    parsed = [_SUBST_LINE.match(line) for line in lines]
    defaulted = {m.group(2) for m in parsed if m.group(1)}
    guard = [not m.group(1) and m.group(2) in restrictors for m in parsed]
    drop = next(i for i, m in enumerate(parsed) if not m.group(1) and m.group(2) not in defaulted)
    out = {"missing": lines[:drop] + lines[drop + 1:]}
    if restrictors:
        kept = [line for line, g in zip(lines, guard) if not g]
        for value in ("top", "bot"):
            out[f"default-{value}"] = kept + [f"default {r} := {value};" for r in restrictors]
        first = guard.index(True)
        out["restrictor-p"] = list(lines)
        out["restrictor-p"][first] = lines[first].rsplit(" := ", 1)[0] + " := p;"
    for label, image in (("shared", lambda m: _SHARED_IMAGE),
                         ("overlap", lambda m: f"{m.group(3)} | ({_SHARED_IMAGE})")):
        out[label] = [line if g else f"{line.rsplit(' := ', 1)[0]} := {image(m)};"
                      for line, m, g in zip(lines, parsed, guard)]
    return {label: "\n".join([header, *body]) + "\n" for label, body in out.items()}


def _image_argvs(data_path, workdir: str) -> dict[str, list[str]]:
    out = {}
    for subst in sorted(Path(data_path("")).glob("*.subst")):
        fof = subst.with_suffix(".fof")
        if not fof.is_file():
            proof = subst.with_suffix(".proof").read_text(encoding="utf-8").split("\n")
            last = [m for line in proof if (m := _PROOF_LINE.match(line))][-1]
            fof = Path(workdir, f"images-{subst.stem}.fof")
            fof.write_text(f"{proof[0]}\n{last.group(2)}\n", encoding="utf-8")
        for label, text in _image_variants(subst.read_text(encoding="utf-8")).items():
            path = Path(workdir, f"images-{subst.stem}-{label}.subst")
            path.write_text(text, encoding="utf-8")
            for depth in ([], ["--depth", "1"]):
                for flag in ([], ["--json"]):
                    argv = ["instantiate", str(fof), str(path), *depth, *flag]
                    out[" ".join(["images", subst.stem, label, *depth, *flag])] = argv
    return out


def _argvs(group: str, seed: int, corpus, workdir: str) -> dict[str, list[str]]:
    """Label -> argv for one workload and seed, with its inputs written."""
    if group == "pairs":
        return _pair_argvs(corpus.data_path)
    if group == "proofs":
        return _proof_argvs(corpus.data_path, workdir)
    if group == "syntax":
        return _syntax_argvs(corpus.data_path, workdir)
    if group == "spacing":
        return _spacing_argvs(corpus.data_path, workdir)
    if group == "limits":
        return _limit_argvs(workdir)
    if group == "captures":
        return _capture_argvs(workdir)
    if group == "depth":
        return _depth_argvs(workdir)
    if group == "sharing":
        return _sharing_argvs(workdir)
    if group == "models":
        return _model_argvs(workdir)
    if group == "images":
        return _image_argvs(corpus.data_path, workdir)
    if group == "corpus":
        cases = workloads.corpus(seed, corpus.cases, corpus.data_path)
    elif group == "herbrand":
        cases = workloads.herbrand(seed, corpus.data_path("excluded_middle.fof"))
    else:
        cases = getattr(workloads, group)(seed)
    out = {}
    for case in cases:
        for name, text in case.files.items():
            Path(workdir, name).write_text(text, encoding="utf-8")
        out[f"{group} seed{seed} {case.id}"] = [a.replace("{dir}", workdir) for a in case.argv]
    return out


def snapshot(checkout: Path, groups, seeds) -> dict[str, dict]:
    """Label -> masked record of every command line of `groups` and `seeds`,
    run against the hhtkit of the checkout at `checkout`."""
    checkout = checkout.resolve()
    cli, corpus = _load_hhtkit(checkout)
    records = {}
    with tempfile.TemporaryDirectory() as workdir:

        def mask(text: str) -> str:
            text = text.replace(workdir, "{dir}").replace(str(checkout), "{src}")
            return _TIMINGS.sub("N", text)

        for group in groups:
            for seed in seeds if group not in UNSEEDED else [None]:
                for label, argv in _argvs(group, seed, corpus, workdir).items():
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        try:
                            code = cli.run(list(argv))
                        except Exception as e:  # recorded, so a diff shows it
                            code = f"raised {type(e).__name__}: {e}"
                    records[label] = {
                        "argv": [mask(a) for a in argv],
                        "exit": code,
                        "stdout": mask(out.getvalue()),
                        "stderr": mask(err.getvalue()),
                    }
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path, help="root of the checkout to run")
    ap.add_argument("out", type=Path, help="JSON file to write")
    ap.add_argument("--workloads", nargs="+", choices=GROUPS,
                    default=list(GROUPS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)
    if not (args.checkout / "src" / "hhtkit").is_dir():
        print(f"cli_snapshot: {args.checkout} is not a checkout: expected "
              f"{args.checkout / 'src' / 'hhtkit'}", file=sys.stderr)
        return 2
    records = snapshot(args.checkout, args.workloads, args.seeds)
    args.out.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"{len(records)} command lines -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
