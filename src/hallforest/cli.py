"""Command line entry points.

Subcommands generate coarse spaces, run the matching construction, derive
forests and wobbling pairs, and re-run the verification suites. Every
artifact is JSON with sorted keys (or DOT with sorted lines) and no
timestamps, so a rerun with the same arguments produces byte-identical
files. Exit status: 0 when every check passed, 1 when some check failed,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import NoReturn

from .forest import (
    Entourage,
    ForestFunction,
    TreeEntourage,
    check_expansion,
    verify_forest,
)
from .graph import is_A_reflected
from .matcher import verify_cycle_control
from .wobbling import EdgeLabeling, WobblingPair, verify_free_semiregular


def _write(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        _fail(f"cannot write {path}: {exc}")


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _write_dot(out: Path, name: str, fmt: str, header: str, *parts) -> None:
    """name.dot under --format dot: the header, each part's statements, "}".

    Parts are generators of statements (no indent or semicolon) over the
    JSON artifact's data; nothing is formatted unless the DOT file is written.
    """
    if fmt == "dot":
        lines = [f"{header} {{"]
        for part in parts:
            lines.extend(f"  {statement};" for statement in part)
        lines.append("}")
        _write(out / f"{name}.dot", "\n".join(lines) + "\n")


def _fail(message: str) -> NoReturn:
    """An input error: one line on stderr, exit 2."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _load_space(path: str):
    try:
        descriptor = json.loads(Path(path).read_text())
    except OSError as exc:
        _fail(f"cannot read space descriptor: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"space descriptor is not valid JSON: {exc}")
    if not isinstance(descriptor, dict):
        _fail(f"space descriptor must be a JSON object, got {json.dumps(descriptor)}")
    kind = descriptor.get("kind")
    if kind == "regular_tree":
        r = descriptor.get("r")
        if not isinstance(r, int) or r < 3:
            _fail(f"regular_tree needs an integer r >= 3, got {r!r}")
        return descriptor, TreeEntourage(r)
    _fail(f"unknown space kind: {kind!r}")


def _random_connected_subset(ent: Entourage, rng: random.Random, size: int, span: int) -> set[int]:
    blob = {rng.randrange(1, span + 1)}
    while len(blob) < size:
        options = sorted({w for v in blob for w in ent.section(v)} - blob)
        if not options:
            break
        blob.add(options[rng.randrange(len(options))])
    return blob


# -- report blocks of the cli's own checks; verify_* return theirs ------------


def _expansion_samples(ent: Entourage, factor: int, seed: int) -> dict:
    rng = random.Random(seed)
    failures = []
    samples = 0
    for size in range(1, 9):
        for _ in range(12):
            blob = _random_connected_subset(ent, rng, size, span=120)
            samples += 1
            res = check_expansion(ent, blob, factor)
            if not res.ok:
                failures.append({
                    "subset": sorted(blob),
                    "image_size": res.image_size,
                    "required": res.required,
                })
    return {"factor": factor, "samples": samples, "ok": not failures, "failures": failures}


def _reflected_block(forest: ForestFunction, n: int) -> dict:
    matcher = forest.matcher
    upto = min(n, 40)
    numbers = range(1, upto + 1)  # the only ones is_A_reflected reads
    ok = is_A_reflected(matcher.graph, upto, set(filter(matcher.a_removed, numbers)),
                        set(filter(matcher.b_removed, numbers)))
    return {"ok": ok, "range": upto}


# -- commands ------------------------------------------------------------------
# Each command past gen-tree writes its own artifacts and returns the fields and
# check blocks of its report.json, which main writes.


def cmd_gen_tree(args) -> int:
    out = Path(args.out)
    _write_json(out / "descriptor.json", {"kind": "regular_tree", "r": args.r})
    return 0


def cmd_match(args, out: Path, forest: ForestFunction) -> tuple[dict, dict]:
    matcher = forest.matcher
    pairs = sorted((matcher.f(b), b) for b in range(1, args.n + 1))
    _write_json(out / "matching.json", pairs)
    _write_dot(out, "matching", args.format, "graph matching",
               (f'"a{a}" [shape=circle]' for a in sorted({a for a, _ in pairs})),
               (f'"b{b}" [shape=box]' for b in sorted({b for _, b in pairs})),
               (f'"a{a}" -- "b{b}" [color=red, penwidth=2]' for a, b in pairs))
    _write(out / "checkpoint.json", matcher.checkpoint_json())
    checks = {
        "cycle_control": verify_cycle_control(matcher.f, args.n),
        "reflected": _reflected_block(forest, args.n),
        # the matching itself only needs one spare neighbor per point beyond
        # degree, hence the d+1 expansion level here
        "expansion": _expansion_samples(forest.entourage, args.d + 1, args.seed),
    }
    return {"command": "match", "d": args.d, "n": args.n, "steps": matcher.step}, checks


def cmd_forest(args, out: Path, forest: ForestFunction) -> tuple[dict, dict]:
    checks = {"forest": verify_forest(forest, args.n),
              "expansion": _expansion_samples(forest.entourage, args.d + 2, args.seed)}
    edges = [[v, forest.f_star(v)] for v in range(1, args.n + 1)]
    roots = list(forest.roots_up_to(args.n))
    _write_json(out / "forest.json", {"edges": edges, "roots": roots})
    _write_dot(out, "forest", args.format, "digraph forest",
               (f'"{root}" [shape=doublecircle]' for root in roots),
               (f'"{v}" -> "{w}"' for v, w in edges))
    return {"command": "forest", "d": args.d, "n": args.n}, checks


def cmd_wobble(args, out: Path, forest: ForestFunction) -> tuple[dict, dict]:
    pair = WobblingPair(EdgeLabeling(forest))
    checks = {"wobbling": verify_free_semiregular(pair, args.word_len, args.n),
              "expansion": _expansion_samples(forest.entourage, 6, args.seed)}
    labels = {str(v): list(pair.labeling.directions(v)) for v in range(1, args.n + 1)}
    _write_json(out / "wobble.json", labels)
    # directions are listed a+, a-, b+, b-: alpha is the first, beta the third
    _write_dot(out, "wobble", args.format, "digraph wobbling",
               (f'"{v}" -> "{dirs[0]}" [label="a"]' for v, dirs in labels.items()),
               (f'"{v}" -> "{dirs[2]}" [label="b"]' for v, dirs in labels.items()))
    return {"command": "wobble", "n": args.n, "word_len": args.word_len}, checks


def cmd_verify(args, out: Path, forest: ForestFunction) -> tuple[dict, dict]:
    checks = {
        "cycle_control": verify_cycle_control(forest.matcher.f, args.n),
        "forest": verify_forest(forest, args.n),
        "expansion_match": _expansion_samples(forest.entourage, args.d + 1, args.seed),
        "expansion_forest": _expansion_samples(forest.entourage, args.d + 2, args.seed + 1),
    }
    if args.d == 4:
        pair = WobblingPair(EdgeLabeling(forest))
        checks["wobbling"] = verify_free_semiregular(pair, args.word_len, min(args.n, 24))
    else:
        checks["wobbling"] = {"ok": True, "skipped": f"needs d=4, ran with d={args.d}"}
    checks["reflected"] = _reflected_block(forest, args.n)
    _write(out / "checkpoint.json", forest.matcher.checkpoint_json())
    fields = {"command": "verify", "d": args.d, "n": args.n, "seed": args.seed,
              "word_len": args.word_len}
    return fields, checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hallforest",
        description="matchings with cycle control, regular forests, wobbling pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-tree", help="write a regular-tree space descriptor")
    p.add_argument("--r", type=int, required=True, help="tree degree, at least 3")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_gen_tree)

    def space_command(name: str, about: str, fn, dot: bool = True, **defaults):
        """A command that reads --space; dot adds --format."""
        p = sub.add_parser(name, help=about)
        p.add_argument("--space", required=True, help="path to a space descriptor")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=7, help="seed for sampled checks")
        if dot:
            p.add_argument("--format", choices=("json", "dot"), default="json",
                           help="also emit DOT next to the JSON artifacts")
        p.set_defaults(fn=fn, **defaults)
        return p

    p = space_command("match", "run the matching construction and its checks", cmd_match)
    p.add_argument("--d", type=int, required=True, help="each point gets d-1 partners")
    p.add_argument("--n", type=int, default=60, help="settle the matching on 1..n")

    p = space_command("forest", "derive the d-regular forest and verify it", cmd_forest)
    p.add_argument("--d", type=int, required=True, help="forest degree")
    p.add_argument("--n", type=int, default=60, help="verify on 1..n")

    # the wobbling pair needs a 4-regular forest
    p = space_command("wobble", "derive the permutation pair and verify freeness", cmd_wobble, d=4)
    p.add_argument("--n", type=int, default=60, help="check points 1..n")
    p.add_argument("--word-len", type=int, default=2, help="reduced word length bound")

    p = space_command("verify", "full deterministic verification suite", cmd_verify, dot=False)
    p.add_argument("--d", type=int, default=4, help="construction degree")
    p.add_argument("--n", type=int, default=40, help="verify on 1..n")
    p.add_argument("--word-len", type=int, default=2, help="reduced word length bound")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "r", None) is not None and args.command == "gen-tree" and args.r < 3:
        parser.error("--r must be at least 3")
    if getattr(args, "d", None) is not None and args.d < 3:
        parser.error("--d must be at least 3")
    if getattr(args, "n", None) is not None and args.n < 1:
        parser.error("--n must be positive")
    if getattr(args, "word_len", None) is not None and args.word_len < 1:
        parser.error("--word-len must be positive")
    if args.command == "gen-tree":
        return args.fn(args)
    # every command past gen-tree reads a space, loaded once, and runs on one construction
    descriptor, ent = _load_space(args.space)
    out = Path(args.out)
    try:
        try:
            forest = ForestFunction(ent, args.d)
        except ValueError as exc:  # a host the matcher rejects is an input error
            _fail(f"space cannot carry the construction: {exc}")
        fields, checks = args.fn(args, out, forest)
        ok = all(block["ok"] for block in checks.values())
        _write_json(out / "report.json", {**fields, "ok": ok, "space": descriptor, "checks": checks})
    except MemoryError:
        # such as the first ball of a tree whose degree runs to the hundred thousands
        _fail("space cannot carry the construction: out of memory")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
