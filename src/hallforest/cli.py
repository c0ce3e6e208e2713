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

from .forest import (
    Entourage,
    ForestFunction,
    TreeEntourage,
    check_expansion,
    double_graph,
    forest_to_dot,
    forest_to_json,
    verify_forest,
)
from .graph import is_A_reflected
from .hall import HallWitness, Matching
from .matcher import HaremMatcher, verify_cycle_control
from .wobbling import build_wobbling_pair, verify_free_semiregular, wobble_to_dot, wobble_to_json


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _load_space(path: str):
    try:
        descriptor = json.loads(Path(path).read_text())
    except OSError as exc:
        print(f"cannot read space descriptor: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except json.JSONDecodeError as exc:
        print(f"space descriptor is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(2)
    kind = descriptor.get("kind")
    if kind == "regular_tree":
        r = descriptor.get("r")
        if not isinstance(r, int) or r < 3:
            print(f"regular_tree needs an integer r >= 3, got {r!r}", file=sys.stderr)
            raise SystemExit(2)
        return descriptor, TreeEntourage(r)
    print(f"unknown space kind: {kind!r}", file=sys.stderr)
    raise SystemExit(2)


def _build(make, *args):
    """make(*args); a host the matcher rejects is an input error (exit 2)."""
    try:
        return make(*args)
    except ValueError as exc:
        print(f"space cannot carry the construction: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _random_connected_subset(ent: Entourage, rng: random.Random, size: int, span: int) -> set[int]:
    blob = {rng.randrange(1, span + 1)}
    while len(blob) < size:
        options = sorted({w for v in blob for w in ent.section(v)} - blob)
        if not options:
            break
        blob.add(options[rng.randrange(len(options))])
    return blob


def _expansion_samples(ent: Entourage, factor: int, seed: int, per_size: int = 12) -> dict:
    rng = random.Random(seed)
    failures = []
    samples = 0
    for size in range(1, 9):
        for _ in range(per_size):
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


def cmd_gen_tree(args) -> int:
    out = Path(args.out)
    _write_json(out / "descriptor.json", {"kind": "regular_tree", "r": args.r})
    return 0


def cmd_match(args) -> int:
    descriptor, ent = _load_space(args.space)
    out = Path(args.out)
    host = double_graph(ent)
    matcher = _build(HaremMatcher, host, args.d, HallWitness.identity())
    pairs = [(matcher.f(b), b) for b in range(1, args.n + 1)]
    matching = Matching(pairs)
    _write(out / "matching.json", matching.to_json())
    _write(out / "checkpoint.json", matcher.checkpoint_json())
    if args.format == "dot":
        _write(out / "matching.dot", matching.to_dot())
    cc = verify_cycle_control(matcher.f, args.n)
    reflected_range = min(args.n, 40)
    reflected = is_A_reflected(
        host, reflected_range, matcher.removed_a_set(), matcher.removed_b_set())
    # the matching itself only needs one spare neighbor per point beyond
    # degree, hence the d+1 expansion level here
    expansion = _expansion_samples(ent, args.d + 1, args.seed)
    ok = cc.ok and reflected and expansion["ok"]
    report = {
        "command": "match",
        "d": args.d,
        "n": args.n,
        "ok": ok,
        "space": descriptor,
        "steps": matcher.step,
        "checks": {
            "cycle_control": {
                "ok": cc.ok,
                "upto": cc.upto,
                "periodic": len(cc.periodic),
                "transient": len(cc.transient),
                "violations": cc.violations,
            },
            "reflected": {"ok": reflected, "range": reflected_range},
            "expansion": expansion,
        },
    }
    _write_json(out / "report.json", report)
    return 0 if ok else 1


def cmd_forest(args) -> int:
    descriptor, ent = _load_space(args.space)
    out = Path(args.out)
    forest = _build(ForestFunction, ent, args.d)
    rep = verify_forest(forest, args.n)
    _write(out / "forest.json", forest_to_json(forest, args.n))
    if args.format == "dot":
        _write(out / "forest.dot", forest_to_dot(forest, args.n))
    expansion = _expansion_samples(ent, args.d + 2, args.seed)
    ok = rep.ok and expansion["ok"]
    report = {
        "command": "forest",
        "d": args.d,
        "n": args.n,
        "ok": ok,
        "space": descriptor,
        "checks": {
            "forest": {
                "ok": rep.ok,
                "upto": rep.upto,
                "preimage_upto": rep.preimage_upto,
                "violations": rep.violations,
            },
            "expansion": expansion,
        },
    }
    _write_json(out / "report.json", report)
    return 0 if ok else 1


def cmd_wobble(args) -> int:
    descriptor, ent = _load_space(args.space)
    out = Path(args.out)
    forest = _build(ForestFunction, ent, 4)
    pair = build_wobbling_pair(forest)
    rep = verify_free_semiregular(pair, args.word_len, args.n)
    _write(out / "wobble.json", wobble_to_json(pair, args.n))
    if args.format == "dot":
        _write(out / "wobble.dot", wobble_to_dot(pair, args.n))
    expansion = _expansion_samples(ent, 6, args.seed)
    ok = rep.ok and expansion["ok"]
    report = {
        "command": "wobble",
        "n": args.n,
        "ok": ok,
        "space": descriptor,
        "word_len": args.word_len,
        "checks": {
            "wobbling": {
                "ok": rep.ok,
                "upto": rep.upto,
                "word_len": rep.word_len,
                "words_checked": rep.words_checked,
                "points_checked": rep.points_checked,
                "violations": rep.violations,
            },
            "expansion": expansion,
        },
    }
    _write_json(out / "report.json", report)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    descriptor, ent = _load_space(args.space)
    out = Path(args.out)
    forest = _build(ForestFunction, ent, args.d)
    matcher = forest.matcher
    cc = verify_cycle_control(matcher.f, args.n)
    frep = verify_forest(forest, args.n, preimage_upto=min(args.n, 60))
    checks = {
        "cycle_control": {
            "ok": cc.ok,
            "upto": cc.upto,
            "periodic": len(cc.periodic),
            "transient": len(cc.transient),
            "violations": cc.violations,
        },
        "forest": {
            "ok": frep.ok,
            "upto": frep.upto,
            "preimage_upto": frep.preimage_upto,
            "violations": frep.violations,
        },
        "expansion_match": _expansion_samples(ent, args.d + 1, args.seed),
        "expansion_forest": _expansion_samples(ent, args.d + 2, args.seed + 1),
    }
    ok = cc.ok and frep.ok and checks["expansion_match"]["ok"] and checks["expansion_forest"]["ok"]
    if args.d == 4:
        wob_upto = min(args.n, 24)
        pair = build_wobbling_pair(forest)
        wrep = verify_free_semiregular(pair, args.word_len, wob_upto)
        checks["wobbling"] = {
            "ok": wrep.ok,
            "upto": wrep.upto,
            "word_len": wrep.word_len,
            "words_checked": wrep.words_checked,
            "points_checked": wrep.points_checked,
            "violations": wrep.violations,
        }
        ok = ok and wrep.ok
    else:
        checks["wobbling"] = {"ok": True, "skipped": f"needs d=4, ran with d={args.d}"}
    reflected_range = min(args.n, 40)
    reflected = is_A_reflected(
        forest.matcher.graph, reflected_range,
        matcher.removed_a_set(), matcher.removed_b_set())
    checks["reflected"] = {"ok": reflected, "range": reflected_range}
    ok = ok and reflected
    report = {
        "command": "verify",
        "d": args.d,
        "n": args.n,
        "ok": ok,
        "seed": args.seed,
        "space": descriptor,
        "word_len": args.word_len,
        "checks": checks,
    }
    _write_json(out / "report.json", report)
    _write(out / "checkpoint.json", matcher.checkpoint_json())
    return 0 if ok else 1


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

    common = {
        "--space": dict(required=True, help="path to a space descriptor"),
        "--out": dict(default=".", help="output directory"),
        "--seed": dict(type=int, default=7, help="seed for sampled checks"),
        "--format": dict(choices=("json", "dot"), default="json",
                         help="also emit DOT next to the JSON artifacts"),
    }

    p = sub.add_parser("match", help="run the matching construction and its checks")
    for flag, kw in common.items():
        p.add_argument(flag, **kw)
    p.add_argument("--d", type=int, required=True, help="each point gets d-1 partners")
    p.add_argument("--n", type=int, default=60, help="settle the matching on 1..n")
    p.set_defaults(fn=cmd_match)

    p = sub.add_parser("forest", help="derive the d-regular forest and verify it")
    for flag, kw in common.items():
        p.add_argument(flag, **kw)
    p.add_argument("--d", type=int, required=True, help="forest degree")
    p.add_argument("--n", type=int, default=60, help="verify on 1..n")
    p.set_defaults(fn=cmd_forest)

    p = sub.add_parser("wobble", help="derive the permutation pair and verify freeness")
    for flag, kw in common.items():
        p.add_argument(flag, **kw)
    p.add_argument("--n", type=int, default=60, help="check points 1..n")
    p.add_argument("--word-len", type=int, default=2, help="reduced word length bound")
    p.set_defaults(fn=cmd_wobble)

    p = sub.add_parser("verify", help="full deterministic verification suite")
    for flag, kw in common.items():
        if flag == "--format":
            continue
        p.add_argument(flag, **kw)
    p.add_argument("--d", type=int, default=4, help="construction degree")
    p.add_argument("--n", type=int, default=40, help="verify on 1..n")
    p.add_argument("--word-len", type=int, default=2, help="reduced word length bound")
    p.set_defaults(fn=cmd_verify)

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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
