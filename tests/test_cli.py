"""End-to-end command line runs against temporary output directories."""

from __future__ import annotations

import hashlib
import json

import pytest

from hallforest import (
    EdgeLabeling,
    ForestFunction,
    TreeEntourage,
    WobblingPair,
    cli,
    verify_cycle_control,
    verify_forest,
    verify_free_semiregular,
)

from test_matcher import run_python


def run(*args) -> int:
    return cli.main([str(a) for a in args])


@pytest.fixture()
def tree6_space(tmp_path):
    assert run("gen-tree", "--r", 6, "--out", tmp_path) == 0
    return tmp_path / "descriptor.json"


@pytest.fixture()
def tree7_space(tmp_path):
    assert run("gen-tree", "--r", 7, "--out", tmp_path / "t7") == 0
    return tmp_path / "t7" / "descriptor.json"


def test_gen_tree_writes_exact_descriptor(tmp_path):
    assert run("gen-tree", "--r", 6, "--out", tmp_path) == 0
    raw = (tmp_path / "descriptor.json").read_text()
    assert raw == '{"kind":"regular_tree","r":6}\n'


def test_gen_tree_rejects_small_degree(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("gen-tree", "--r", 2, "--out", tmp_path)
    assert exc.value.code == 2


def test_match_command(tree6_space, tmp_path):
    out = tmp_path / "match"
    assert run("match", "--space", tree6_space, "--d", 4, "--n", 50,
               "--out", out, "--format", "dot") == 0
    pairs = json.loads((out / "matching.json").read_text())
    assert len(pairs) == 50
    assert sorted(b for _, b in pairs) == list(range(1, 51))
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["checks"]["cycle_control"]["ok"] is True
    assert report["checks"]["reflected"] == {"ok": True, "range": 40}
    assert report["checks"]["expansion"]["ok"] is True
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    committed = {(a, b) for a, b in checkpoint["committed"]}
    assert {(a, b) for a, b in pairs} <= committed
    assert (out / "matching.dot").read_text().startswith("graph")


def test_forest_command(tree6_space, tmp_path):
    out = tmp_path / "forest"
    assert run("forest", "--space", tree6_space, "--d", 3, "--n", 100,
               "--out", out) == 0
    payload = json.loads((out / "forest.json").read_text())
    assert set(payload) == {"edges", "roots"}
    assert len(payload["edges"]) == 100
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["checks"]["forest"]["violations"] == []
    assert not (out / "forest.dot").exists()  # only written under --format dot


def test_forest_command_on_wider_tree(tree7_space, tmp_path):
    out = tmp_path / "forest7"
    assert run("forest", "--space", tree7_space, "--d", 4, "--n", 20,
               "--out", out, "--format", "dot") == 0
    assert (out / "forest.dot").read_text().startswith("digraph")


def test_wobble_command(tree7_space, tmp_path):
    out = tmp_path / "wobble"
    assert run("wobble", "--space", tree7_space, "--n", 20, "--word-len", 2,
               "--out", out) == 0
    payload = json.loads((out / "wobble.json").read_text())
    assert set(payload) == {str(n) for n in range(1, 21)}
    assert payload["1"] == [2, 3, 4, 15]
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert report["checks"]["wobbling"]["words_checked"] == 16


def test_verify_reruns_are_byte_identical(tree7_space, tmp_path):
    first, second = tmp_path / "v1", tmp_path / "v2"
    for out in (first, second):
        assert run("verify", "--space", tree7_space, "--d", 4, "--n", 20,
                   "--word-len", 1, "--seed", 7, "--out", out) == 0
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    assert (first / "checkpoint.json").read_bytes() == (second / "checkpoint.json").read_bytes()
    report = json.loads((first / "report.json").read_text())
    assert report["ok"] is True
    assert set(report["checks"]) == {
        "cycle_control", "forest", "expansion_match", "expansion_forest",
        "wobbling", "reflected"}


def test_each_check_returns_its_report_block(tree7_space, tmp_path):
    # main stores each check's return value in report.json unchanged
    assert run("verify", "--space", tree7_space, "--d", 4, "--n", 12,
               "--word-len", 1, "--out", tmp_path / "v") == 0
    checks = json.loads((tmp_path / "v" / "report.json").read_text())["checks"]
    forest = ForestFunction(TreeEntourage(7), 4)
    assert verify_cycle_control(forest.matcher.f, 12) == checks["cycle_control"]
    assert verify_forest(forest, 12) == checks["forest"]
    pair = WobblingPair(EdgeLabeling(forest))
    assert verify_free_semiregular(pair, 1, 12) == checks["wobbling"]


# sha256 of every file each run writes, recorded before the CLI was reduced
# to one report pipeline; a refactor must leave every byte in place
PINNED_RUNS = {
    "match": (6, ["match", "--d", 4, "--n", 50, "--format", "dot"], {
        "checkpoint.json": "c61910d6ab4a043ac541d1075f7acff9837f5da84c386076cbbf244b6e805317",
        "matching.dot": "edea9ce65222ff28de083372c3c8ce6041a69f085ca96f75da327a3ed9b163e1",
        "matching.json": "d994b7ef2f8dd996d47a2dd73c6390fadd1113de96bfa9b867a6d95139368c47",
        "report.json": "48d18a775105ac69465bc8185d9475c44d0114c7d3e0a29b9d280d5e39b6fd9a",
    }),
    "forest": (6, ["forest", "--d", 3, "--n", 100, "--format", "dot"], {
        "forest.dot": "8da5a7f2ff07cd86c0d2eb1eb7b2569e9e60c79f53997436e6f1dbedda7ddbc9",
        "forest.json": "d167fdcb9dacc0574051b73d2df5c2e60f6c83c58e98704cc67122096072ad15",
        "report.json": "594b0d78bce5ffac50df33ace95002fa8effa252e1fb640466af6306373fc5df",
    }),
    "wobble": (7, ["wobble", "--n", 20, "--word-len", 2, "--format", "dot"], {
        "report.json": "520dca9453fdfd971caa4640a668024d62d1d90cfc74126e796610d96c377dbd",
        "wobble.dot": "e08c44df7b15a90be4303f3eeb735415909f5fd803292dd470a42f0127965edd",
        "wobble.json": "84752fe3c766d524466c52a2f97c317773b099ca574185a1519bd3a50a99dbd3",
    }),
    "verify": (7, ["verify", "--d", 4, "--n", 20, "--word-len", 1], {
        "checkpoint.json": "150d0bef255cfcc70ed4d759f9a1fa8b7368ac2248516815cbe3e4284f839964",
        "report.json": "a1c6a0241b87147eba17d66d7ecf4900abb8bc87158bce5861b2d93134088132",
    }),
    # word length 5 forces no step beyond word length 2: the same checkpoint
    # as the verify_tree7 benchmark gate
    "verify_wl5": (7, ["verify", "--d", 4, "--n", 40, "--word-len", 5], {
        "checkpoint.json": "b5440f45b348239c226efc3dc50ea110757e87325fefb51e92b5d5ce01b826fe",
        "report.json": "76c247837e0c9f5452ffed26bb371a41d18966b585a644ae5eaac1006d7aa86e",
    }),
    "verify_d3": (6, ["verify", "--d", 3, "--n", 12], {
        "checkpoint.json": "362b3eb33b872e1f04ae7bedb9121a312fd4ff962f2ca8ab223db275443342ad",
        "report.json": "9c65c79a2d68490c2d734a023211f942cfd853c4fb6c34b66c1d4183cdc13f7d",
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_artifact_bytes_are_pinned(tmp_path, name):
    r, argv, want = PINNED_RUNS[name]
    assert run("gen-tree", "--r", r, "--out", tmp_path) == 0
    out = tmp_path / "out"
    assert run(argv[0], "--space", tmp_path / "descriptor.json", *argv[1:], "--out", out) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == want


def test_verify_skips_wobbling_off_degree_four(tree6_space, tmp_path):
    out = tmp_path / "v3"
    assert run("verify", "--space", tree6_space, "--d", 3, "--n", 12,
               "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True
    assert "skipped" in report["checks"]["wobbling"]


def test_missing_space_file(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("match", "--space", tmp_path / "nope.json", "--d", 4, "--out", tmp_path)
    assert exc.value.code == 2


def test_unreadable_space_descriptor(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        run("forest", "--space", bad, "--d", 3, "--out", tmp_path)
    assert exc.value.code == 2
    strange = tmp_path / "strange.json"
    strange.write_text('{"kind":"torus"}')
    with pytest.raises(SystemExit) as exc:
        run("forest", "--space", strange, "--d", 3, "--out", tmp_path)
    assert exc.value.code == 2
    # valid JSON that is not an object: one stderr line, no traceback
    for text in ("[]", "7", '"x"', "null"):
        strange.write_text(text)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run("forest", "--space", strange, "--d", 3, "--out", tmp_path)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be a JSON object" in err


@pytest.mark.parametrize("command", ["wobble", "verify"])
def test_rejects_word_length_below_one(tree7_space, tmp_path, command):
    for word_len in (0, -2):
        with pytest.raises(SystemExit) as exc:
            run(command, "--space", tree7_space, "--n", 4, "--word-len", word_len,
                "--out", tmp_path / "out")
        assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_rejects_degree_below_three(tree6_space, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("match", "--space", tree6_space, "--d", 2, "--out", tmp_path)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [
    ["match", "--d", 4],
    ["forest", "--d", 4],
    ["wobble"],
    ["verify", "--d", 4],
])
def test_host_below_the_degree_exits_two(tmp_path, capsys, command):
    # tree3 has degree 3, short of the d + 1 = 5 the matcher needs
    assert run("gen-tree", "--r", 3, "--out", tmp_path) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(command[0], "--space", tmp_path / "descriptor.json", *command[1:],
            "--out", tmp_path / "out")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "has degree 3 < 5" in err
    assert not (tmp_path / "out").exists()


def test_unwritable_out_exits_two(tree7_space, tmp_path, capsys):
    # a file where --out needs a directory: one stderr line, no traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    capsys.readouterr()
    for argv in (["gen-tree", "--r", 7, "--out", blocker / "x"],
                 ["verify", "--space", tree7_space, "--n", 4, "--word-len", 1, "--out", blocker]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"cannot write {blocker}")
    assert blocker.read_text() == ""


def test_a_space_whose_ball_outgrows_memory_exits_two(tmp_path):
    # The first ball on the degree-100,000 tree reads the 100,000-number
    # sections of vertex 1's 100,000 neighbors. Under the child's 600 MB
    # address-space cap it runs out of memory within about two seconds.
    assert run("gen-tree", "--r", 100_000, "--out", tmp_path) == 0
    script = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 6 * 10**8 if hard == resource.RLIM_INFINITY else min(6 * 10**8, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from hallforest.cli import main\n"
        f"sys.exit(main(['match', '--space', {str(tmp_path / 'descriptor.json')!r}, '--d', '4',\n"
        f"               '--out', {str(tmp_path / 'out')!r}]))\n")
    child = run_python(script)
    assert child.returncode == 2, child.stderr
    assert child.stderr == "space cannot carry the construction: out of memory\n"
    assert not (tmp_path / "out").exists()
