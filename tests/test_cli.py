"""End-to-end command line runs against temporary output directories."""

from __future__ import annotations

import json

import pytest

from hallforest import cli


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


def test_unreadable_space_descriptor(tmp_path):
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
