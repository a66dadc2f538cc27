import json
import os
import re
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

import cuntzfock
from cuntzfock import cli as cli_mod
from cuntzfock.cli import main
from cuntzfock.rep import RepSpace, State, apply_s
from cuntzfock.verify import SuiteReport
from cuntzfock.words import parse_letters


def run(*args):
    return CliRunner().invoke(main, args)


def test_map():
    res = run("map", "1^2 3")
    assert res.exit_code == 0
    assert "fermion : 1 2 5" in res.output
    assert "sqrt(2)" in res.output


def test_map_vacuum():
    res = run("map", "")
    assert res.exit_code == 0
    assert "fermion : (vacuum)" in res.output
    assert "coeff   : 1" in res.output


def test_map_check_and_json():
    res = run("map", "2 5", "--check", "--json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["fermion"] == [2, 6]
    assert data["coeff"]["terms"] == [{"radicand": 1, "num": 1, "den": 1}]


def test_map_parse_error_exit_2():
    assert run("map", "nope").exit_code == 2


def test_map_bounds_exit_3():
    assert run("map", "1^13").exit_code == 3


def test_map_and_table_mode_bound():
    assert run("map", "").exit_code == 0
    assert run("map", "16").exit_code == 0
    assert run("table", "-n", "1", "-m", "16").exit_code == 0
    assert run("map", "40").exit_code == 3
    assert run("table", "-n", "1", "-m", "40").exit_code == 3


def test_unmap():
    res = run("unmap", "1 2 4")
    assert res.exit_code == 0
    assert "boson   : 1^2 2" in res.output
    res = run("unmap", "7")
    assert "boson   : 7" in res.output
    res = run("unmap", "1 3 5")
    assert "boson   : 1 2 3" in res.output


def test_unmap_normal_orders_with_sign():
    res = run("unmap", "2 1")
    assert res.exit_code == 0
    assert "-" in res.output.splitlines()[-1]
    assert run("unmap", "1 1").exit_code == 2


def test_map_unmap_round_trip():
    res = run("map", "1^2 3", "--json")
    fermions = json.loads(res.output)["fermion"]
    res = run("unmap", " ".join(str(s) for s in fermions), "--json")
    assert json.loads(res.output)["boson"] == {
        "factors": [{"mode": 1, "mult": 2}, {"mode": 3, "mult": 1}]
    }


def test_table():
    res = run("table", "-n", "1", "-m", "3")
    body = res.output.strip().split("\n")
    assert len(body) == 4  # header + 3 rows
    res = run("table", "-n", "0")
    assert len(res.output.strip().split("\n")) == 2
    res = run("table", "-n", "3", "-m", "3", "--json")
    rows = json.loads(res.output)
    assert len(rows) == 10
    assert len({tuple(r["fermion"]) for r in rows}) == 10


def test_table_deterministic():
    a = run("table", "-n", "2", "-m", "4").output
    b = run("table", "-n", "2", "-m", "4").output
    assert a == b


def test_verify_pass_and_unknown():
    res = run("verify", "roundtrip", "--max-subset", "6", "--particles", "3")
    assert res.exit_code == 0
    assert "roundtrip: PASS" in res.output
    assert run("verify", "bogus").exit_code == 2


def test_verify_json():
    res = run("verify", "branch-boson", "-p", "2", "--json")
    assert res.exit_code == 0
    reports = json.loads(res.output)
    assert all(r["pass"] for r in reports)


# Case counts of the suites that no other test pins, at the CLI defaults
# (cuntz, ccr, car and oracle are pinned at their acceptance scale).
CLI_DEFAULT_CASES = {
    "branch-oinfty": 24,
    "branch-boson": 122,
    "branch-fermion": 826,
    "roundtrip": 8_953,
}


def test_verify_cli_default_case_counts():
    res = run("verify", *CLI_DEFAULT_CASES, "--json")
    assert res.exit_code == 0
    counts: dict[str, int] = {}
    for r in json.loads(res.output):
        assert r["pass"], r["failures"][:3]
        counts[r["suite"]] = counts.get(r["suite"], 0) + r["cases"]
    assert counts == CLI_DEFAULT_CASES


def test_verify_refusals_keep_their_exit_codes():
    # exit 1 is reserved for a failed verification
    assert run("verify", "ccr", "--modes", "17").exit_code == 3
    assert run("verify", "ccr", "--particles", "13").exit_code == 3
    assert run("verify", "oracle", "--dim", "1000").exit_code == 2


def test_verify_failure_exit_1(monkeypatch):
    failing = SuiteReport("rigged", cases=1, failures=[
        {"case": "x", "expected": "a", "got": "b"}
    ])
    monkeypatch.setitem(cli_mod._SUITES, "roundtrip", lambda o: [failing])
    res = run("verify", "roundtrip")
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_apply():
    res = run("apply", "b1* b1*")
    assert res.exit_code == 0
    assert "[sqrt(2)] 22(1)" in res.output
    res = run("apply", "t1 t2* a3", "--space", "21")
    assert res.exit_code == 0
    res = run("apply", "q9")
    assert res.exit_code == 2


def test_apply_mode_bound_exit_3():
    assert run("apply", "b16*").exit_code == 0
    assert run("apply", "b17*").exit_code == 3
    assert run("apply", "a17").exit_code == 3


def test_graph_words():
    res = run("graph", "--space", "1", "--depth", "1", "--label", "words")
    assert res.exit_code == 0
    assert 'label="t1"' in res.output
    assert res.output.count("->") == 2  # self loop plus one child


def test_graph_fermion_labels():
    res = run("graph", "--space", "1", "--depth", "2", "--label", "fermions")
    labels = [l.split('label="')[1].split('"')[0] for l in res.output.splitlines() if "label=" in l and "->" not in l]
    assert labels == ["Ω", "a1*Ω", "a2*Ω", "a1*a2*Ω"]


def test_graph_boson_labels():
    res = run("graph", "--space", "1", "--depth", "2", "--label", "bosons")
    assert "(b1*)^2Ω" in res.output
    assert "b2*Ω" in res.output


def test_graph_two_cycle():
    res = run("graph", "--space", "21", "--depth", "1")
    assert res.exit_code == 0
    assert 'label="(21)"' in res.output
    assert 'label="(12)"' in res.output


def test_graph_oinfty_self_loop():
    res = run("graph", "--space", "1", "--depth", "2", "--gens", "oinfty")
    assert 'label="s1"' in res.output


def test_graph_oinfty_edges_follow_s_m():
    depth = 3
    for space_word in ("1", "21"):
        res = run("graph", "--space", space_word, "--depth", str(depth), "--gens", "oinfty")
        assert res.exit_code == 0
        space = RepSpace(parse_letters(space_word))
        words = {w.render(): w for w in space.basis_words(depth)}
        names = dict(re.findall(r'^  (n\d+) \[label="([^"]*)"\];$', res.output, re.M))
        assert sorted(names.values()) == sorted(words)
        edges = set()
        for src, dst, m in re.findall(r'^  (n\d+) -> (n\d+) \[label="s(\d+)"\];$',
                                      res.output, re.M):
            edges.add((names[src], int(m), names[dst]))
        # the graph draws s_1 .. s_{depth+1} wherever the image stays in the tree
        expected = set()
        for label, w in words.items():
            for m in range(1, depth + 2):
                ((v, c),) = apply_s(m, State.basis(space, w)).items()
                assert c == 1
                if v.render() in words:
                    expected.add((label, m, v.render()))
        assert edges == expected


def test_graph_bounds():
    assert run("graph", "--space", "1211", "--depth", "1").exit_code == 3
    assert run("graph", "--space", "1", "--depth", "7").exit_code == 3


def test_graph_label_requires_tail1():
    assert run("graph", "--space", "21", "--label", "fermions").exit_code == 2


def test_cli_import_stays_light():
    """A cold `cuntzfock` call loads neither the float oracle's numeric stack nor a pool."""
    heavy = ("numpy", "scipy", "concurrent.futures")
    code = (
        "import sys, cuntzfock.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    # the child finds the package where this process found it, installed or not
    src = str(Path(cuntzfock.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == []
