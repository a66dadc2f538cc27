import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import cuntzfock
from cuntzfock import cli as cli_mod
from cuntzfock.cli import main
from cuntzfock.ladder import BoundsError, parse_boson_expr
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
    assert run("unmap", " ".join(str(n) for n in range(1, 14))).exit_code == 3


def test_map_refuses_a_huge_multiplicity_without_expanding_it():
    # a parser that expands 1^k into k modes fails here, before the
    # billion-mode case below would allocate gigabytes
    with pytest.raises(BoundsError):
        parse_boson_expr("1^13")
    assert run("map", "1^1000000000").exit_code == 3


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


def test_table_format_option_is_gone():
    # --json is the one way to ask for JSON
    assert run("table", "-n", "2", "-f", "json").exit_code == 2
    assert run("table", "-n", "2", "--format", "json").exit_code == 2


def test_table_max_mode_floor_exit_2():
    # below 1 no mode is left, and the table would be an empty success
    for m in ("0", "-3"):
        assert run("table", "-n", "2", "-m", m).exit_code == 2
        assert run("table", "-n", "2", "-m", m, "--json").exit_code == 2
    res = run("table", "-n", "2", "-m", "1")
    assert res.exit_code == 0 and res.output.count("\n") == 2


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


# Case counts and the sha256 of `verify all --json` at the CLI defaults.  A
# change to the output of `verify` has to update the pin on purpose.
CLI_DEFAULT_CASES = {
    "cuntz": 45_056,
    "ccr": 15_750,
    "car": 3_233,
    "oracle": 18_535,
    "branch-oinfty": 24,
    "branch-boson": 122,
    "branch-fermion": 826,
    "roundtrip": 8_953,
}


CLI_DEFAULT_SHA256 = "149b9acf392b2be40021f8d4fdaa114353dee3f92d14d7f6d666453a3b6e52ac"


def test_cli_default_cases_match_the_benchmark_pin():
    """The benchmark pins the same counts; both pins are read, neither is edited."""
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    (pin,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(workloads.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["VERIFY_CASES"]
    ]
    assert pin == CLI_DEFAULT_CASES


def test_verify_cli_default_case_counts():
    res = run("verify", "all", "--json")
    assert res.exit_code == 0
    counts: dict[str, int] = {}
    for r in json.loads(res.output):
        assert r["pass"], r["failures"][:3]
        counts[r["suite"]] = counts.get(r["suite"], 0) + r["cases"]
    assert counts == CLI_DEFAULT_CASES
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == CLI_DEFAULT_SHA256


# The sha256 of `verify all --json` at a deeper setting: depth 10, the
# oracle window at 4096 and 200 random sequences.
DEEP_ARGS = ("--depth", "10", "--dim", "4096", "--sequences", "200")
DEEP_SHA256 = "3bf1279d5d8c6614917266faa163ef6de15b25e1b095df19850320a7153505d9"


def test_verify_cli_deep_output_is_pinned():
    res = run("verify", "all", "--json", *DEEP_ARGS)
    assert res.exit_code == 0
    assert all(r["pass"] for r in json.loads(res.output))
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == DEEP_SHA256


# The sha256 of `verify ccr car --json` where the bracket range (--modes) is
# below and above ccr's transport range, which runs to mode 5 at any --modes.
NARROW_AND_WIDE_SHA256 = {
    ("--modes", "3", "--particles", "2"):
        "21a3c2e7cda17a12b72d378d77984817913ec4ba616ea301f184546e609dba5f",
    ("--modes", "7", "--particles", "3"):
        "6c556877424ed63b478695b7aa919a7106e5824e39e353d59e0af5b92351ff31",
}


@pytest.mark.parametrize("args", sorted(NARROW_AND_WIDE_SHA256))
def test_verify_ccr_car_output_is_pinned_off_the_transport_range(args):
    res = run("verify", "ccr", "car", "--json", *args)
    assert res.exit_code == 0
    assert all(r["pass"] for r in json.loads(res.output))
    assert hashlib.sha256(res.stdout_bytes).hexdigest() == NARROW_AND_WIDE_SHA256[args]


def test_verify_car_runs_at_the_mode_bound():
    # the transport t_i a_m = +-a_{m+1} t_i needs a_{m+1}, so it stops at m = 15
    res = run("verify", "car", "--modes", "16", "--particles", "1")
    assert res.exit_code == 0, res.output
    assert "car: PASS [14364 cases]" in res.output


def test_verify_refusals_keep_their_exit_codes():
    # exit 1 is reserved for a failed verification
    assert run("verify", "ccr", "--modes", "17").exit_code == 3
    assert run("verify", "ccr", "--particles", "13").exit_code == 3
    assert run("verify", "oracle", "--dim", "1000").exit_code == 2


def test_verify_oracle_small_dim_exits_2():
    # the suite's pipelines start at e_1..e_8, so a window below 8 is refused
    res = run("verify", "oracle", "--dim", "4")
    assert res.exit_code == 2
    assert "dim must be >= 8" in res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, not a crash


def test_verify_suite_bounds_exit_3_before_enumerating():
    # the first two would enumerate for seconds (ccr: about 30 million states) if
    # the bounds were checked only when the first monomial crossed them
    assert run("verify", "roundtrip", "--particles", "13").exit_code == 3
    assert run("verify", "ccr", "--modes", "16", "--particles", "13").exit_code == 3
    # car on 5 modes has no subset above 5 particles, yet 13 is still refused
    assert run("verify", "car", "--particles", "13").exit_code == 3


def test_verify_size_floors_exit_2():
    # below a floor a suite would run no case, or a meaningless one, and pass
    for suite, option, floor in (
        ("cuntz", "--depth", 0),
        ("branch-oinfty", "--depth", 0),
        ("ccr", "--particles", 0),
        ("oracle", "--sequences", 0),
        ("ccr", "--modes", 1),
        ("roundtrip", "--max-subset", 1),
        ("branch-boson", "-p", 1),
        ("branch-fermion", "--p-max", 1),
    ):
        assert run("verify", suite, option, str(floor - 1)).exit_code == 2, (suite, option)
        res = run("verify", suite, option, str(floor))
        assert res.exit_code == 0, (suite, option, res.output)


def test_verify_depth_bound_exit_3_before_enumerating(monkeypatch):
    def never(self, max_depth):
        raise AssertionError(f"basis words to depth {max_depth} built before the refusal")

    monkeypatch.setattr(RepSpace, "basis_words", never)
    for suite in ("cuntz", "branch-oinfty"):
        res = run("verify", suite, "--depth", "13")
        assert res.exit_code == 3, (suite, res.output)
        assert "depth 13 exceeds" in res.output


def test_verify_branch_oinfty_value_bound_exit_3():
    # each value sets the period of a space, and -p is held to the mode
    # bound, as the index of s_p is
    res = run("verify", "branch-oinfty", "-p", "17")
    assert res.exit_code == 3, res.output
    assert "mode 17 exceeds" in res.output


def test_verify_branch_boson_stops_at_p_3():
    # a larger -p is accepted, and the suite still checks p = 1, 2 and 3 only
    res = run("verify", "branch-boson", "-p", "6", "--json")
    assert res.exit_code == 0, res.output
    assert [r["params"]["p"] for r in json.loads(res.output)] == [1, 2, 3]


def test_verify_help_names_exactly_the_suite_table():
    from cuntzfock import verify

    res = run("verify", "--help")
    known = re.search(r"Known names: (.*?)\.\n", res.output, re.S).group(1)
    names = known.replace(",", " ").replace("`", "").split()
    names.remove("or")
    assert sorted(names) == sorted([*verify.SUITES, "all"])


def test_verify_roundtrip_max_subset_bound_exit_3():
    # --max-subset is held to the particle bound like --particles
    assert run("verify", "roundtrip", "--max-subset", "13").exit_code == 3
    assert run("verify", "roundtrip", "--max-subset", "40").exit_code == 3


def test_verify_refuses_every_bound_before_the_first_suite_runs(monkeypatch):
    # each bound here is read only by a suite after `cuntz`, the first one under `all`
    from cuntzfock import verify

    def never(**kwargs):
        raise AssertionError("cuntz ran before the refusal")

    monkeypatch.setattr(verify, "cuntz_suite", never)
    for args, code in (
        (("-p", "6"), 3),
        (("--dim", "3"), 2),
        (("--dim", "4"), 2),
        (("--modes", "17"), 3),
        (("--particles", "13"), 3),
        (("--max-subset", "13"), 3),
    ):
        res = run("verify", "all", *args)
        assert res.exit_code == code, (args, res.output)


def test_verify_failure_exit_1(monkeypatch):
    from cuntzfock import verify

    failing = SuiteReport("rigged", cases=1, failures=[
        {"case": "x", "expected": "a", "got": "b"}
    ])
    monkeypatch.setitem(verify.SUITES, "roundtrip", lambda o: [failing])
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


def test_apply_refuses_s_indices_before_applying(monkeypatch):
    assert run("apply", "s16").exit_code == 0

    def never(state, fn):
        raise AssertionError(f"{fn} applied before the word was refused")

    # s40000 alone would take seconds: each s_m prepends a block of length m
    monkeypatch.setattr(cli_mod, "map_basis", never)
    for word in ("s17", "s40000", "s40000* t1 b2"):
        res = run("apply", word)
        assert res.exit_code == 3, res.output


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


def test_graph_depth_floor_exit_2():
    # a negative depth has no tree of its own; it must not pass as depth 0
    assert run("graph", "--depth", "-5").exit_code == 2
    assert run("graph", "--depth", "-1").exit_code == 2
    assert run("graph", "--depth", "0").exit_code == 0


def test_graph_label_requires_tail1():
    assert run("graph", "--space", "21", "--label", "fermions").exit_code == 2


def test_cli_import_stays_light():
    """A cold `cuntzfock` call loads no float or symbolic numeric stack, no pool,
    no suites module (`verify` is imported only when a suite runs), and no
    dataclass machinery: the engine's value types are plain slotted classes."""
    heavy = ("numpy", "scipy", "sympy", "gmpy2", "concurrent.futures", "cuntzfock.verify",
             "dataclasses")
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


def test_float_oracle_runs_without_scipy():
    code = (
        "import sys; from cuntzfock.verify import oracle_suite; "
        "assert oracle_suite(dim=64, sequences=5).passed; "
        "print('scipy' in sys.modules, 'numpy' in sys.modules)"
    )
    src = str(Path(cuntzfock.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.split() == ["False", "False"]


PACKAGE = Path(cuntzfock.__file__).parent


def _imports(nodes):
    """(target, bound) for each name that an import statement among nodes binds.

    target is the dotted name imported, with relative imports made absolute:
    `from .rep import State` gives ("cuntzfock.rep.State", "State") and
    `import os.path` gives ("os.path", "os").
    """
    for node in nodes:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cuntzfock" if node.level else None, node.module]))
            for a in node.names:
                yield f"{module}.{a.name}", a.asname or a.name


def _module_tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def test_imports_match_declared_dependencies():
    """The third-party modules the package imports, lazily or not, are exactly
    the runtime dependencies that pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    declared_names = {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in declared}
    imported = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported.update(target.split(".")[0] for target, _ in _imports(ast.walk(tree)))
    third_party = imported - set(sys.stdlib_module_names) - {"cuntzfock"}
    assert third_party == declared_names == {"click"}


# What `oracles` may import from the package: `radical`, the t/s generator
# actions that define the oracles, and the word builder.  Nothing else of the
# fast path they check, and no fast module imports them.
ORACLE_IMPORTS = {f"cuntzfock.rep.{name}" for name in (
    "State", "EngineError", "apply_t", "apply_t_star", "apply_s", "apply_s_star",
)} | {"cuntzfock.words._make"}
FAST_MODULES = ("radical", "words", "rep", "ladder", "correspondence", "cli")


def test_oracles_and_fast_layers_import_each_other_only_one_way():
    for target, _ in _imports(ast.walk(_module_tree("oracles"))):
        top = target.split(".")[0]
        stdlib = top in sys.stdlib_module_names and top != "dataclasses"
        assert stdlib or target in ORACLE_IMPORTS or target.startswith("cuntzfock.radical."), target
    for name in FAST_MODULES:
        for target, _ in _imports(ast.walk(_module_tree(name))):
            assert not f"{target}.".startswith("cuntzfock.oracles."), (name, target)


# The actions that lift a basis map to states.  `verify` composes the basis
# maps of `ladder.basis_map` on words and imports none of them.
STATE_LIFTS = {"apply_boson", "apply_fermion", "apply_t", "apply_t_star", "apply_s",
               "apply_s_star", "apply_t_word", "map_basis"}


def test_verify_imports_no_state_lift():
    tree = _module_tree("verify")
    imported = {target.rsplit(".", 1)[-1] for target, _ in _imports(ast.walk(tree))}
    assert not imported & STATE_LIFTS, imported & STATE_LIFTS


def test_ladder_and_verify_compose_basis_maps_with_rep_then():
    for name in ("ladder", "verify"):
        imported = {target for target, _ in _imports(ast.walk(_module_tree(name)))}
        assert "cuntzfock.rep.then" in imported, name


def test_modules_use_every_name_they_import():
    """No module keeps a module-level import it never reads; `__init__` imports to re-export."""
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [target for target, bound in _imports(tree.body)
                  if bound not in read and not target.startswith("__future__.")]
        assert not unused, (path.name, unused)


def test_cli_holds_no_suite_table_and_reads_only_verify_run():
    """`verify` owns its suites: cli.py keys no dict by a suite name, binds no
    module-level `verify`, and reads nothing of that module but `run`."""
    from cuntzfock import verify

    tree = _module_tree("cli")
    keys = {k.value for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for k in node.keys if isinstance(k, ast.Constant)}
    assert not keys & set(verify.SUITES)
    bound = {t.id for node in tree.body if isinstance(node, ast.Assign)
             for t in node.targets if isinstance(t, ast.Name)}
    assert "verify" not in bound
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "verify"}
    assert read == {"run"}
