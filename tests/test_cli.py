import ast
import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path
from types import FunctionType, SimpleNamespace

import pytest

import cuntzfock
from cuntzfock.cli import main
from cuntzfock.correspondence import BoundsError, parse_boson_expr
from cuntzfock.ladder import apply
from cuntzfock.rep import RepSpace, State
from cuntzfock.verify import SuiteReport
from cuntzfock.words import parse_letters


class _Tee(io.StringIO):
    """A captured stream that also writes into a shared one, in call order."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


def run(*args):
    """Run the CLI in-process, as the console script does (`sys.exit(main())`).

    `output` is stdout and stderr together, in the order they were written;
    `exception` is the SystemExit of a non-zero exit, or what the call raised.
    """
    output = io.StringIO()
    stdout, stderr = _Tee(output), _Tee(output)
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            sys.exit(main(list(args)))
        except SystemExit as exc:
            code = exc.code
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return SimpleNamespace(exit_code=code, output=output.getvalue(),
                           stdout_bytes=stdout.getvalue().encode(), exception=exception)


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


# Case counts of `verify all --json` at the CLI defaults.  A change to the
# output of `verify` has to update the pin on purpose.
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


# Golden reports: each file under tests/golden holds the reports of one
# `verify ... --json` call, one per line as `json.dumps` writes a report.  The
# call must print exactly those lines joined as `json.dumps` joins a list, so
# a golden file fixes the output byte for byte, and a change to it is a diff
# of the reports that moved.
GOLDEN = Path(__file__).parent / "golden"


def assert_golden(res, name):
    """res printed the reports of the golden file name, byte for byte; on a
    mismatch the failure names each report that differs, with both lines."""
    want_lines = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    want = ("[" + ", ".join(want_lines) + "]\n").encode()
    if res.stdout_bytes == want:
        return
    got_lines = [json.dumps(r) for r in json.loads(res.stdout_bytes)]
    differ = []
    for k in range(max(len(got_lines), len(want_lines))):
        got, expected = (lines[k] if k < len(lines) else "" for lines in (got_lines, want_lines))
        if got != expected:
            suite = json.loads(got or expected)["suite"]
            differ.append(f"report {k} ({suite}):\n  golden: {expected}\n  output: {got}")
    pytest.fail(f"`verify --json` differs from golden/{name}:\n" + "\n".join(differ or [
        "the reports agree, but not their bytes"
    ]))


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
    assert_golden(res, "verify_all.jsonl")


# `verify all --json` at a deeper setting: depth 10, the oracle window at
# 4096 and 200 random sequences.
DEEP_ARGS = ("--depth", "10", "--dim", "4096", "--sequences", "200")


def test_verify_cli_deep_output_is_pinned():
    res = run("verify", "all", "--json", *DEEP_ARGS)
    assert res.exit_code == 0
    assert all(r["pass"] for r in json.loads(res.output))
    assert_golden(res, "verify_all_deep.jsonl")


# `verify ccr car --json` where the bracket range (--modes) is below and
# above ccr's transport range, which runs to mode 5 at any --modes.
NARROW_AND_WIDE = {
    ("--modes", "3", "--particles", "2"): "verify_ccr_car_modes_3.jsonl",
    ("--modes", "7", "--particles", "3"): "verify_ccr_car_modes_7.jsonl",
}


@pytest.mark.parametrize("args", sorted(NARROW_AND_WIDE))
def test_verify_ccr_car_output_is_pinned_off_the_transport_range(args):
    res = run("verify", "ccr", "car", "--json", *args)
    assert res.exit_code == 0
    assert all(r["pass"] for r in json.loads(res.output))
    assert_golden(res, NARROW_AND_WIDE[args])


def test_golden_mismatch_names_the_reports_that_differ():
    golden = (GOLDEN / "verify_ccr_car_modes_3.jsonl").read_text(encoding="utf-8").splitlines()
    car = json.loads(golden[1])
    car["cases"] += 1
    printed = SimpleNamespace(stdout_bytes=f"[{golden[0]}, {json.dumps(car)}]\n".encode())
    with pytest.raises(pytest.fail.Exception) as failed:
        assert_golden(printed, "verify_ccr_car_modes_3.jsonl")
    message = str(failed.value)
    assert "report 1 (car)" in message and "(ccr)" not in message
    assert f'"cases": {car["cases"]}' in message


def test_verify_takes_suite_names_after_an_option():
    # `verify ccr --json car` names both suites, as `verify ccr car --json` does
    res = run("verify", "ccr", "--json", "car", "--modes", "3", "--particles", "2")
    assert res.exit_code == 0, res.output
    assert_golden(res, "verify_ccr_car_modes_3.jsonl")
    assert run("verify", "ccr", "--json", "car", "--bogus").exit_code == 2


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


def test_verify_text_names_the_failures_it_leaves_out(monkeypatch):
    from cuntzfock import verify

    failing = SuiteReport("rigged", cases=12, failures=[
        {"case": f"x{k}", "expected": "a", "got": "b"} for k in range(12)
    ])
    monkeypatch.setitem(verify.SUITES, "roundtrip", lambda o: [failing])
    res = run("verify", "roundtrip")
    assert res.exit_code == 1
    assert res.output.splitlines() == [
        "rigged: FAIL (12 failures) [12 cases]",
        *[f"    x{k}: expected a, got b" for k in range(10)],
        "    ... and 2 more",
    ]
    res = run("verify", "roundtrip", "--json")
    assert [len(r["failures"]) for r in json.loads(res.output)] == [12]


def _nth_block_one_too_far(w, n):
    """`words.nth_block` with a planted fault: from mode 6 on it passes n blocks,
    one too many, and runs off the letters it extended for n."""
    letters = w.prefix
    short = n - letters.count(1)
    if short > 0:
        per_rot = w.rot.count(1)
        if not per_rot:
            return None
        letters += w.rot * -(-short // per_rot)
    start = 0
    for _ in range(n - 1 + (n >= 6)):
        start = letters.index(1, start) + 1
    return start, letters.index(1, start) + 1 - start


def test_an_engine_exception_in_a_suite_is_a_failed_check(monkeypatch):
    from cuntzfock import ladder

    monkeypatch.setattr(ladder, "nth_block", _nth_block_one_too_far)
    res = run("verify", "ccr", "car", "--json")
    assert res.exit_code == 1, res.output
    ccr, car = json.loads(res.output)
    (failure,) = ccr["failures"]
    assert (ccr["suite"], ccr["pass"], failure["case"]) == ("ccr", False, "the suite runs to its end")
    # the report names the innermost frame: the planted function's last line, its return
    code = _nth_block_one_too_far.__code__
    line = max(line for *_, line in code.co_lines() if line is not None)
    assert failure["got"] == ("ValueError: tuple.index(x): x not in tuple "
                              f"(in _nth_block_one_too_far, line {line})")
    assert (car["suite"], car["pass"]) == ("car", True)  # the next suite still runs
    res = run("verify", "ccr")
    assert res.exit_code == 1
    assert "ccr: FAIL (1 failures)" in res.output


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
    from cuntzfock import rep

    assert run("apply", "s16").exit_code == 0

    def never(state, fn):
        raise AssertionError(f"{fn} applied before the word was refused")

    # s40000 alone would take seconds: each s_m prepends a block of length m
    monkeypatch.setattr(rep, "map_basis", never)
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
                ((v, c),) = apply(f"s{m}", State.basis(space, w)).items()
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


def _loaded_after(code: str, names) -> set[str]:
    """Which of names are in sys.modules after a fresh interpreter runs code.

    The names go to stderr, since the code may print to stdout.
    """
    code += (f"\nimport sys; print(' '.join(m for m in {tuple(names)!r} if m in sys.modules),"
             " file=sys.stderr)")
    # the child finds the package where this process found it, installed or not
    src = str(Path(cuntzfock.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return set(out.stderr.split())


# The engine modules that act on words, which the transfer and its labels do not need.
WORD_LAYERS = ("cuntzfock.words", "cuntzfock.rep", "cuntzfock.ladder")


def test_cli_import_stays_light():
    """A cold `cuntzfock` call loads no float or symbolic numeric stack, no pool,
    no suites module (`verify` is imported only when a suite runs) and so no
    oracles, no dataclass machinery (the engine's value types and `verify`'s
    reports are plain slotted classes), and no click: the commands are parsed
    by the standard library's argparse.  Of the engine it loads the transfer
    alone: the words, the representation spaces and the ladder operators are
    imported by the commands that act on words (`apply`, `graph`, `map --check`)."""
    heavy = ("numpy", "scipy", "sympy", "gmpy2", "concurrent.futures", "cuntzfock.verify",
             "cuntzfock.oracles", "dataclasses", "click", *WORD_LAYERS)
    assert _loaded_after("import cuntzfock.cli", heavy) == set()


def test_the_transfer_loads_radical_alone():
    engine = ["cuntzfock", *(f"cuntzfock.{p.stem}" for p in PACKAGE.glob("*.py")
                             if p.stem != "__init__")]
    assert _loaded_after("import cuntzfock.correspondence", engine) == {
        "cuntzfock", "cuntzfock.radical", "cuntzfock.correspondence"}


def test_the_package_root_loads_a_module_on_first_use():
    """`import cuntzfock.radical` (the `scalars` set-up) loads `radical` alone, and a
    public name of the root loads the module that defines it."""
    engine = [f"cuntzfock.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"]
    assert _loaded_after("import cuntzfock.radical", engine) == {"cuntzfock.radical"}
    assert _loaded_after("from cuntzfock import RadicalScalar", engine) == {
        "cuntzfock.radical"}
    assert _loaded_after("import cuntzfock", engine) == set()
    assert _loaded_after("from cuntzfock import apply_rho", engine) == {
        "cuntzfock.oracles", "cuntzfock.radical", "cuntzfock.rep", "cuntzfock.words"}
    # a submodule that is no public name is imported as one
    assert _loaded_after("from cuntzfock import cli", engine) >= {"cuntzfock.cli"}


def test_a_cold_transfer_loads_no_word_layer_oracles_or_suites():
    unwanted = (*WORD_LAYERS, "cuntzfock.oracles", "cuntzfock.verify")
    for argv in (["map", "1^2 3", "--json"], ["unmap", "1 2 4", "--json"],
                 ["table", "-n", "2", "-m", "3", "--json"]):
        code = f"from cuntzfock.cli import main; main({argv!r})"
        assert _loaded_after(code, unwanted) == set(), argv


def test_a_cold_checked_map_loads_the_ladder_and_prints_the_same_pair():
    code = "from cuntzfock.cli import main; main(['map', '2^3 5 9', '--check', '--json'])"
    assert _loaded_after(code, WORD_LAYERS) == set(WORD_LAYERS)
    out = _cold("map", "2^3 5 9", "--check", "--json", capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == (
        '{"boson": {"factors": [{"mode": 2, "mult": 3}, {"mode": 5, "mult": 1}, '
        '{"mode": 9, "mult": 1}]}, "fermion": [2, 3, 4, 8, 13], '
        '"coeff": {"terms": [{"radicand": 6, "num": 1, "den": 1}]}}\n')


def test_verify_imports_no_dataclasses_or_traceback():
    heavy = ("dataclasses", "inspect", "traceback")
    assert _loaded_after("import cuntzfock.verify", heavy) == set()


def _cold(*argv, start=subprocess.run, **kwargs):
    """One cold call as the console script makes it, with the package found here."""
    src = str(Path(cuntzfock.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys; from cuntzfock.cli import main; sys.exit(main())"
    return start([sys.executable, "-c", code, *argv], env=env, **kwargs)


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded as a module; the benchmark drives the CLI through it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up while it is built
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_cold_calls_print_what_the_benchmark_expects(workloads):
    """The benchmark's cold calls must print, byte for byte, the JSON that the
    command gives in-process, plus a newline; a mismatch fails every such op."""
    for argv, want in workloads.CLI_CALLS:
        out = _cold(*argv, capture_output=True, text=True)
        assert (out.returncode, out.stdout, out.stderr) == (0, want() + "\n", ""), argv


def test_benchmark_runs_verify_in_process(workloads, monkeypatch):
    """perfbench's `_run_cli` reaches a command through `cli.main.main(argv, ...)`
    and reads the exit code of the SystemExit it raises; if that shape breaks,
    every op of the `verify` workload fails."""
    from cuntzfock import verify

    run_cli = workloads._run_cli
    code, text = run_cli(["verify", "roundtrip", "--json"])
    assert code == 0
    (report,) = json.loads(text)
    assert (report["suite"], report["pass"]) == ("roundtrip", True)
    failing = SuiteReport("rigged", cases=1, failures=[
        {"case": "x", "expected": "a", "got": "b"}
    ])
    monkeypatch.setitem(verify.SUITES, "roundtrip", lambda o: [failing])
    code, text = run_cli(["verify", "roundtrip", "--json"])
    assert code == 1
    assert [r["pass"] for r in json.loads(text)] == [False]


def test_a_closed_stdout_ends_the_call_quietly():
    # `| head -c 20` closes the pipe long before the 750 kB table is written
    proc = _cold("table", "-n", "4", "-m", "16", "--json", start=subprocess.Popen,
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), head, err) == (0, b'[{"boson": {"factors', b"")
    # `verify` writes a line per suite, each into a pipe already closed
    proc = _cold("verify", "cuntz", "ccr", "car", "--depth", "1", "--particles", "1",
                 start=subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (0, b"")


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
    assert third_party == declared_names == set()


# What `oracles` may import from the package: `radical`, the t/s generator
# maps that define the oracles and their lift to states, and the word builder.
# Nothing else of the fast path they check, and no fast module imports them.
ORACLE_IMPORTS = {f"cuntzfock.rep.{name}" for name in (
    "State", "EngineError", "map_basis", "generator_map",
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
STATE_LIFTS = {"apply", "map_basis"}


def test_verify_imports_no_state_lift():
    tree = _module_tree("verify")
    imported = {target.rsplit(".", 1)[-1] for target, _ in _imports(ast.walk(tree))}
    assert not imported & STATE_LIFTS, imported & STATE_LIFTS


def test_ladder_and_verify_compose_basis_maps_with_rep_then():
    for name in ("ladder", "verify"):
        imported = {target for target, _ in _imports(ast.walk(_module_tree(name)))}
        assert "cuntzfock.rep.then" in imported, name


# Module-level imports kept for readers outside the package: perfbench reads
# `ladder.parse_boson_expr` (perfbench/warmup.py:22, perfbench/workloads.py:341,347).
REEXPORTED = {"cuntzfock.correspondence.parse_boson_expr": "ladder.py"}


def test_modules_use_every_name_they_import():
    """No module keeps a module-level import it never reads, but for the names of
    REEXPORTED; `__init__` imports to re-export."""
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = [target for target, bound in _imports(tree.body)
                  if bound not in read and not target.startswith("__future__.")
                  and REEXPORTED.get(target) != path.name]
        assert not unused, (path.name, unused)


# Compiling a module sizes the parser's token array by doubling, and the
# compile of `verify.py` sets the peak memory of a `verify` run: past 8,192
# tokens its compile peaked about 0.5 MB higher (3.69 MB at 8,304 tokens,
# 3.17 MB at 8,103, under tracemalloc).  A suite that would take `verify.py`
# past this bound lives in a module of its own.
VERIFY_TOKEN_BOUND = 8_192
# The tokens of `verify.py` once the class rungs read their suite's table of
# basis maps and the test-only `check_bf_class`/`check_ff_class` were gone
# (8,304 before, 8,561 before the branch suites checked their vacua as words,
# 8,615 before the operator tables were read by position, and 8,897 before
# every table of cases went through `SuiteReport.check_table`).  A change that
# adds tokens raises this with its reason; one that removes tokens may lower it.
VERIFY_TOKENS = 8_103


def _verify_tokens() -> int:
    with open(PACKAGE / "verify.py", encoding="utf-8") as f:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL)
                   for t in tokenize.generate_tokens(f.readline))


def test_verify_stays_below_the_next_doubling_of_the_parser_token_array():
    assert _verify_tokens() < VERIFY_TOKEN_BOUND


def test_verify_does_not_grow_past_its_recorded_token_count():
    assert _verify_tokens() <= VERIFY_TOKENS


def test_the_benchmark_reads_the_engine_where_it_did():
    """perfbench times the transfer functions as `corr.<name>` and builds its
    inputs from `ladder`'s names: each must stay where it reads it."""
    from cuntzfock import correspondence, ladder

    for name in ("forward", "inverse", "forward_operational", "enumerate_grade"):
        fn = getattr(correspondence, name)
        assert type(fn) is FunctionType, name
        assert fn.__module__ == "cuntzfock.correspondence", name
    for name in ("BosonMonomial", "FermionSubset", "parse_boson_expr"):
        assert getattr(ladder, name) is getattr(correspondence, name), name


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
