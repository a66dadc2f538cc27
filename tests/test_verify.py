import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuntzfock import cli
from cuntzfock.correspondence import MAX_MODE, BosonMonomial, BoundsError, CorrespondencePair
from cuntzfock.ladder import basis_map, boson_state, parse_op_token
from cuntzfock.oracles import _NumericFamily, leading_block
from cuntzfock.radical import ONE, sqrt_of_nat
from cuntzfock.rep import EngineError, RepSpace, State, apply_t_word, gp_vector
from cuntzfock.words import TailWord, index_to_word, word_to_index
from cuntzfock.verify import (
    SuiteReport,
    _all_defining_words,
    _peel_to,
    boson_branch_witness,
    car_suite,
    ccr_suite,
    check_bf_class,
    check_branching_boson,
    check_branching_fermion,
    check_branching_oinfty,
    check_ff_class,
    cuntz_suite,
    fermion_branch_witness,
    float_oracle,
    oracle_suite,
    roundtrip_suite,
)


def test_bf_class_fock():
    r = check_bf_class(gp_vector(RepSpace((1,))), 1, 1, 1, n_max=5)
    assert r.passed


def test_bf_class_amplified():
    # restriction anchor of the (1 2) space carries the doubled weight
    space = RepSpace((1, 2))
    anchor = apply_t_word((2,), gp_vector(space))
    assert check_bf_class(anchor, 1, 1, 2, n_max=4).passed


def test_bf_class_negative_control():
    r = check_bf_class(gp_vector(RepSpace((1,))), 1, 1, 2, n_max=3)
    assert not r.passed and r.failures


def test_bf_class_negative_control_labels():
    # one failure per rung, each naming its own mode: a label formatted
    # after the loop had moved on would name the last mode three times
    r = check_bf_class(gp_vector(RepSpace((1,))), 1, 1, 2, n_max=3)
    assert r.failures == [
        {"case": f"b b* at mode {n}", "expected": "<P2(1): [2] (1)>", "got": "<P2(1): [1] (1)>"}
        for n in (1, 2, 3)
    ]


def _never_called():
    raise AssertionError("label formatted for a passing check")


def test_passing_checks_format_no_label():
    r = SuiteReport("lazy")
    assert r.check(_never_called, ONE, ONE)
    assert r.check_true(_never_called, True, _never_called)
    assert r.passed and r.cases == 2


def test_failing_checks_record_the_label_text():
    r = SuiteReport("lazy")
    for n in range(3):
        r.check(lambda: f"case {n}", 0, n)
        r.check_true(lambda: f"flag {n}", n == 0, lambda: f"n={n}")
    r.check("plain", 0, 1)
    r.check_true("bare", False)
    assert r.cases == 8
    assert r.failures == [
        {"case": "case 1", "expected": "0", "got": "1"},
        {"case": "flag 1", "expected": "true", "got": "n=1"},
        {"case": "case 2", "expected": "0", "got": "2"},
        {"case": "flag 2", "expected": "true", "got": "n=2"},
        {"case": "plain", "expected": "0", "got": "1"},
        {"case": "bare", "expected": "true", "got": "false"},
    ]


def test_ff_class_fock():
    assert check_ff_class(gp_vector(RepSpace((1,))), 1, 1, n_max=6).passed


def test_ff_class_negative_control():
    r = check_ff_class(gp_vector(RepSpace((1,))), 2, 1, n_max=3)
    assert not r.passed


def test_ff_class_wrong_branch_label_fails():
    w = fermion_branch_witness(2)
    assert check_ff_class(w.vectors[0], 2, 2).passed
    assert not check_ff_class(w.vectors[0], 2, 1).passed
    assert check_ff_class(w.vectors[1], 2, 1).passed
    assert not check_ff_class(w.vectors[1], 2, 2).passed


def test_branching_oinfty():
    for v in range(1, 5):
        for variant in ("p", "q"):
            assert check_branching_oinfty(v, variant, depth=6).passed
    with pytest.raises(ValueError):
        check_branching_oinfty(2, "x")
    for variant in ("q", "p"):
        with pytest.raises(ValueError, match="value must be >= 1"):
            check_branching_oinfty(0, variant)


def test_branching_boson():
    for p in (1, 2, 3):
        assert check_branching_boson(p).passed


def test_branching_boson_witness_labels():
    w = boson_branch_witness(3)
    assert len(w.vectors) == 3
    for vec, (_, q, i, lam) in zip(w.vectors, w.labels):
        assert vec.norm2() == ONE
        assert check_bf_class(vec, q, i, lam, n_max=2).passed
    # the branch labels are a permutation; a swapped label must fail
    _, q, i, lam = w.labels[0]
    assert not check_bf_class(w.vectors[0], q, i % q + 1, lam, n_max=2).passed


def test_branching_fermion():
    for p in range(1, 5):
        assert check_branching_fermion(p, starred=False).passed
        assert check_branching_fermion(p, starred=True).passed


def test_fermion_starred_witness_lives_in_flipped_space():
    w = fermion_branch_witness(3, starred=True)
    assert w.space.period == (1, 1, 2)
    for vec, (_, p, i, starred) in zip(w.vectors, w.labels):
        assert starred
        assert check_ff_class(vec, p, i, starred=True).passed
        assert not check_ff_class(vec, p, i, starred=False).passed


def test_relation_suites_small():
    assert cuntz_suite(depth=4).passed
    assert ccr_suite(max_particles=2, max_mode=3).passed
    assert car_suite(max_particles=2, max_mode=3).passed


# The suites take every basis map from `verify.basis_map`: a fault planted
# there reaches each product they compose.


def _mode_2_creates_at_mode_1(tok):
    kind, n, star = tok
    return basis_map((kind, 1, star) if kind in "ba" and star and n == 2 else tok)


def _bracket_failures(report):
    # bracket labels open with "[" (commutators) or "{" (anticommutators)
    return [f for f in report.failures if f["case"][0] in "[{"]


def test_broken_ladder_fails_with_each_family_s_bracket_labels(monkeypatch):
    # x_2* acting as x_1* breaks [x_1, x_2*] and [x_2, x_2*] on every state;
    # the labels name the bracket, the letter and the starred position.  It
    # breaks the transport and word-rewrite checks too, which are left out here.
    from cuntzfock import verify

    monkeypatch.setattr(verify, "basis_map", _mode_2_creates_at_mode_1)
    ccr = ccr_suite(max_particles=1, max_mode=2)
    car = car_suite(max_particles=1, max_mode=2)
    assert (ccr.cases, car.cases) == (186, 348)
    assert _bracket_failures(ccr) == [
        {"case": "[b_1, b_2*] on [1] (1)", "expected": "<P2(1): 0>", "got": "<P2(1): [1] (1)>"},
        {"case": "[b_2, b_2*] on [1] (1)", "expected": "<P2(1): [1] (1)>", "got": "<P2(1): 0>"},
        {"case": "[b_1, b_2*] on [1] 2(1)", "expected": "<P2(1): 0>",
         "got": "<P2(1): [1] 2(1)>"},
        {"case": "[b_2, b_2*] on [1] 2(1)", "expected": "<P2(1): [1] 2(1)>",
         "got": "<P2(1): 0>"},
        {"case": "[b_1, b_2*] on [1] 12(1)", "expected": "<P2(1): 0>",
         "got": "<P2(1): [1] 12(1)>"},
        {"case": "[b_2, b_2*] on [1] 12(1)", "expected": "<P2(1): [1] 12(1)>",
         "got": "<P2(1): 0>"},
    ]
    assert _bracket_failures(car) == [
        {"case": "{a_1, a_2*} on [1] (1)", "expected": "<P2(1): 0>", "got": "<P2(1): [1] (1)>"},
        {"case": "{a_2, a_2*} on [1] (1)", "expected": "<P2(1): [1] (1)>", "got": "<P2(1): 0>"},
        {"case": "{a_1, a_2*} on [1] 2(1)", "expected": "<P2(1): 0>",
         "got": "<P2(1): [1] 2(1)>"},
        {"case": "{a_2, a_2*} on [1] 2(1)", "expected": "<P2(1): [1] 2(1)>",
         "got": "<P2(1): 0>"},
        {"case": "{a_1, a_2*} on [1] 12(1)", "expected": "<P2(1): 0>",
         "got": "<P2(1): [1] 12(1)>"},
        {"case": "{a_2, a_2*} on [1] 12(1)", "expected": "<P2(1): [1] 12(1)>",
         "got": "<P2(1): 0>"},
    ]


def _b_n_creates_at_n_plus_1_and_a_n_flips_sign(n):
    def fault(tok):
        if tok == ("b", n, True):
            return basis_map(("b", n + 1, True))
        fn = basis_map(tok)
        if tok != ("a", n, False):
            return fn

        def flipped(w):
            out = fn(w)
            return None if out is None else (-out[0], out[1])

        return flipped

    return fault


def test_faulty_ladders_report_the_recorded_failures(monkeypatch):
    # The reports of these two faults were recorded at commit b471745, where
    # every check applied its own operators to states.  Shared products and
    # word-level images must not merge, drop, reorder or relabel a failure:
    # the lists match entry for entry.
    from cuntzfock import verify

    recorded = json.loads((Path(__file__).parent / "verify_fault_reports.json").read_text())
    monkeypatch.setattr(verify, "basis_map", _b_n_creates_at_n_plus_1_and_a_n_flips_sign(3))
    for name, report in (("ccr", ccr_suite(2, 4)), ("car", car_suite(2, 4))):
        assert report.cases == recorded[name]["cases"]
        assert report.failures == recorded[name]["failures"]


def _t_2_star_as_t_1_star(tok):
    return basis_map(("t", 1, True) if tok == ("t", 2, True) else tok)


def _b_2_star_as_t_1(tok):
    return basis_map(("t", 1, False) if tok == ("b", 2, True) else tok)


@pytest.mark.parametrize(
    "name, fault, suite",
    [
        ("cuntz t2* as t1*", _t_2_star_as_t_1_star, lambda: cuntz_suite(depth=0)),
        ("ccr b2* as t1", _b_2_star_as_t_1, lambda: ccr_suite(1, 2)),
    ],
)
def test_two_word_sums_report_the_recorded_failures(monkeypatch, name, fault, suite):
    # Under these faults a range-completeness sum or a bracket lands on two
    # distinct words, e.g. "<P2(1): [1] (1)  +  [1] 2(1)>".  The reports were
    # recorded at commit f28e1c9, where every such sum was built as a State;
    # sums added on words must report the same text, entry for entry.
    from cuntzfock import verify

    recorded = json.loads((Path(__file__).parent / "verify_fault_reports.json").read_text())
    monkeypatch.setattr(verify, "basis_map", fault)
    report = suite()
    assert any("  +  " in f["got"] for f in report.failures)
    assert report.cases == recorded[name]["cases"]
    assert report.failures == recorded[name]["failures"]


def test_faulty_ladders_fail_every_suite_that_reads_them(monkeypatch):
    # b_1* acting as b_2*, and a_1 with its sign flipped: the branching
    # suites and the oracle's vacuum checks take their maps from
    # `verify.basis_map` too, so the fault reaches them
    from cuntzfock import verify

    monkeypatch.setattr(verify, "basis_map", _b_n_creates_at_n_plus_1_and_a_n_flips_sign(1))
    assert not check_branching_boson(2).passed
    assert not check_branching_fermion(2).passed
    oracle = oracle_suite(dim=64, sequences=5)
    assert "b_1* e_1" in [f["case"] for f in oracle.failures]


def test_passing_suites_build_no_state(monkeypatch):
    # every sum of a passing check is added on words and every operator is
    # a basis map composed on words: a State is built only to report a
    # failure, and no suite lifts a map to states
    from cuntzfock import ladder, rep, verify

    calls = {"_state": 0, "map_basis": 0}

    def counted(name, f):
        def inner(*args):
            calls[name] += 1
            return f(*args)
        return inner

    monkeypatch.setattr(verify, "_state", counted("_state", verify._state))
    monkeypatch.setattr(rep, "map_basis", counted("map_basis", rep.map_basis))
    monkeypatch.setattr(ladder, "map_basis", rep.map_basis)
    suites = [cuntz_suite(depth=4), ccr_suite(2, 3), car_suite(2, 3)]
    suites += [check_branching_oinfty(v, variant, depth=4) for v in (1, 3) for variant in "pq"]
    suites += [check_branching_boson(p) for p in (1, 2, 3)]
    suites += [check_branching_fermion(p, starred) for p in (1, 3) for starred in (False, True)]
    suites.append(oracle_suite(dim=64, sequences=5))
    for report in suites:
        assert report.passed and report.cases
    assert calls == {"_state": 0, "map_basis": 0}


def test_class_predicates_refuse_a_state_that_is_not_one_word():
    space = RepSpace((1,))
    omega = gp_vector(space)
    two_words = omega + apply_t_word((2,), omega)
    for psi in (State.zero(space), two_words):
        with pytest.raises(ValueError, match=re.escape(repr(psi))):
            check_bf_class(psi, 1, 1, 1)
        with pytest.raises(ValueError, match=re.escape(repr(psi))):
            check_ff_class(psi, 1, 1)


def _s_star_annihilates(tok):
    kind, _, star = tok
    return (lambda w: None) if kind == "s" and star else basis_map(tok)


def test_partial_range_sums_fail_when_s_star_annihilates(monkeypatch):
    # sum_{m <= k} s_m s_m* is the identity on a word from its leading block
    # length on, and 0 below it; an all-zero sum must not pass
    from cuntzfock import verify

    monkeypatch.setattr(verify, "basis_map", _s_star_annihilates)
    report = cuntz_suite(depth=0)
    assert report.cases == 9356  # as when it passes
    partial = [f for f in report.failures if f["case"].startswith("partial range sum")]
    expected = []
    for period in ((1,), (2,)):
        space = RepSpace(period)
        for w in space.basis_words(6):
            lb = leading_block(w)
            if lb is None:  # 2^inf: every partial sum is 0
                continue
            for k in range(lb[0], 9):
                expected.append({
                    "case": f"partial range sum k={k} on {w} in {space.label}",
                    "expected": f"<{space.label}: [1] {w}>",
                    "got": f"<{space.label}: 0>",
                })
    assert partial == expected


def _peeled(w):
    """The words w reaches by greedy block peeling: repeated `leading_block`."""
    reached = [w]
    for _ in range(w.depth + len(w.rot) + 2):
        lb = leading_block(reached[-1])
        if lb is None:
            break
        reached.append(lb[1])
    return reached


def test_closed_form_peel_matches_greedy_peeling():
    pairs = 0
    for J in _all_defining_words(3):
        basis = list(RepSpace(J).basis_words(4))
        for w in basis:
            reached = _peeled(w)
            for target in basis:
                assert _peel_to(target, w) == (target in reached), (target, w)
                pairs += 1
    assert pairs == 17_408


@settings(max_examples=300)
@given(
    st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple),
    st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
    st.integers(0, 3),
    st.data(),
)
def test_closed_form_peel_matches_greedy_peeling_on_deep_words(prefix, period, phase, data):
    w = TailWord(prefix, period, phase)
    reached = _peeled(w)
    target = data.draw(st.one_of(
        st.sampled_from(reached),
        st.builds(
            TailWord,
            st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple),
            st.just(period),
            st.integers(0, 3),
        ),
    ))
    assert _peel_to(target, w) == (target in reached)


def test_bracket_relations_apply_each_product_once(monkeypatch):
    from cuntzfock import verify

    calls = [0]
    then = verify.then

    def counted(*args):
        calls[0] += 1
        return then(*args)

    monkeypatch.setattr(verify, "then", counted)
    for op_max in (1, 3, 5):
        states = [boson_state(M) for M in verify._boson_family(2, op_max)]
        for x in "ba":
            maps = verify._maps(x, op_max)
            report = SuiteReport(x)
            calls[0] = 0
            for psi in states:
                verify._bracket_relations(report, maps, x, psi, op_max)
            assert calls[0] == len(states) * (2 * op_max + 4 * op_max ** 2)
            assert report.cases == len(states) * 3 * op_max ** 2


# Engine calls of the suites at the CLI defaults, with their case counts:
# `map_basis` calls plus the word-level applications of the basis maps the
# suites take from `verify.basis_map`.  Each bound is the count when every
# operator product is computed once per basis word and no map is applied to
# a zero image; a change that recomputes shared products fails here.
ENGINE_CALL_BOUNDS = {
    "cuntz": (lambda: cuntz_suite(depth=8), 45_056, 74_879),
    "ccr": (lambda: ccr_suite(4, 5), 15_750, 21_840),
    "car": (lambda: car_suite(4, 5), 3_233, 4_292),
}
ORACLE_INDEX_TO_WORD_BOUND = 16_449


def test_suites_stay_within_their_engine_call_budgets(monkeypatch):
    from cuntzfock import ladder, rep, verify

    calls = {"engine": 0, "index_to_word": 0}

    def counted(name, f):
        def inner(*args):
            calls[name] += 1
            return f(*args)
        return inner

    monkeypatch.setattr(rep, "map_basis", counted("engine", rep.map_basis))
    monkeypatch.setattr(ladder, "map_basis", rep.map_basis)
    monkeypatch.setattr(verify, "basis_map", lambda tok: counted("engine", basis_map(tok)))
    monkeypatch.setattr(verify, "index_to_word", counted("index_to_word", verify.index_to_word))
    for name, (suite, cases, bound) in ENGINE_CALL_BOUNDS.items():
        calls["engine"] = 0
        report = suite()
        assert (report.passed, report.cases) == (True, cases), name
        assert calls["engine"] <= bound, (name, calls)
    report = oracle_suite(dim=1024, sequences=50)
    assert (report.passed, report.cases) == (True, 18_535)
    assert calls["index_to_word"] <= ORACLE_INDEX_TO_WORD_BOUND, calls


def test_roundtrip_suite_small():
    assert roundtrip_suite(max_subset=6, max_particles=3, max_mode=4).passed


def _faulty_grade_rows(monkeypatch, shift_modes: bool):
    """Plant a fault in `enumerate_grade`: reciprocal coefficients, and bosons
    one mode too high if shift_modes; each row keeps its true fermion image."""
    from cuntzfock import correspondence as corr

    enumerate_grade = corr.enumerate_grade

    def faulty(n, max_mode):
        rows = []
        for p in enumerate_grade(n, max_mode):
            boson = BosonMonomial([(m + shift_modes, k) for m, k in p.boson.factors])
            rows.append(CorrespondencePair(boson, p.fermion, ONE / p.coeff))
        return rows

    monkeypatch.setattr(corr, "enumerate_grade", faulty)


@pytest.mark.parametrize("shift_modes", [True, False])
def test_roundtrip_checks_each_grade_row_against_forward(monkeypatch, shift_modes):
    _faulty_grade_rows(monkeypatch, shift_modes)
    report = roundtrip_suite(12, 4, 5)
    assert not report.passed
    failed = {f["case"] for f in report.failures}
    assert {f"grade {n} images pairwise distinct" for n in (2, 3, 4)} <= failed


def test_roundtrip_suite_refuses_max_subset_above_the_particle_bound():
    # refused up front: 40 would otherwise walk about 2^40 subsets first
    for max_subset in (13, 40):
        with pytest.raises(BoundsError):
            roundtrip_suite(max_subset=max_subset)


@pytest.mark.parametrize("variant", ["p", "q"])
def test_branching_oinfty_refuses_a_value_above_the_mode_bound(monkeypatch, variant):
    # refused before any word is built: the work grows with the value's period
    def never(self, max_depth):
        raise AssertionError("basis words built before the value was checked")

    monkeypatch.setattr(RepSpace, "basis_words", never)
    with pytest.raises(BoundsError):
        check_branching_oinfty(17, variant)


def test_unreached_words_fail_branching_oinfty(monkeypatch):
    from cuntzfock import verify

    monkeypatch.setattr(verify, "_peel_to", lambda target, w: False)
    r = check_branching_oinfty(1, "p", depth=2)
    assert r.cases == 3
    (failure,) = r.failures
    assert failure["case"] == "reachability to depth 2"
    assert failure["got"].startswith("unreached: ")


def test_float_oracle_permutation_sequence_is_exact():
    assert float_oracle(256, ["t2", "t1", "t2*"], 1) is True
    for dim in (1, 2, 4):  # the smallest windows: the suite refuses them, the oracle not
        assert float_oracle(dim, ["t1", "t1*"], 1) is True
    assert float_oracle(64, ["t1*"], 2) is True  # annihilated: both results are zero


def test_float_oracle_ladder_weights():
    assert float_oracle(256, ["b1*", "b1"], 1) is True
    assert float_oracle(256, ["a3*"], 1) is True
    assert float_oracle(256, ["b1*", "b1*", "b2*"], 1) is True  # weight sqrt(2)


def test_float_oracle_overflow_reported():
    assert float_oracle(4, ["t2", "t2", "t2"], 1) is None
    # a start outside the window overflows too, even when the image is inside
    for ops, start in (([], 9), (["t1*", "t1*"], 5)):
        assert float_oracle(4, ops, start) is None


def _dense_family(dim):
    """t_1, t_2, s_m, b_n and a_n as dense matrices, straight from the definitions."""
    t = {}
    for i in (1, 2):
        t[i] = np.zeros((dim, dim))
        for n in range(1, dim + 1):
            if 2 * (n - 1) + i <= dim:
                t[i][2 * (n - 1) + i - 1, n - 1] = 1.0
    s = {1: t[1]}
    for m in range(2, dim + 2):
        s[m] = t[2] @ s[m - 1]
    b = {1: sum(math.sqrt(m) * s[m] @ s[m + 1].T for m in range(1, dim + 1))}
    a = {1: t[1] @ t[2].T}
    for n in range(2, 5):
        b[n] = sum(s[m] @ b[n - 1] @ s[m].T for m in range(1, dim + 1))
        a[n] = t[1] @ a[n - 1] @ t[1].T - t[2] @ a[n - 1] @ t[2].T
    return {"t": t, "s": s, "b": b, "a": a}


def test_numeric_family_matches_dense_reference():
    from cuntzfock import verify

    dim = 64
    dense = _dense_family(dim)
    family = verify._NumericFamily(dim)
    tokens = [f"t{i}" for i in (1, 2)] + [f"{k}{n}" for k in "sba" for n in range(1, 5)]
    for text in tokens + [t + "*" for t in tokens]:
        kind, idx, star = parse_op_token(text)
        got = np.zeros((dim, dim))
        for src, (dst, w) in family.op(kind, idx, star).items():
            got[dst - 1, src - 1] = w.to_float()
        want = dense[kind][idx].T if star else dense[kind][idx]
        assert np.array_equal(got, want), text
        for k in range(1, dim + 1):
            column = np.zeros(dim)
            for n, x in family.apply((kind, idx, star), {k: ONE}).items():
                column[n - 1] = x.to_float()
            assert np.array_equal(column, want[:, k - 1]), (text, k)


# Every token of the engine: t_1, t_2, and s, b and a up to the mode bound, both stars.
ALL_TOKENS = [(kind, n, star) for kind in "tsba" for n in range(1, MAX_MODE + 1)
              for star in (False, True) if kind != "t" or n < 3]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(ALL_TOKENS), st.integers(1, 1024))
def test_exact_family_matches_the_basis_maps_in_its_window(tok, n):
    image = basis_map(tok)(index_to_word(n))
    assume(image is None or word_to_index(image[1]) <= 1024)
    want = {} if image is None else {word_to_index(image[1]): image[0]}
    assert _NumericFamily(1024).apply(tok, {n: ONE}) == want


def _planted(monkeypatch, dim, tok, entries):
    """A fresh numeric family whose operator `tok` has some entries replaced,
    installed as the only family the float oracle sees."""
    from cuntzfock import verify

    family = _NumericFamily.__wrapped__(dim)  # not the cached family of dim
    family._ops[tok] = {**family.op(*tok), **entries}
    monkeypatch.setattr(verify, "_NumericFamily", lambda d: family)
    return family


def test_sparse_deviation_compares_the_union_of_supports(monkeypatch):
    # t_1 e_1 = e_1: a wrong target, then no target at all
    _planted(monkeypatch, 64, ("t", 1, False), {1: (3, ONE)})  # wrong target
    assert float_oracle(64, ["t1"], 1) is False
    family = _planted(monkeypatch, 64, ("t", 1, False), {})
    del family._ops["t", 1, False][1]  # e_1 dropped: the family's result is empty
    assert float_oracle(64, ["t1"], 1) is False
    # t_1* e_2 = 0 exactly: a family image of it is the only support
    _planted(monkeypatch, 64, ("t", 1, True), {2: (1, ONE)})
    assert float_oracle(64, ["t1*"], 2) is False


def test_a_wrong_exact_weight_fails_the_pipeline_that_reads_it(monkeypatch):
    _planted(monkeypatch, 64, ("b", 1, False), {2: (1, sqrt_of_nat(2))})  # b_1 e_2 = e_1
    assert float_oracle(64, ["b1*", "b1"], 1) is False
    r = oracle_suite(dim=64, sequences=5)
    assert {
        "case": "pipeline ['b1*', 'b1'] from e_1",
        "expected": "true",
        "got": "images differ",
    } in r.failures


def test_numeric_sum_refuses_overlapping_terms():
    from cuntzfock import verify

    family = verify._NumericFamily(64)
    with pytest.raises(EngineError, match="overlap"):  # t_1 + t_1: sources repeat
        family._sum(family.op("t", 1), family.op("t", 1))
    with pytest.raises(EngineError, match="overlap"):  # t_1* + t_2*: targets repeat
        family._sum(family.op("t", 1, True), family.op("t", 2, True))


def test_float_oracle_rejects_bad_dim():
    with pytest.raises(ValueError):
        float_oracle(100, ["t1"])
    with pytest.raises(ValueError):
        float_oracle(2 ** 15, ["t1"])


def test_parse_op_token():
    assert parse_op_token("t1") == ("t", 1, False)
    assert parse_op_token("s12*") == ("s", 12, True)
    with pytest.raises(ValueError, match=r"'t3\*'"):
        parse_op_token("t3*")
    with pytest.raises(ValueError, match="'x1'"):
        parse_op_token("x1")
    for token in ("s16", "b16*", "a16"):
        parse_op_token(token)
    for token in ("s17", "s40000*", "b17*", "a17"):
        with pytest.raises(BoundsError):
            parse_op_token(token)


def test_oracle_suite_small():
    r = oracle_suite(dim=256, sequences=20)
    assert r.passed, r.failures[:3]


def test_report_json():
    r = check_bf_class(gp_vector(RepSpace((1,))), 1, 1, 1, n_max=2)
    data = r.to_json()
    assert data["pass"] is True and data["cases"] == 2


# The options of `cuntzfock verify` at their defaults, as `verify.run` receives them.
CLI_OPTIONS = {k: v for k, v in vars(cli._PARSER.parse_args(["verify", "all"])).items()
               if k not in ("suites", "as_json", "command", "parser")}


def test_run_expands_all_and_refuses_unknown_names(monkeypatch):
    from cuntzfock import verify

    with pytest.raises(ValueError, match=r"unknown suite\(s\): bogus"):
        verify.run(["cuntz", "bogus"], CLI_OPTIONS)
    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda o, name=name: [name])
    assert verify.run(["all"], CLI_OPTIONS) == list(verify.SUITES)
    assert verify.run(("oracle", "cuntz"), CLI_OPTIONS) == ["oracle", "cuntz"]


def test_run_holds_p_to_the_rungs_of_branch_fermion(monkeypatch):
    from cuntzfock import verify

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, lambda o, name=name: [name])
    options = {**CLI_OPTIONS, "p_max": 5}
    assert verify.run(["branch-fermion"], options) == ["branch-fermion"]  # top mode 15
    monkeypatch.setattr(verify, "RUNGS", 4)
    with pytest.raises(BoundsError, match="mode 20"):
        verify.run(["branch-fermion"], options)
    assert verify.run(["branch-boson"], options) == ["branch-boson"]


def test_oracle_suite_fails_every_disagreeing_random_pipeline(monkeypatch):
    from cuntzfock import verify

    monkeypatch.setattr(verify, "float_oracle", lambda dim, ops, start=1: False)
    r = oracle_suite(dim=256, sequences=5)
    random_failures = [f for f in r.failures if f["case"].startswith("random pipeline")]
    assert len(random_failures) == 5
    assert {f["got"] for f in random_failures} == {"images differ"}


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        (ccr_suite, {"max_particles": 13}),
        (ccr_suite, {"max_mode": 17}),
        (ccr_suite, {"max_mode": 16, "max_particles": 13}),
        (car_suite, {"max_particles": 13}),
        (car_suite, {"max_mode": 17}),
        (roundtrip_suite, {"max_particles": 13}),
        (roundtrip_suite, {"max_mode": 17}),
    ],
)
def test_suite_bounds_are_refused_before_any_state_is_built(monkeypatch, suite, kwargs):
    from cuntzfock import verify

    calls = [0]

    def counted(f):
        def inner(*args, **kw):
            calls[0] += 1
            return f(*args, **kw)
        return inner

    for name in ("boson_state", "fermion_state"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    for name in ("forward", "inverse"):
        monkeypatch.setattr(verify.corr, name, counted(getattr(verify.corr, name)))
    with pytest.raises(BoundsError):
        suite(**kwargs)
    assert calls[0] == 0


@pytest.mark.parametrize("dim", [1000, 32768, 0, 1, 2, 4])
def test_oracle_dim_is_refused_before_any_check(monkeypatch, dim):
    from cuntzfock import verify

    def never(n):
        raise AssertionError("the codec ran before dim was checked")

    monkeypatch.setattr(verify, "index_to_word", never)
    with pytest.raises(ValueError, match="dim must be"):
        oracle_suite(dim=dim)
    if dim not in (1, 2, 4):  # float_oracle takes every power of two up to 2^14
        with pytest.raises(ValueError, match="dim must be"):
            float_oracle(dim, ["t1"])
