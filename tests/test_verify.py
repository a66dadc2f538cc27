import ast
import json
import math
import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuntzfock import cli, ladder, verify
from cuntzfock import correspondence as corr
from cuntzfock.correspondence import MAX_MODE, BosonMonomial, BoundsError, CorrespondencePair
from cuntzfock.ladder import apply, basis_map, boson_state, parse_op_token
from cuntzfock.oracles import _NumericFamily, leading_block
from cuntzfock.radical import ONE, promote, sqrt_of_nat
from cuntzfock.rep import EngineError, RepSpace, State, gp_vector
from cuntzfock.words import TailWord, index_to_word, prepend_letters, word_to_index
from cuntzfock.verify import (
    SuiteReport,
    _all_defining_words,
    _unreached,
    boson_branch_witness,
    car_suite,
    ccr_suite,
    check_branching_boson,
    check_branching_fermion,
    check_branching_oinfty,
    cuntz_suite,
    fermion_branch_witness,
    float_oracle,
    oracle_suite,
    roundtrip_suite,
)


def test_bf_class_fock(class_report, monkeypatch):
    monkeypatch.setattr(verify, "RUNGS", 5)
    r = class_report(gp_vector(RepSpace((1,))), 1, 1, 1)
    assert r.passed


def test_bf_class_amplified(class_report, monkeypatch):
    # restriction anchor of the (1 2) space carries the doubled weight
    monkeypatch.setattr(verify, "RUNGS", 4)
    space = RepSpace((1, 2))
    anchor = apply("t2", gp_vector(space))
    assert class_report(anchor, 1, 1, 2).passed


def test_bf_class_negative_control(class_report):
    r = class_report(gp_vector(RepSpace((1,))), 1, 1, 2)
    assert not r.passed and r.failures


def test_bf_class_negative_control_labels(class_report, monkeypatch):
    # one failure per rung, each naming its own mode: a label formatted
    # after the loop had moved on would name the last mode three times
    monkeypatch.setattr(verify, "RUNGS", 3)
    r = class_report(gp_vector(RepSpace((1,))), 1, 1, 2)
    assert r.failures == [
        {"case": f"b b* at mode {n}", "expected": "<P2(1): [2] (1)>", "got": "<P2(1): [1] (1)>"}
        for n in (1, 2, 3)
    ]


def _never_called():
    raise AssertionError("label formatted for a passing check")


def test_passing_checks_format_no_label():
    r = SuiteReport("lazy")
    assert r.check("unit", _never_called, ONE, ONE)
    assert r.check_true("reach", _never_called, True, _never_called)
    assert r.passed and r.cases == 2


def _counting_checks(monkeypatch):
    calls = []
    check = SuiteReport.check

    def counted(self, family, case, expected, got):
        calls.append(family)
        return check(self, family, case, expected, got)

    monkeypatch.setattr(SuiteReport, "check", counted)
    return calls


def test_a_passing_table_counts_each_family_with_no_check_call(monkeypatch):
    calls = _counting_checks(monkeypatch)
    r = SuiteReport("table")
    r.check_table(("codec",), [1, 2, 3], [1, 2, 3], _never_called)
    r.check_table(("inverse", "norm"), ["S", ONE] * 3, ["S", ONE] * 3, _never_called)
    assert calls == [] and r.passed
    assert {f: n for f, n in r.relations.items() if n} == {"codec": 3, "inverse": 3, "norm": 3}


def test_a_failing_table_records_only_its_mismatches_in_entry_order(monkeypatch):
    calls = _counting_checks(monkeypatch)
    labelled = []

    def label(k):
        labelled.append(k)
        return f"entry {k}"

    r = SuiteReport("table")
    r.check_table(("grade", "norm", "norm"), [0, 1, 2, 3, 4, 5], [0, 9, 2, 3, 4, 7], label)
    assert calls == ["grade", "norm", "norm"] * 2
    assert labelled == [1, 5]
    assert r.failures == [
        {"case": "entry 1", "expected": "1", "got": "9"},
        {"case": "entry 5", "expected": "5", "got": "7"},
    ]
    assert {f: n for f, n in r.relations.items() if n} == {"grade": 2, "norm": 4}


# Scalars of up to three radical terms, none zero, and the words of one space: few
# enough words that random images often share one.
_SCALARS = st.builds(
    lambda a, b, c: promote(a) + promote(b) * sqrt_of_nat(2) + promote(c) * sqrt_of_nat(3),
    *[st.integers(-3, 3)] * 3,
).filter(bool)
_SUM_SPACE = RepSpace((1, 2))
_SUM_WORDS = list(_SUM_SPACE.basis_words(1))


@st.composite
def _images_to_sum(draw):
    """Images to add in turn: new weighted words, zeros, and negations of earlier ones."""
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["word", "word", "zero", "cancel"]))
        if kind == "cancel" and parts:
            c_w = draw(st.sampled_from(parts))
            parts.append(None if c_w is None else (-c_w[0], c_w[1]))
        elif kind == "zero":
            parts.append(None)
        else:
            parts.append((draw(_SCALARS), draw(st.sampled_from(_SUM_WORDS))))
    return parts


@settings(max_examples=200, deadline=None)
@given(_images_to_sum())
def test_word_level_sums_equal_the_state_sums_of_their_parts(parts):
    # as the range sums of `cuntz` and the brackets of `ccr`/`car` add them: in turn,
    # from no image, the accumulator a State exactly while it holds two words or more
    from cuntzfock import verify

    total = reduce(verify._plus, parts, None)
    want = State.zero(_SUM_SPACE)
    for part in parts:
        if part is not None:
            want = want + State.basis(_SUM_SPACE, part[1], part[0])
    if total is None:
        got = State.zero(_SUM_SPACE)
    elif total.__class__ is tuple:
        assert total[0], total  # an image never carries a zero weight
        got = State.basis(_SUM_SPACE, total[1], total[0])
    else:
        assert len(total) >= 2, total
        got = total
    assert got == want, parts


def test_a_sum_cancelled_back_to_one_word_checks_equal_to_that_word():
    from cuntzfock import verify

    w1, w2 = _SUM_WORDS[:2]
    back = verify._plus(verify._plus((ONE, w1), (ONE, w2)), (-ONE, w2))
    assert back == (ONE, w1)
    assert verify._plus(verify._plus((ONE, w1), (ONE, w2)), (-ONE, w1)) == (ONE, w2)
    r = SuiteReport("sum")
    assert r.check("t-range", "w1 + w2 - w2", (ONE, w1), back)
    assert r.failures == []


def test_failing_checks_record_the_label_text():
    r = SuiteReport("lazy")
    for n in range(3):
        r.check("unit", lambda: f"case {n}", 0, n)
        r.check_true("reach", lambda: f"flag {n}", n == 0, lambda: f"n={n}")
    r.check("unit", "plain", 0, 1)
    r.check_true("reach", "bare", False)
    assert r.cases == 8
    assert r.failures == [
        {"case": "case 1", "expected": "0", "got": "1"},
        {"case": "flag 1", "expected": "true", "got": "n=1"},
        {"case": "case 2", "expected": "0", "got": "2"},
        {"case": "flag 2", "expected": "true", "got": "n=2"},
        {"case": "plain", "expected": "0", "got": "1"},
        {"case": "bare", "expected": "true", "got": "false"},
    ]


def test_ff_class_fock(class_report, monkeypatch):
    monkeypatch.setattr(verify, "RUNGS", 6)
    assert class_report(gp_vector(RepSpace((1,))), 1, 1).passed


def test_ff_class_negative_control(class_report):
    r = class_report(gp_vector(RepSpace((1,))), 2, 1)
    assert not r.passed


def _vacuum(w: TailWord) -> State:
    """The branch vacuum word w as a state of the space its period names."""
    return State.basis(RepSpace(w.period), w)


def test_ff_class_wrong_branch_label_fails(class_report):
    # at p = 2, vacuum j has residue p - j + 1: 2 for Omega_1, 1 for Omega_2
    w = [_vacuum(v) for v in fermion_branch_witness(2)]
    assert class_report(w[0], 2, 2).passed
    assert not class_report(w[0], 2, 1).passed
    assert class_report(w[1], 2, 1).passed
    assert not class_report(w[1], 2, 2).passed


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


def test_branching_boson_witness_labels(class_report, monkeypatch):
    # at p = 3, vacuum i is in the lambda = 2 boson class with q = p and residue p - i + 1
    monkeypatch.setattr(verify, "RUNGS", 2)
    p, lam = 3, 2
    w = [_vacuum(v) for v in boson_branch_witness(p)]
    assert len(w) == 3
    for i, vec in enumerate(w, 1):
        assert vec.inner(vec) == ONE
        assert class_report(vec, p, p - i + 1, lam).passed
    # the branch labels are a permutation; a swapped label must fail
    residue = p  # of Omega_1
    assert not class_report(w[0], p, residue % p + 1, lam).passed


def test_branching_fermion():
    for p in range(1, 5):
        assert check_branching_fermion(p, starred=False).passed
        assert check_branching_fermion(p, starred=True).passed


def test_fermion_starred_witness_lives_in_flipped_space(class_report):
    # at p = 3, starred vacuum j is in the starred fermion class with p and residue p - j + 1
    p = 3
    words = fermion_branch_witness(p, starred=True)
    assert [w.period for w in words] == [(1, 1, 2)] * p
    for j, w in enumerate(words, 1):
        assert class_report(_vacuum(w), p, p - j + 1, starred=True).passed
        assert not class_report(_vacuum(w), p, p - j + 1, starred=False).passed


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


def _s_3_star_as_s_2_star(tok):
    return basis_map(("s", 2, True) if tok == ("s", 3, True) else tok)


def _s_3_as_s_2(tok):
    return basis_map(("s", 2, False) if tok == ("s", 3, False) else tok)


def _t_2_as_t_1_on_six_2s(letters, w):
    return prepend_letters((1,) if letters == (2,) and w.prefix[:6] == (2,) * 6 else letters, w)


def _t_1_negated_on_words_starting_22(tok):
    t_1 = basis_map(tok)
    if tok != ("t", 1, False):
        return t_1

    def fault(w):
        out = t_1(w)
        return out if out is None or w.prefix[:2] != (2, 2) else (-out[0], out[1])

    return fault


def _a_n_star_sign_flipped_from_mode_7(tok):
    a_n_star = basis_map(tok)
    kind, n, star = tok
    if kind != "a" or not star or n < 7:
        return a_n_star

    def fault(w):
        out = a_n_star(w)
        return None if out is None else (-out[0], out[1])

    return fault


def _operational_coeff_times_sqrt2_on_repeated_modes(M, operational=corr.forward_operational):
    pair = operational(M)
    if all(k == 1 for _, k in M.factors):
        return pair
    return CorrespondencePair(pair.boson, pair.fermion, pair.coeff * sqrt_of_nat(2))


def _inverse_drops_a_particle_of_the_last_mode_in_subsets_of_3(S, inverse=corr.inverse):
    pair = inverse(S)
    if len(S.elements) < 3:
        return pair
    *head, (n, k) = pair.boson.factors
    return CorrespondencePair(BosonMonomial(head + [(n, k - 1)] * (k > 1)), S, pair.coeff)


@pytest.mark.parametrize(
    "name, target, fault, suite",
    [
        ("cuntz s3* as s2*", "basis_map", _s_3_star_as_s_2_star, lambda: cuntz_suite(depth=0)),
        ("oracle s3 as s2", "basis_map", _s_3_as_s_2, lambda: oracle_suite(dim=16, sequences=5)),
        ("oracle t2 as t1 on six 2s", "prepend_letters", _t_2_as_t_1_on_six_2s,
         lambda: oracle_suite(dim=16, sequences=5)),
        ("car a_n* sign flipped for n >= 7", "basis_map", _a_n_star_sign_flipped_from_mode_7,
         lambda: car_suite(2, 4)),
    ],
)
def test_failing_tables_report_the_recorded_failures(monkeypatch, name, target, fault, suite):
    # A table that holds is counted in one comparison; one that fails is
    # checked case by case (`SuiteReport.check_table`).  These faults break
    # the s_i* s_j tables and the partial range sums of `cuntz`, the s_m and
    # t_i index tables of `oracle`, and the t-rewrite tables of `car` (96 of
    # its 992 cases, from t_1^1 t_2^6 on).  The reports of `cuntz` and
    # `oracle` were recorded at commit 55c0beb, and that of `car` at commit
    # e066489, where each of those cases was checked on its own; they match
    # entry for entry.
    from cuntzfock import verify

    recorded = json.loads((Path(__file__).parent / "verify_fault_reports.json").read_text())
    monkeypatch.setattr(verify, target, fault)
    report = suite()
    assert report.cases == recorded[name]["cases"]
    assert report.failures == recorded[name]["failures"]


def _sign_flipped(target, max_depth=None):
    """The basis maps with target's images negated: on every word, or only
    on words of at most max_depth prefix letters."""
    def fault(tok):
        fn = basis_map(tok)
        if tok != target:
            return fn

        def flipped(w):
            out = fn(w)
            if out is None or max_depth is not None and len(w.prefix) > max_depth:
                return out
            return -out[0], out[1]

        return flipped

    return fault


def _boson_creation_weight_times_sqrt2_from_mode_4(create, n, w, boson_word=ladder._boson_word):
    out = boson_word(create, n, w)
    if out is None or not create or n < 4:
        return out
    return out[0] * sqrt_of_nat(2), out[1]


@pytest.mark.parametrize(
    "name, target, fault, suite",
    [
        ("cuntz t1 negated on 22", "cuntzfock.verify.basis_map",
         _t_1_negated_on_words_starting_22, lambda: cuntz_suite(depth=3)),
        ("roundtrip operational coeff times sqrt(2)",
         "cuntzfock.correspondence.forward_operational",
         _operational_coeff_times_sqrt2_on_repeated_modes, lambda: roundtrip_suite(6, 3, 4)),
        ("roundtrip inverse drops a particle", "cuntzfock.correspondence.inverse",
         _inverse_drops_a_particle_of_the_last_mode_in_subsets_of_3,
         lambda: roundtrip_suite(6, 3, 4)),
        ("ccr b_n* weight times sqrt(2) for n >= 4", "cuntzfock.ladder._boson_word",
         _boson_creation_weight_times_sqrt2_from_mode_4, lambda: ccr_suite(1, 5)),
        ("ccr b5* sign flipped on words of up to 2 letters", "cuntzfock.verify.basis_map",
         _sign_flipped(("b", 5, True), 2), lambda: ccr_suite(4, 5)),
        ("ccr b6 sign flipped", "cuntzfock.verify.basis_map", _sign_flipped(("b", 6, False)),
         lambda: ccr_suite(2, 5)),
        ("car a5 sign flipped", "cuntzfock.verify.basis_map", _sign_flipped(("a", 5, False)),
         lambda: car_suite(4, 5)),
    ],
)
def test_failing_groups_report_the_recorded_failures(monkeypatch, name, target, fault, suite):
    # Tables that mix families, or whose cases interleave with other checks:
    # the t_i* t_j cases and range completeness of the words of `cuntz`, the
    # inverse and norm cases of the subsets and monomials of `roundtrip`,
    # and the transport table of each state of `ccr`, whose failures come
    # after those of the state's brackets.  These faults break each of them.
    # The reports were recorded at commit d3b6d18, and that of `ccr` at
    # commit 952afb4, where each of those cases was checked or compared on
    # its own; they match entry for entry.  The last three faults sit at
    # the corners of the operator tables: the last starred mode of `ccr`'s
    # bracket table, the mode above it that only the transport reads, and
    # the last unstarred mode of `car`'s table, where a table read at a
    # shifted position fails first.  Their reports were recorded at commit
    # 1446635, where those tables were dicts keyed (star, k).
    recorded = json.loads((Path(__file__).parent / "verify_fault_reports.json").read_text())
    monkeypatch.setattr(target, fault)
    report = suite()
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


def test_suites_count_into_their_own_reports_and_branch_vacua_stay_words(monkeypatch):
    # each suite checks its class predicates into the report it returns, so
    # `verify all` builds one report per report returned (52 when every class
    # predicate had a report of its own); the branch suites check their vacua
    # as words, so a passing one builds no State at all (43 for p <= 4, when
    # each vacuum was wrapped in one)
    from cuntzfock import rep, verify

    calls = {"reports": 0, "states": 0}

    def counted(name, f):
        def inner(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return inner

    monkeypatch.setattr(verify.SuiteReport, "__init__",
                        counted("reports", verify.SuiteReport.__init__))
    monkeypatch.setattr(rep.State, "__init__", counted("states", rep.State.__init__))
    reports = verify.run(["all"], CLI_OPTIONS)
    assert all(r.passed for r in reports)
    assert calls["reports"] == len(reports) == 24
    calls["states"] = 0
    suites = [check_branching_boson(p) for p in range(1, 5)]
    suites += [check_branching_fermion(p, starred) for p in range(1, 5) for starred in (False, True)]
    assert all(r.passed and r.cases for r in suites)
    assert calls["states"] == 0


def test_class_predicates_refuse_a_state_that_is_not_one_word(class_report):
    space = RepSpace((1,))
    omega = gp_vector(space)
    two_words = omega + apply("t2", omega)
    for psi in (State.zero(space), two_words):
        with pytest.raises(ValueError, match=re.escape(repr(psi))):
            class_report(psi, 1, 1, 1)
        with pytest.raises(ValueError, match=re.escape(repr(psi))):
            class_report(psi, 1, 1)


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
    for _ in range(len(w.prefix) + len(w.rot) + 2):
        lb = leading_block(reached[-1])
        if lb is None:
            break
        reached.append(lb[1])
    return reached


def test_closed_form_peel_matches_greedy_peeling():
    # one pass per target over the basis of each space, as `branch-oinfty`
    # makes, then over the words of every space at once, whose tails of one
    # length belong to different periods
    pairs = 0
    bases = [list(RepSpace(J).basis_words(4)) for J in _all_defining_words(3)]
    reached = {w: _peeled(w) for basis in bases for w in basis}
    for basis in bases + [list(reached)]:
        for target in basis:
            expected = [w for w in basis if target not in reached[w]]
            assert _unreached(target, basis) == expected, target
            pairs += len(basis)
    assert pairs == 17_408 + 160 * 160


_DEEP_LETTERS = st.lists(st.sampled_from([1, 2]), max_size=12).map(tuple)


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
                min_size=1, max_size=3), st.data())
def test_closed_form_peel_matches_greedy_peeling_on_deep_words(periods, data):
    # one pass over words of up to three periods: tails repeat, so the
    # tail-rotation case is decided once per tail and read again for later words
    heads = st.tuples(_DEEP_LETTERS, st.sampled_from(periods), st.integers(0, 3))
    words = [TailWord(*head) for head in data.draw(st.lists(heads, min_size=1, max_size=8))]
    reached = {w: _peeled(w) for w in words}
    target = data.draw(st.one_of(
        st.sampled_from([v for w in words for v in reached[w]]),
        st.builds(TailWord, _DEEP_LETTERS, st.sampled_from(periods), st.integers(0, 3)),
    ))
    assert _unreached(target, words) == [w for w in words if target not in reached[w]]


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


def test_only_the_delta_brackets_are_summed(monkeypatch):
    # a zero bracket that holds is decided by comparing its two products
    # (ccr: nm == mn, car: nm == -mn), and so is car's t-transport sign;
    # only [x_n, x_n*] adds its terms, ccr's through one negation
    from cuntzfock import verify

    calls = dict.fromkeys(("_plus", "_negated"), 0)

    def counted(name, f):
        def inner(*args):
            calls[name] += 1
            return f(*args)
        return inner

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    for suite, family, negated in ((ccr_suite, verify._boson_family, True),
                                   (car_suite, verify._fermion_family, False)):
        calls.update(_plus=0, _negated=0)
        assert suite(4, 5).passed
        delta_brackets = len(list(family(4, 5))) * 5
        assert calls == {"_plus": delta_brackets, "_negated": delta_brackets * negated}


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
# `verify.basis_map` calls of the branch suites at the CLI defaults, with their case counts.
# Each report builds one table of maps per operator, and its class rungs read the suite's
# table (150 and 520 when every rung loop built a table of its own).
BASIS_MAP_BOUNDS = {
    "branch-boson": (lambda: [check_branching_boson(p) for p in range(1, 4)], 122, 60),
    "branch-fermion": (lambda: [check_branching_fermion(p, starred)
                                for starred in (False, True) for p in range(1, 5)], 826, 160),
}


def test_suites_stay_within_their_engine_call_budgets(monkeypatch):
    from cuntzfock import ladder, rep

    calls = {"engine": 0, "index_to_word": 0, "basis_map": 0}

    def counted(name, f):
        def inner(*args):
            calls[name] += 1
            return f(*args)
        return inner

    monkeypatch.setattr(rep, "map_basis", counted("engine", rep.map_basis))
    monkeypatch.setattr(ladder, "map_basis", rep.map_basis)
    monkeypatch.setattr(verify, "basis_map", counted(
        "basis_map", lambda tok: counted("engine", basis_map(tok))))
    monkeypatch.setattr(verify, "index_to_word", counted("index_to_word", verify.index_to_word))
    for name, (suite, cases, bound) in ENGINE_CALL_BOUNDS.items():
        calls["engine"] = 0
        report = suite()
        assert (report.passed, report.cases) == (True, cases), name
        assert calls["engine"] <= bound, (name, calls)
    report = oracle_suite(dim=1024, sequences=50)
    assert (report.passed, report.cases) == (True, 18_535)
    assert calls["index_to_word"] <= ORACLE_INDEX_TO_WORD_BOUND, calls
    for name, (suite, cases, bound) in BASIS_MAP_BOUNDS.items():
        calls["basis_map"] = 0
        reports = suite()
        assert all(r.passed for r in reports), name
        assert sum(r.cases for r in reports) == cases, name
        assert calls["basis_map"] <= bound, (name, calls)


# Words built (`words._make` calls) by suites at the CLI defaults.  In the
# suites whose operators act through `ladder`, each b/a action builds its
# image as one word and an annihilating one builds none (ccr 29,876, car
# 6,581 and branch-fermion 1,924 when each action built a rest and then its
# image).  `cuntz` and `oracle` build the words of their per-case checks,
# whether a table of `SuiteReport.check_table` holds or is checked case by
# case.
# `branch-oinfty` builds its basis words and decides their reachability
# from the words' letters, building no peeled word.
WORD_BUILD_BOUNDS = {
    "ccr": (lambda: [ccr_suite(4, 5)], 17_591),
    "car": (lambda: [car_suite(4, 5)], 3_093),
    "branch-fermion": (lambda: [check_branching_fermion(p, starred)
                                for starred in (False, True) for p in range(1, 5)], 964),
    "cuntz": (lambda: [cuntz_suite(8)], 52_779),
    "oracle": (lambda: [oracle_suite(1024, 50)], 34_984),
    "branch-oinfty": (lambda: [check_branching_oinfty(value, variant)
                               for variant in "pq" for value in range(1, 5)], 6_210),
}


def test_suites_stay_within_their_word_budgets(monkeypatch):
    from cuntzfock import oracles, rep, words

    built = [0]
    make = words._make

    def counted(*args):
        built[0] += 1
        return make(*args)

    for module in (words, rep, oracles):
        monkeypatch.setattr(module, "_make", counted)
    for name, (suite, bound) in WORD_BUILD_BOUNDS.items():
        built[0] = 0
        assert all(report.passed for report in suite()), name
        assert built[0] <= bound, (name, built[0])


# `SuiteReport.check`/`check_true` calls of passing suites at the CLI
# defaults.  A table of `SuiteReport.check_table` that holds makes none:
# `cuntz` checks every case so; `oracle` checks the codec, the vacuum
# ladders and the pipelines, and counts its s_m index tables in one
# comparison too; `roundtrip` checks only its 9 `enumerate_grade` cases;
# `ccr` and `car` check only their delta brackets, 630 and 155, as their
# zero brackets and car's t-transport cases are counted after comparing
# their two images.  Case by case they made 45,056, 18,535, 8,953, 15,750
# and 3,233 calls; `ccr` made 6,930 when it checked each transport case,
# and `car` 443 when it checked each of its 288 t-rewrite cases.
CHECK_CALL_BOUNDS = {
    "cuntz": (lambda: cuntz_suite(8), 45_056, 0),
    "oracle": (lambda: oracle_suite(1024, 50), 18_535, 103),
    "roundtrip": (lambda: roundtrip_suite(12, 4, 5), 8_953, 9),
    "ccr": (lambda: ccr_suite(4, 5), 15_750, 630),
    "car": (lambda: car_suite(4, 5), 3_233, 155),
}


def test_passing_tables_are_counted_in_one_comparison(monkeypatch):
    calls = [0]

    def counted(f):
        def inner(*args):
            calls[0] += 1
            return f(*args)
        return inner

    for name in ("check", "check_true"):
        monkeypatch.setattr(SuiteReport, name, counted(getattr(SuiteReport, name)))
    for name, (suite, cases, bound) in CHECK_CALL_BOUNDS.items():
        calls[0] = 0
        report = suite()
        assert (report.passed, report.cases) == (True, cases), name
        assert calls[0] <= bound, (name, calls[0])


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

    # every word unreached: the first five are named in enumeration order
    monkeypatch.setattr(verify, "_unreached", lambda target, words: list(words))
    r = check_branching_oinfty(1, "p", depth=2)
    assert r.cases == 3
    (failure,) = r.failures
    assert failure["case"] == "reachability to depth 2"
    assert failure["got"] == "unreached: ['(1)', '2(1)', '12(1)', '22(1)'] (+0)"
    (failure,) = check_branching_oinfty(2, "q", depth=3).failures
    assert failure["got"] == "unreached: ['(112)', '(121)', '(211)', '1(112)', '2(121)'] (+19)"


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


def test_report_json(class_report, monkeypatch):
    monkeypatch.setattr(verify, "RUNGS", 2)
    r = class_report(gp_vector(RepSpace((1,))), 1, 1, 1)
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


def test_every_family_is_counted_by_verify_all():
    # no dead family: every name of the table counts cases at the CLI defaults, and the
    # counts by family of each report add up to its cases
    from cuntzfock import verify

    totals = dict.fromkeys(verify.FAMILIES, 0)
    reports = verify.run(["all"], CLI_OPTIONS)
    for r in reports:
        assert r.passed, (r.suite, r.failures[:3])
        assert list(r.relations) == list(verify.FAMILIES)
        assert sum(r.relations.values()) == r.cases, r.suite
        for family, n in r.relations.items():
            totals[family] += n
    assert [family for family, n in totals.items() if not n] == []
    assert len(set(verify.FAMILIES)) == len(verify.FAMILIES)
    assert reports[0].summary() == (
        "cuntz: PASS [45056 cases] (t-adjoint 28672, t-range 7168, s-adjoint 8192, s-range 1024)"
    )


# The public functions and classes of `verify`.  perfbench's tracer opens a span on
# every call of one, so a helper made public here would be traced on each check.
VERIFY_PUBLIC = {
    "SuiteReport", "boson_branch_witness", "branch_modes", "car_suite",
    "ccr_suite", "check_branching_boson", "check_branching_fermion",
    "check_branching_oinfty", "check_depth", "check_dim", "check_oracle_dim",
    "cuntz_suite", "fermion_branch_witness", "float_oracle",
    "oracle_suite", "roundtrip_suite", "run",
}


def test_verify_keeps_its_public_functions_and_classes():
    tree = ast.parse(Path(verify.__file__).read_text())
    public = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert public == VERIFY_PUBLIC


# The functions and methods of the package that no code of the package reads and that are no
# public name, each with the reason it stays.
UNREAD_IN_PACKAGE = {
    "words.TailWord.letter_at": "reads a letter of a word, as a witness of the branching laws "
                                "as decompositions would, apart from the maps it checks",
    "ladder.fermion_state_iterated": "the fermion state built as iterated a_n*, the reference "
                                     "of `fermion_state` up to the particle bound",
    "oracles.boson_via_shifts": "the definitional oracle of b_n as iterated shifts",
    "oracles.fermion_via_shifts": "the definitional oracle of a_n as iterated shifts",
    "rep.State.inner": "the inner product, by which unitarity and the lift of the basis maps "
                       "to sums of words are checked",
    **{f"{name}.from_json": "the inverse of a README JSON format: round trips show that the "
                            "output loses nothing"
       for name in ("words.TailWord", "radical.RadicalScalar",
                    "correspondence.BosonMonomial", "correspondence.FermionSubset")},
}


def test_the_package_keeps_no_function_that_only_tests_call():
    """Every function and method of the package is read in the package, by name or as an
    attribute, or is public: a name of `cuntzfock.__all__`, of VERIFY_PUBLIC or a `cmd_*` of the
    CLI.  A method counts as read when an attribute or its class body names it.  Dunders are
    exempt, and the rest of the exemptions are UNREAD_IN_PACKAGE."""
    import cuntzfock

    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(cuntzfock.__file__).parent.glob("*.py")}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    read = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    public = set(cuntzfock.__all__) | VERIFY_PUBLIC

    def exempt(name: str) -> bool:
        return name.startswith("__") and name.endswith("__")

    unread = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                command = module == "cli" and node.name.startswith("cmd_")
                if not (node.name in read or node.name in public or command or exempt(node.name)):
                    unread.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                methods = [f for f in node.body if isinstance(f, ast.FunctionDef)]
                # the class body reads a method by name, as the alias `__rmul__ = __mul__` does
                seen = attributes | {name.id for stmt in node.body if stmt not in methods
                                     for name in ast.walk(stmt) if isinstance(name, ast.Name)}
                unread |= {f"{module}.{node.name}.{f.name}" for f in methods
                           if not (f.name in seen or exempt(f.name))}
    assert unread == set(UNREAD_IN_PACKAGE)
