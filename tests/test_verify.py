import pytest

from cuntzfock.radical import ONE
from cuntzfock.rep import RepSpace, apply_t_word, gp_vector
from cuntzfock.verify import (
    SuiteReport,
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
    parse_op_token,
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
    assert cuntz_suite(max_j_len=2, depth=4, oinfty_max=4, oinfty_depth=3).passed
    assert ccr_suite(op_max=3, max_particles=2, max_mode=3, intertwine_max=3).passed
    assert car_suite(op_max=3, max_particles=2, max_mode=3, word_identity_max=3).passed


def test_roundtrip_suite_small():
    assert roundtrip_suite(max_subset=6, max_particles=3, max_mode=4).passed


def test_float_oracle_permutation_sequence_is_exact():
    res = float_oracle(256, ["t2", "t1", "t2*"], 1)
    assert res.ok and res.deviation == 0.0


def test_float_oracle_ladder_weights():
    res = float_oracle(256, ["b1*", "b1"], 1)
    assert res.ok and res.deviation <= 1e-9
    res = float_oracle(256, ["a3*"], 1)
    assert res.ok and res.deviation <= 1e-9


def test_float_oracle_overflow_reported():
    res = float_oracle(4, ["t2", "t2", "t2"], 1)
    assert res.overflow and res.deviation is None


def test_float_oracle_rejects_bad_dim():
    with pytest.raises(ValueError):
        float_oracle(100, ["t1"])
    with pytest.raises(ValueError):
        float_oracle(2 ** 15, ["t1"])


def test_parse_op_token():
    assert parse_op_token("t1") == ("t", 1, False)
    assert parse_op_token("s12*") == ("s", 12, True)
    with pytest.raises(ValueError):
        parse_op_token("t3")
    with pytest.raises(ValueError):
        parse_op_token("x1")


def test_oracle_suite_small():
    r = oracle_suite(
        dim=256,
        sequences=20,
        max_index=1024,
        ladder_max=6,
        embed_max_m=8,
        embed_max_n=64,
    )
    assert r.passed, r.failures[:3]


def test_report_json():
    r = check_bf_class(gp_vector(RepSpace((1,))), 1, 1, 1, n_max=2)
    data = r.to_json()
    assert data["pass"] is True and data["cases"] == 2


def test_oracle_suite_fails_a_nan_deviation(monkeypatch):
    from cuntzfock import verify

    nan = verify.FloatOracleResult(overflow=False, deviation=float("nan"))
    monkeypatch.setattr(verify, "float_oracle", lambda dim, ops, start=1: nan)
    r = oracle_suite(dim=256, sequences=5, max_index=64, ladder_max=2, embed_max_m=2,
                     embed_max_n=8)
    random_failures = [f for f in r.failures if f["case"].startswith("random pipeline")]
    assert len(random_failures) == 5
