"""Acceptance gate: every criterion at its stated scale, one line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
All comparisons are exact.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from cuntzfock import correspondence as corr
from cuntzfock import verify
from cuntzfock.correspondence import BosonMonomial, FermionSubset
from cuntzfock.ladder import apply
from cuntzfock.radical import (
    ONE,
    RadicalScalar,
    _square_split,
    promote,
    sqrt_of_nat,
)
from cuntzfock.rep import RepSpace, State, gp_vector

P1 = RepSpace((1,))
OMEGA = gp_vector(P1)

# Case counts of the relation and oracle suites at their default (acceptance)
# parameters; a dropped or duplicated case changes them.
CRITERION_5_CASES = {"cuntz": 152_576, "ccr": 15_750, "car": 3_233}
CRITERION_7_CASES = 67_837


def _line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def _bosons(*modes) -> State:
    return apply(" ".join(f"b{n}*" for n in modes), OMEGA)


def _fermions(*modes) -> State:
    return apply(" ".join(f"a{n}*" for n in modes), OMEGA)


def _monomials(max_particles: int, max_mode: int):
    for n in range(max_particles + 1):
        for modes in itertools.combinations_with_replacement(range(1, max_mode + 1), n):
            yield BosonMonomial.from_modes(modes)


def test_criterion_1_example_tables():
    t0 = time.time()
    checks = 0
    r2, r6 = sqrt_of_nat(2), sqrt_of_nat(6)
    for n in range(1, 7):
        assert _bosons(n) == _fermions(n)
        assert _bosons(n, n) == r2 * _fermions(n, n + 1)
        assert _bosons(n, n, n) == r6 * _fermions(n, n + 1, n + 2)
        checks += 3
        for m in range(n + 1, 7):
            assert _bosons(n, m) == _fermions(n, m + 1)
            assert _bosons(n, m, m) == r2 * _fermions(n, m + 1, m + 2)
            assert _bosons(n, n, m) == r2 * _fermions(n, n + 1, m + 2)
            checks += 3
            for l in range(m + 1, 7):
                assert _bosons(n, m, l) == _fermions(n, m + 1, l + 2)
                checks += 1
    # powers of one mode against a consecutive fermion run
    for n in range(1, 7):
        for mult in range(1, 6):
            lhs = _bosons(*([n] * mult))
            rhs = sqrt_of_nat(math.factorial(mult)) * _fermions(*range(n, n + mult))
            assert lhs == rhs
            checks += 1
    # simple-mode products spread out with shifts 0, 1, ..., l-1
    for l in range(1, 6):
        for modes in itertools.combinations(range(1, 7), l):
            lhs = _bosons(*modes)
            rhs = _fermions(*(m + j for j, m in enumerate(modes)))
            assert lhs == rhs
            checks += 1
        # consecutive modes: gaps of two
        for n in range(1, 7):
            run = tuple(range(n, n + l))
            assert _bosons(*run) == _fermions(*(n + 2 * j for j in range(l)))
            checks += 1
    _line(
        "criterion-1 example tables",
        True,
        f"({checks} identities, {time.time() - t0:.2f}s)",
    )


def test_criterion_2_operational_equality():
    t0 = time.time()
    family = list(_monomials(6, 7))
    assert len(family) >= 1715
    for M in family:
        assert corr.forward_operational(M) == corr.forward(M)
    _line(
        "criterion-2 operational transfer equality",
        True,
        f"({len(family)} monomials, {time.time() - t0:.2f}s)",
    )


def test_criterion_3_inverse_consistency():
    t0 = time.time()
    count = 0
    for r in range(1, 13):
        for elements in itertools.combinations(range(1, 13), r):
            S = FermionSubset(elements)
            pair = corr.inverse(S)
            back = corr.forward(pair.boson)
            assert back.fermion == S
            assert back.coeff * pair.coeff == ONE
            count += 1
    assert count == 4095
    for M in _monomials(6, 7):
        fwd = corr.forward(M)
        if M.factors:
            assert corr.inverse(fwd.fermion).boson == M
        assert fwd.coeff * corr.inverse(fwd.fermion).coeff == ONE
    _line(
        "criterion-3 inverse consistency",
        True,
        f"({count} subsets, {time.time() - t0:.2f}s)",
    )


def test_criterion_4_particle_number():
    t0 = time.time()
    for M in _monomials(6, 7):
        assert corr.forward(M).fermion.particle_number == M.particle_number
    for n in range(5):
        pairs = corr.enumerate_grade(n, 6)
        images = {p.fermion for p in pairs}
        assert len(images) == len(pairs)
        assert all(p.fermion.particle_number == n for p in pairs)
    _line("criterion-4 particle-number conservation", True, f"({time.time() - t0:.2f}s)")


def test_criterion_5_relation_suites():
    t0 = time.time()
    reports = [verify.cuntz_suite(), verify.ccr_suite(), verify.car_suite()]
    counts = {r.suite: r.cases for r in reports}
    ok = all(r.passed for r in reports) and counts == CRITERION_5_CASES
    cases = sum(counts.values())
    detail = "; ".join(r.summary() for r in reports if not r.passed)
    if counts != CRITERION_5_CASES:
        detail += f" case counts {counts}, expected {CRITERION_5_CASES}"
    _line(
        "criterion-5 relation suites",
        ok,
        detail or f"({cases} cases, {time.time() - t0:.2f}s)",
    )


def test_criterion_6_branching(class_report, monkeypatch):
    t0 = time.time()
    reports = []
    for v in range(1, 5):
        for variant in ("p", "q"):
            reports.append(verify.check_branching_oinfty(v, variant, depth=8))
    for p in (1, 2, 3):
        reports.append(verify.check_branching_boson(p))
    for p in range(1, 5):
        reports.append(verify.check_branching_fermion(p, starred=False))
        reports.append(verify.check_branching_fermion(p, starred=True))
    ok = all(r.passed for r in reports)
    detail = "; ".join(r.summary() for r in reports if not r.passed)

    # negative controls: wrong labels and flipped signs must be caught; at p = 2
    # the first branch vacuum has residue p, so residue 1 is a wrong label
    boson_vacuum = verify.boson_branch_witness(2)[0]
    fermion_vacuum = verify.fermion_branch_witness(2)[0]
    monkeypatch.setattr(verify, "RUNGS", 3)
    controls_fail = [class_report(OMEGA, 1, 1, 2), class_report(OMEGA, 2, 1)]
    monkeypatch.setattr(verify, "RUNGS", 2)
    controls_fail += [
        class_report(State.basis(RepSpace(boson_vacuum.period), boson_vacuum), 2, 1, 2),
        class_report(State.basis(RepSpace(fermion_vacuum.period), fermion_vacuum), 2, 1),
    ]
    ok = ok and all(not r.passed for r in controls_fail)
    # exact sign control: the first-rung image of the (2 1) cycle vector
    # is minus the doubled letter word, so the unsigned claim must fail
    omega21 = gp_vector(RepSpace((2, 1)))
    got = apply("a2*", omega21)
    minus = apply("t2 t2", omega21) * (-1)
    plus = apply("t2 t2", omega21)
    ok = ok and got == minus and got != plus
    cases = sum(r.cases for r in reports)
    _line(
        "criterion-6 branching witnesses",
        ok,
        detail or f"({cases} cases incl. negative controls, {time.time() - t0:.2f}s)",
    )


def test_criterion_7_codec_and_oracle():
    t0 = time.time()
    report = verify.oracle_suite()
    detail = "; ".join(str(f) for f in report.failures[:3])
    if report.cases != CRITERION_7_CASES:
        detail += f" {report.cases} cases, expected {CRITERION_7_CASES}"
    _line(
        "criterion-7 codec and exact l2(N) oracle",
        report.passed and report.cases == CRITERION_7_CASES,
        detail or f"({report.cases} cases, {time.time() - t0:.2f}s)",
    )


def test_criterion_8_scalar_arithmetic():
    t0 = time.time()
    squarefree = [d for d in range(1, 101) if _square_split(d)[0] == 1]
    rng = random.Random(20240809)

    def rand_scalar():
        picks = rng.sample(squarefree, rng.randint(1, 3))
        return RadicalScalar(
            {
                d: Fraction(rng.randint(-(10 ** 6), 10 ** 6), rng.randint(1, 10 ** 6))
                for d in picks
            }
        )

    for _ in range(100_000):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
    for x in (rand_scalar() for _ in range(1000)):
        for d, q in x.terms.items():
            assert d >= 1 and _square_split(d)[0] == 1 and q != 0
        direct = sum(float(q) * math.sqrt(d) for d, q in x.terms.items())
        assert abs(x.to_float() - direct) <= 1e-12 * max(1.0, abs(direct))
    for n in range(1, 10_001):
        assert sqrt_of_nat(n) * sqrt_of_nat(n) == promote(n)
    _line(
        "criterion-8 scalar arithmetic",
        True,
        f"(1e5 random triples, {time.time() - t0:.2f}s)",
    )
