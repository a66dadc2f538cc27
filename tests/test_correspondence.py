import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzfock.correspondence import (
    MAX_MODE,
    MAX_PARTICLES,
    BosonMonomial,
    BoundsError,
    FermionSubset,
    enumerate_grade,
    forward,
    forward_operational,
    grade_table_tsv,
    inverse,
)
from cuntzfock.ladder import (
    apply_boson,
    apply_fermion,
    boson_state,
    fermion_state,
    parse_fermion_word,
)
from cuntzfock.radical import ONE, sqrt_factorial_product, sqrt_of_nat
from cuntzfock.rep import State


def bm(*pairs):
    return BosonMonomial(tuple(pairs))


def fs(*elems):
    return FermionSubset(tuple(elems))


def test_inverse_splits_runs():
    # each maximal run of consecutive modes is one boson factor, its start
    # shifted down by the size of the runs before it
    assert inverse(fs(1, 2, 4)).boson == bm((1, 2), (2, 1))
    assert inverse(fs(7)).boson == bm((7, 1))
    assert inverse(fs(3, 4, 5, 9, 10)).boson == bm((3, 3), (6, 2))
    assert inverse(fs(1, 3, 4, 6, 7, 8)).boson == bm((1, 1), (2, 2), (3, 3))
    assert inverse(fs()) == forward(bm())


def test_forward_single_mode():
    for n in range(1, 7):
        pair = forward(bm((n, 1)))
        assert pair.fermion == fs(n)
        assert pair.coeff == ONE


def test_forward_known_values():
    pair = forward(bm((3, 2)))
    assert pair.fermion == fs(3, 4) and pair.coeff == sqrt_of_nat(2)
    pair = forward(bm((2, 2), (5, 1)))
    assert pair.fermion == fs(2, 3, 7) and pair.coeff == sqrt_of_nat(2)
    # a run of simple modes spreads out with gaps of two
    for n in range(1, 4):
        for l in range(1, 5):
            M = BosonMonomial.from_modes(range(n, n + l))
            assert forward(M).fermion == fs(*(n + 2 * j for j in range(l)))
    # vacuum
    pair = forward(bm())
    assert pair.fermion == fs() and pair.coeff == ONE


def test_forward_operational_matches():
    for modes in itertools.combinations_with_replacement(range(1, 5), 4):
        M = BosonMonomial.from_modes(modes)
        assert forward_operational(M) == forward(M)


def test_inverse_examples():
    pair = inverse(fs(1, 2, 4))
    assert pair.boson == bm((1, 2), (2, 1))
    assert pair.coeff == ONE / sqrt_of_nat(2)
    assert inverse(fs(7)).boson == bm((7, 1))
    assert inverse(fs(1, 3, 5)).boson == bm((1, 1), (2, 1), (3, 1))


def test_round_trip_subsets():
    for r in range(1, 9):
        for elements in itertools.combinations(range(1, 9), r):
            S = fs(*elements)
            pair = inverse(S)
            back = forward(pair.boson)
            assert back.fermion == S
            assert back.coeff * pair.coeff == ONE


def test_round_trip_monomials():
    for n in range(5):
        for modes in itertools.combinations_with_replacement(range(1, 5), n):
            M = BosonMonomial.from_modes(modes)
            pair = forward(M)
            assert pair.fermion.particle_number == M.particle_number
            if n:
                assert inverse(pair.fermion).boson == M


# Past the exhaustive windows above: modes up to 40, at most 12 particles.
_modes_40 = st.lists(st.integers(1, 40), max_size=12)


@settings(max_examples=300, deadline=None)
@given(_modes_40)
def test_round_trip_monomials_beyond_the_window(modes):
    M = BosonMonomial.from_modes(modes)
    pair = forward(M)
    back = inverse(pair.fermion)
    assert back.boson == M
    assert pair.coeff * back.coeff == ONE
    assert pair.fermion.particle_number == M.particle_number == len(modes)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(1, 40), max_size=12))
def test_round_trip_subsets_beyond_the_window(elements):
    S = FermionSubset(tuple(sorted(elements)))
    assert forward(inverse(S).boson).fermion == S


def test_particle_number():
    assert bm((1, 2), (3, 1)).particle_number == 3
    assert fs(2, 5, 6).particle_number == 3
    assert bm().particle_number == fs().particle_number == 0


def test_enumerate_grade():
    pairs = enumerate_grade(1, 3)
    assert [(p.boson, p.fermion) for p in pairs] == [
        (bm((1, 1)), fs(1)),
        (bm((2, 1)), fs(2)),
        (bm((3, 1)), fs(3)),
    ]
    pairs = enumerate_grade(0, 5)
    assert len(pairs) == 1 and pairs[0].fermion == fs()
    pairs = enumerate_grade(2, 2)
    assert [(p.boson, p.fermion, p.coeff) for p in pairs] == [
        (bm((1, 2)), fs(1, 2), sqrt_of_nat(2)),
        (bm((1, 1), (2, 1)), fs(1, 3), ONE),
        (bm((2, 2)), fs(2, 3), sqrt_of_nat(2)),
    ]
    images = [p.fermion for p in enumerate_grade(3, 3)]
    assert len(images) == 10 and len(set(images)) == 10
    # rows come in the lex order of their sorted mode multisets
    for n in range(5):
        for m in range(1, 7):
            keys = [
                tuple(mode for mode, k in p.boson.factors for _ in range(k))
                for p in enumerate_grade(n, m)
            ]
            assert keys == sorted(set(keys)) and len(keys) == math.comb(n + m - 1, n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.integers(-3, 8))
def test_enumerate_grade_matches_from_modes(n, m):
    # the definitional rows: each sorted mode multiset through from_modes
    expected = [
        forward(BosonMonomial.from_modes(c))
        for c in itertools.combinations_with_replacement(range(1, m + 1), n)
    ]
    assert enumerate_grade(n, m) == expected
    if m <= 0:
        # no mode to put a particle in: only the vacuum row of grade 0
        assert expected == ([forward(bm())] if n == 0 else [])


def _multiplicity_patterns(total: int) -> list[tuple[int, ...]]:
    """Every tuple of parts >= 2 whose sum is at most total."""
    patterns = frontier = [()]
    while frontier:
        frontier = [ks + (k,) for ks in frontier for k in range(2, total - sum(ks) + 1)]
        patterns = patterns + frontier
    return patterns


def test_norm_cache_holds_one_entry_per_pattern(monkeypatch):
    from cuntzfock import correspondence

    patterns = _multiplicity_patterns(MAX_PARTICLES)
    assert len(patterns) == len(set(patterns)) == 233
    monkeypatch.setattr(correspondence, "_NORMS", {})
    for n in range(5):
        for modes in itertools.combinations_with_replacement(range(1, 7), n):
            forward(BosonMonomial.from_modes(modes))
    rng = random.Random(15)
    for _ in range(2000):
        inverse(FermionSubset(sorted(rng.sample(range(1, 29), rng.randint(0, 12)))))
    assert set(correspondence._NORMS) <= set(patterns)
    for ks in patterns:
        norm, reciprocal = correspondence._norms(ks)
        assert norm == sqrt_factorial_product(ks)
        assert reciprocal == ONE / norm
        assert norm * reciprocal == ONE
        assert (norm is ONE) == (reciprocal is ONE) == (not ks)
    assert len(correspondence._NORMS) == 233


def test_coefficient_is_sqrt_of_integer():
    for modes in itertools.combinations_with_replacement(range(1, 5), 5):
        M = BosonMonomial.from_modes(modes)
        c = forward(M).coeff
        expected = math.prod(math.factorial(k) for _, k in M.factors)
        assert (c * c).rational_value() == expected


def test_tsv_rendering():
    text = grade_table_tsv(enumerate_grade(1, 2))
    lines = text.strip().split("\n")
    assert lines[0] == "boson\tfermion\tcoeff\tcoeff_decimal"
    assert lines[1] == "1\t1\t1\t1"


def test_pair_json():
    pair = forward(bm((1, 2)))
    data = pair.to_json()
    assert data["fermion"] == [1, 2]
    assert data["boson"] == {"factors": [{"mode": 1, "mult": 2}]}
    assert data["coeff"]["terms"] == [{"radicand": 2, "num": 1, "den": 1}]


def test_forward_operational_errors_name_the_monomial(monkeypatch):
    from cuntzfock import ladder
    from cuntzfock.ladder import boson_state, fermion_state
    from cuntzfock.rep import EngineError

    M = bm((2, 3), (5, 1))
    two_terms = boson_state(M) + fermion_state(fs(1, 3))
    monkeypatch.setattr(ladder, "boson_state_iterated", lambda m: two_terms)
    with pytest.raises(EngineError, match=re.escape(str(M))):
        forward_operational(M)
    # a single word that does not read back as a fermion monomial
    monkeypatch.setattr(ladder, "boson_state_iterated", boson_state)
    monkeypatch.setattr(ladder, "parse_fermion_word", lambda w: None)
    with pytest.raises(EngineError, match=re.escape(str(M))):
        forward_operational(M)


def test_forward_operational_takes_its_own_route(monkeypatch):
    # it reaches the word by creations alone, not through the closed forms it checks
    from cuntzfock import correspondence, ladder, oracles

    multisets = itertools.combinations_with_replacement(range(1, 5), 3)
    monomials = [BosonMonomial.from_modes(c) for c in multisets]
    want = [forward(M) for M in monomials]

    def boom(*args):
        raise AssertionError(f"closed form reached with {args}")

    for mod, name in [(correspondence, "forward"), (correspondence, "inverse"),
                      (ladder, "boson_state"), (oracles, "leading_block")]:
        monkeypatch.setattr(mod, name, boom)
    assert [forward_operational(M) for M in monomials] == want


def test_forward_operational_refuses_an_annihilated_word(monkeypatch):
    from cuntzfock import ladder
    from cuntzfock.rep import EngineError

    M = bm((2, 3), (5, 1))
    monkeypatch.setattr(ladder, "_boson_word", lambda create, n, w: None)
    assert ladder.boson_state_iterated(M).is_zero()
    with pytest.raises(EngineError, match=re.escape(str(M))):
        forward_operational(M)


# -- monomials and pairs are immutable values ---------------------------------


def _assert_same_as_checked(pair):
    """The monomials of pair equal, and hash like, the ones the checking constructors build."""
    boson, fermion = pair.boson, pair.fermion
    checked_boson = BosonMonomial(boson.factors)
    checked_fermion = FermionSubset(fermion.elements)
    assert boson.particle_number == checked_boson.particle_number == len(fermion.elements)
    assert fermion.particle_number == len(fermion.elements)
    assert boson == checked_boson and hash(boson) == hash(checked_boson)
    assert fermion == checked_fermion and hash(fermion) == hash(checked_fermion)
    assert type(boson.factors) is tuple and all(type(f) is tuple for f in boson.factors)
    assert type(fermion.elements) is tuple


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, MAX_MODE), max_size=MAX_PARTICLES),
    st.sets(st.integers(1, 40), max_size=MAX_PARTICLES),
    st.integers(0, MAX_PARTICLES),
    st.integers(-1, 4),
)
def test_unchecked_builders_make_the_checked_values(modes, elements, n, m):
    pair = forward(BosonMonomial.from_modes(modes))
    _assert_same_as_checked(pair)
    S = FermionSubset(sorted(elements))
    _assert_same_as_checked(inverse(S))
    _assert_same_as_checked(inverse(pair.fermion))
    for row in enumerate_grade(n, m):
        assert row.boson.particle_number == n
        _assert_same_as_checked(row)
    ((word, _),) = fermion_state(S).items()
    read = parse_fermion_word(word)
    assert read == S and hash(read) == hash(S) and type(read.elements) is tuple


@settings(max_examples=200, deadline=None)
@given(_modes_40)
def test_monomial_is_a_value(modes):
    M = BosonMonomial.from_modes(modes)
    # equality and hash follow the factor tuple, whatever sequence it came in
    same = BosonMonomial(list(M.factors))
    assert same == M and hash(same) == hash(M) and type(same.factors) is tuple
    other = BosonMonomial.from_modes(modes[:-1])
    assert (other == M) == (other.factors == M.factors) == (not modes)
    assert repr(M) == f"BosonMonomial(factors={M.factors!r})"
    assert BosonMonomial.from_json(M.to_json()) == M
    assert M.particle_number == sum(k for _, k in M.factors) == len(modes)
    with pytest.raises(AttributeError):
        M.factors = ()


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(1, 40), max_size=12))
def test_subset_is_a_value(elements):
    S = FermionSubset(sorted(elements))
    assert type(S.elements) is tuple
    same = FermionSubset(tuple(sorted(elements)))
    assert same == S and hash(same) == hash(S)
    smaller = FermionSubset(S.elements[1:])
    assert (smaller == S) == (smaller.elements == S.elements) == (not elements)
    assert repr(S) == f"FermionSubset(elements={S.elements!r})"
    assert FermionSubset.from_json(S.to_json()) == S
    assert S.particle_number == len(elements)
    with pytest.raises(AttributeError):
        S.elements = ()
    # a set built from a list transfers to a pair that holds tuples too
    assert type(inverse(FermionSubset(list(S.elements))).fermion.elements) is tuple


@settings(max_examples=200, deadline=None)
@given(_modes_40)
def test_pair_is_a_value(modes):
    M = BosonMonomial.from_modes(modes)
    pair = forward(M)
    again = forward(BosonMonomial.from_modes(reversed(modes)))
    assert again == pair and hash(again) == hash(pair)
    # inverse gives the same monomials with the reciprocal factor
    assert (inverse(pair.fermion) == pair) == (pair.coeff == ONE)
    assert repr(pair) == (
        f"CorrespondencePair(boson={M!r}, fermion={pair.fermion!r}, coeff={pair.coeff!r})"
    )
    for attr in ("boson", "fermion", "coeff"):
        with pytest.raises(AttributeError):
            setattr(pair, attr, getattr(pair, attr))


def test_reprs_keep_their_text():
    # verify's failure records print these
    assert repr(bm((1, 2))) == "BosonMonomial(factors=((1, 2),))"
    assert repr(fs()) == "FermionSubset(elements=())"
    assert repr(forward(bm((1, 2)))) == (
        "CorrespondencePair(boson=BosonMonomial(factors=((1, 2),)), "
        "fermion=FermionSubset(elements=(1, 2)), coeff=sqrt(2))"
    )


# -- particle number, through the space -----------------------------------------


def _number_operator(apply, top: int, state: State) -> State:
    """sum_{n <= top} x_n* x_n on state, for x = b (apply_boson) or a (apply_fermion)."""
    total = State.zero(state.space)
    for n in range(1, top + 1):
        total = total + apply(True, n, apply(False, n, state))
    return total


def test_particle_number_through_the_space():
    """U keeps the particle number: both number operators, truncated at the
    state's top mode, act as k on every pair with k particles, and the ladder
    operator one mode above the top annihilates the state."""
    cases = 0
    for k in range(5):
        for modes in itertools.combinations_with_replacement(range(1, 6), k):
            M = BosonMonomial.from_modes(modes)
            psi = boson_state(M)
            top = M.max_mode
            assert _number_operator(apply_boson, top, psi) == psi * k
            assert apply_boson(False, top + 1, psi).is_zero()
            S = forward(M).fermion
            phi = fermion_state(S)
            top = S.elements[-1] if S.elements else 0
            assert _number_operator(apply_fermion, top, phi) == phi * k
            assert apply_fermion(False, top + 1, phi).is_zero()
            cases += 1
    assert cases == 126


def test_particle_bound_comes_before_the_norm(monkeypatch):
    from cuntzfock import correspondence

    def no_norm(ks):
        raise AssertionError("norm factor taken before the particle bound was checked")

    monkeypatch.setattr(correspondence, "sqrt_factorial_product", no_norm)
    with pytest.raises(BoundsError):
        forward(BosonMonomial.from_modes([1] * 5 + [4] * 8))
    with pytest.raises(BoundsError):
        inverse(FermionSubset(range(1, 14)))
