from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzfock.radical import ONE, promote, sqrt_of_nat
from cuntzfock.rep import (
    RepSpace,
    SpaceMismatchError,
    State,
    apply_rho,
    apply_s,
    apply_s_star,
    apply_t,
    apply_t_star,
    apply_t_word,
    apply_zeta,
    gp_vector,
)
from cuntzfock.words import TailWord, index_to_word, pure, word_to_index

P1 = RepSpace((1,))
P21 = RepSpace((2, 1))


def basis(space, prefix=(), phase=0):
    return State.basis(space, TailWord(prefix, space.period, phase))


def test_gp_vector_is_fixed_by_its_cycle_word():
    for J in [(1,), (2, 1), (2, 2, 1), (1, 1, 2)]:
        space = RepSpace(J)
        om = gp_vector(space)
        assert apply_t_word(J, om) == om
        assert om.norm2() == ONE


def test_gp_examples():
    assert apply_t(1, gp_vector(P1)) == gp_vector(P1)
    om = gp_vector(P21)
    assert apply_t(2, apply_t(1, om)) == om


def test_state_arithmetic_and_mismatch():
    a = basis(P1)
    b = basis(P1, (2,))
    s = a + 2 * b
    assert s.coeff(pure((1,))) == ONE
    assert s.coeff(TailWord((2,), (1,))) == promote(2)
    assert (s - s).is_zero()
    with pytest.raises(SpaceMismatchError):
        a + gp_vector(P21)
    with pytest.raises(SpaceMismatchError):
        State.basis(P1, pure((2, 1)))


def test_isometry_relations_sample():
    psi = basis(P1, (1, 2, 2)) + sqrt_of_nat(2) * basis(P1, (2,))
    for i in (1, 2):
        assert apply_t_star(i, apply_t(i, psi)) == psi
        j = 3 - i
        assert apply_t_star(j, apply_t(i, psi)).is_zero()
    total = apply_t(1, apply_t_star(1, psi)) + apply_t(2, apply_t_star(2, psi))
    assert total == psi


def test_inner_product_orthonormal():
    a = basis(P1, (2,))
    b = basis(P1, (1, 2))
    assert a.inner(a) == ONE
    assert a.inner(b).is_zero()


def test_apply_s_matches_codec_formula():
    for m in range(1, 9):
        for n in (1, 2, 3, 17, 100):
            st = apply_s(m, State.basis(P1, index_to_word(n)))
            ((w, c),) = st.items()
            assert c == ONE
            assert word_to_index(w) == 2 ** (m - 1) * (2 * n - 1)


def test_apply_s_examples():
    e1 = State.basis(P1, index_to_word(1))
    ((w, _),) = apply_s(3, e1).items()
    assert word_to_index(w) == 4
    ((w, _),) = apply_s(2, gp_vector(P1)).items()
    assert word_to_index(w) == 2


def test_s_isometries():
    psi = basis(P1, (1, 2)) + basis(P1, (2, 2))
    for m in range(1, 9):
        assert apply_s_star(m, apply_s(m, psi)) == psi
        assert apply_s_star(m + 1, apply_s(m, psi)).is_zero()


def identity(state):
    return state


def test_rho_of_identity_is_identity_on_blocks():
    for w in P1.basis_words(10):
        psi = State.basis(P1, w)
        assert apply_rho(identity, psi) == psi
    # no leading block: the range sum annihilates
    p2 = RepSpace((2,))
    assert apply_rho(identity, gp_vector(p2)).is_zero()


def test_zeta_of_identity_is_grading():
    om = gp_vector(P1)
    assert apply_zeta(identity, om) == om
    e2 = basis(P1, (2,))
    assert apply_zeta(identity, e2) == -e2


def test_zeta_shifts_the_first_fermion():
    # zeta(a_1) = a_2 and zeta^2(a_1) = a_3 on every basis word to depth 10
    from cuntzfock.ladder import apply_fermion

    def a1(state):
        return apply_t(1, apply_t_star(2, state))

    for w in P1.basis_words(10):
        psi = State.basis(P1, w)
        assert apply_zeta(a1, psi) == apply_fermion(False, 2, psi)
        assert apply_zeta(partial(apply_zeta, a1), psi) == apply_fermion(False, 3, psi)


def test_operator_adjoints():
    # <t_2 t_1* psi, phi> = <psi, t_1 t_2* phi>
    psi = basis(P1, (1, 2))
    phi = basis(P1, (2, 2))
    lhs = apply_t(2, apply_t_star(1, psi)).inner(phi)
    assert lhs == psi.inner(apply_t(1, apply_t_star(2, phi)))
    assert lhs == ONE


# -- s_m and s_m* against their letter compositions --------------------------

_SPACES = [RepSpace((1,)), RepSpace((2, 1)), RepSpace((1, 2, 2))]


@st.composite
def _states(draw):
    """A few basis words of one space with non-unit coefficients.

    Prefixes of 2s are drawn often, so some words start with a whole
    block 2^(m-1) 1 and others run out of 2s or meet a 1 too early.
    """
    space = draw(st.sampled_from(_SPACES))
    letters = st.one_of(
        st.lists(st.sampled_from([1, 2]), max_size=8),
        st.tuples(st.integers(0, 7), st.lists(st.sampled_from([1, 2]), max_size=4)).map(
            lambda t: [2] * t[0] + t[1]
        ),
    )
    terms = draw(
        st.lists(
            st.tuples(letters, st.integers(0, len(space.period) - 1), st.integers(-9, 9)),
            min_size=1,
            max_size=5,
        )
    )
    state = State.zero(space)
    for prefix, phase, k in terms:
        w = TailWord(tuple(prefix), space.period, phase)
        state = state + State.basis(space, w, sqrt_of_nat(2) * k + promote(k + 3))
    return state


def _s_star_by_letters(m, psi):
    for _ in range(m - 1):
        psi = apply_t_star(2, psi)
    return apply_t_star(1, psi)


@settings(max_examples=300)
@given(_states(), st.integers(1, 6))
def test_block_generators_match_letter_compositions(psi, m):
    assert apply_s(m, psi) == apply_t_word((2,) * (m - 1) + (1,), psi)
    assert apply_s_star(m, psi) == _s_star_by_letters(m, psi)


def test_block_generators_reject_index_zero():
    with pytest.raises(ValueError):
        apply_s(0, gp_vector(P1))
    with pytest.raises(ValueError):
        apply_s_star(0, gp_vector(P1))


def test_state_json():
    psi = basis(P1, (2,)) * sqrt_of_nat(2)
    data = psi.to_json()
    assert data["space"] == "P2(1)"
    assert data["terms"][0]["word"]["prefix"] == "2"


def test_basis_words_canonical_and_distinct():
    for J in [(1,), (2, 1), (1, 2, 2)]:
        space = RepSpace(J)
        words = list(space.basis_words(5))
        assert len(words) == len(set(words))
        for w in words:
            assert TailWord(w.prefix, w.period, w.phase) == w
