from fractions import Fraction
from functools import partial
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzfock import correspondence, ladder
from cuntzfock.correspondence import MAX_MODE, BosonMonomial, BoundsError
from cuntzfock.ladder import apply, basis_map, parse_op_token
from cuntzfock.oracles import apply_rho, apply_zeta
from cuntzfock.radical import ONE, promote, sqrt_of_nat
from cuntzfock.rep import (
    EngineError,
    RepSpace,
    SpaceMismatchError,
    State,
    generator_map,
    gp_vector,
    map_basis,
    prepend_map,
    strip_map,
)
from cuntzfock.words import (
    TailWord, _make, block, index_to_word, prepend_letters, pure, unroll, word_to_index,
)

P1 = RepSpace((1,))
P21 = RepSpace((2, 1))


def basis(space, prefix=(), phase=0):
    return State.basis(space, TailWord(prefix, space.period, phase))


def test_gp_vector_is_fixed_by_its_cycle_word():
    for J in [(1,), (2, 1), (2, 2, 1), (1, 1, 2)]:
        space = RepSpace(J)
        om = gp_vector(space)
        assert apply(" ".join(f"t{i}" for i in J), om) == om
        assert om.inner(om) == ONE


def test_gp_examples():
    assert apply("t1", gp_vector(P1)) == gp_vector(P1)
    om = gp_vector(P21)
    assert apply("t2 t1", om) == om


def test_state_arithmetic_and_mismatch():
    a = basis(P1)
    b = basis(P1, (2,))
    s = a + 2 * b
    assert s.coeff(pure((1,))) == ONE
    assert s.coeff(TailWord((2,), (1,))) == promote(2)
    assert not (s - s)
    with pytest.raises(SpaceMismatchError):
        a + gp_vector(P21)
    with pytest.raises(SpaceMismatchError):
        State.basis(P1, pure((2, 1)))


def test_isometry_relations_sample():
    psi = basis(P1, (1, 2, 2)) + sqrt_of_nat(2) * basis(P1, (2,))
    for i in (1, 2):
        assert apply(f"t{i}* t{i}", psi) == psi
        j = 3 - i
        assert not apply(f"t{j}* t{i}", psi)
    total = apply("t1 t1*", psi) + apply("t2 t2*", psi)
    assert total == psi


def test_inner_product_orthonormal():
    a = basis(P1, (2,))
    b = basis(P1, (1, 2))
    assert a.inner(a) == ONE
    assert not a.inner(b)


def test_apply_s_matches_codec_formula():
    for m in range(1, 9):
        for n in (1, 2, 3, 17, 100):
            st = apply(f"s{m}", State.basis(P1, index_to_word(n)))
            ((w, c),) = st.items()
            assert c == ONE
            assert word_to_index(w) == 2 ** (m - 1) * (2 * n - 1)


def test_apply_s_examples():
    e1 = State.basis(P1, index_to_word(1))
    ((w, _),) = apply("s3", e1).items()
    assert word_to_index(w) == 4
    ((w, _),) = apply("s2", gp_vector(P1)).items()
    assert word_to_index(w) == 2


def test_s_isometries():
    psi = basis(P1, (1, 2)) + basis(P1, (2, 2))
    # the map of s_m takes indices above the mode bound, which the oracles reach
    for m in (*range(1, 9), MAX_MODE + 1, MAX_MODE + 5):
        image = map_basis(psi, generator_map("s", m, False))
        assert map_basis(image, generator_map("s", m, True)) == psi
        assert not map_basis(image, generator_map("s", m + 1, True))


def identity(state):
    return state


def test_rho_of_identity_is_identity_on_blocks():
    for w in P1.basis_words(10):
        psi = State.basis(P1, w)
        assert apply_rho(identity, psi) == psi
    # no leading block: the range sum annihilates
    p2 = RepSpace((2,))
    assert not apply_rho(identity, gp_vector(p2))


def test_zeta_of_identity_is_grading():
    om = gp_vector(P1)
    assert apply_zeta(identity, om) == om
    e2 = basis(P1, (2,))
    assert apply_zeta(identity, e2) == -e2


def test_zeta_shifts_the_first_fermion():
    # zeta(a_1) = a_2 and zeta^2(a_1) = a_3 on every basis word to depth 10
    a1 = partial(apply, "t1 t2*")
    for w in P1.basis_words(10):
        psi = State.basis(P1, w)
        assert apply_zeta(a1, psi) == apply("a2", psi)
        assert apply_zeta(partial(apply_zeta, a1), psi) == apply("a3", psi)


def test_operator_adjoints():
    # <t_2 t_1* psi, phi> = <psi, t_1 t_2* phi>
    psi = basis(P1, (1, 2))
    phi = basis(P1, (2, 2))
    lhs = apply("t2 t1*", psi).inner(phi)
    assert lhs == psi.inner(apply("t1 t2*", phi))
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


def _t(i, psi, star=False):
    """t_i, or t_i* when star, on psi: one letter, one map."""
    return map_basis(psi, generator_map("t", i, star))


def _s_by_letters(m, psi):
    psi = _t(1, psi)
    for _ in range(m - 1):
        psi = _t(2, psi)
    return psi


def _s_star_by_letters(m, psi):
    for _ in range(m - 1):
        psi = _t(2, psi, star=True)
    return _t(1, psi, star=True)


@settings(max_examples=300)
@given(_states(), st.integers(1, 6))
def test_block_generators_match_letter_compositions(psi, m):
    assert apply(f"s{m}", psi) == _s_by_letters(m, psi)
    assert apply(f"s{m}*", psi) == _s_star_by_letters(m, psi)


@settings(max_examples=200)
@given(_states(), st.lists(st.sampled_from([1, 2]), max_size=10).map(tuple))
def test_operator_word_matches_letter_by_letter(psi, J):
    want = psi
    for i in reversed(J):
        want = _t(i, want)
    assert apply(" ".join(f"t{i}" for i in J), psi) == want


def test_block_generators_reject_index_zero():
    for star in (False, True):
        with pytest.raises(ValueError):
            generator_map("s", 0, star)
    for word in ("s0", "s0*"):
        with pytest.raises(ValueError):
            apply(word, gp_vector(P1))


def test_generators_check_their_letters_on_the_zero_state():
    zero = State.zero(P1)
    for act in (
        partial(apply, "t3"),
        partial(apply, "t0*"),
        partial(apply, "t1 t3"),
        partial(apply, "s0"),
        partial(apply, "s0*"),
        partial(_t, 3),
        partial(_t, 0, star=True),
    ):
        with pytest.raises(ValueError):
            act(zero)
    with pytest.raises(ValueError):
        block(0)


# -- the word edits of t_i, s_m and their adjoints ----------------------------


def _strip_comparing_the_head(head):
    """`strip_map` as one body for every head: the first letter, then all len(head)
    letters of the unrolled word are compared with head."""
    first, h = head[0], len(head)

    def f(w):
        if (w.prefix or w.rot)[0] != first:
            return None
        letters, rot = unroll(w, h)
        return (ONE, _make(letters[h:], w.period, rot)) if letters[:h] == head else None

    return f


def _image_fields(image):
    """An image with its word as its slots, and whether its coefficient is ONE itself."""
    if image is None:
        return None
    c, w = image
    return c is ONE, (w.prefix, w.period, w.rot)


def _assert_edits_match_the_letter_edits(w, head):
    assert _image_fields(prepend_map(head)(w)) == _image_fields((ONE, prepend_letters(head, w)))
    assert _image_fields(strip_map(head)(w)) == _image_fields(_strip_comparing_the_head(head)(w))


# every head of up to four letters, and the blocks of s_m
_HEADS = [h for k in range(1, 5) for h in product((1, 2), repeat=k)]
_HEADS += [block(m) for m in range(5, 17)]


def test_prepend_and_strip_match_the_letter_edits_on_every_basis_word():
    # the pure words of depth 0, all phases, are where a tail absorbs letters of head
    for J in ((1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)):
        space = RepSpace(J)
        for w in space.basis_words(6):
            for head in _HEADS:
                _assert_edits_match_the_letter_edits(w, head)
                _assert_edits_match_the_letter_edits(prepend_letters(head, w), head)
    # a prepend that is absorbed whole, and one that is absorbed in part
    assert prepend_map((2, 1))(pure((2, 1)))[1] == pure((2, 1))
    assert prepend_map((1, 2, 1))(pure((2, 1)))[1] == TailWord((1,), (2, 1))


@settings(max_examples=500)
@given(
    st.lists(st.sampled_from([1, 2]), max_size=24).map(tuple),
    st.lists(st.sampled_from([1, 2]), min_size=1, max_size=4).map(tuple),
    st.integers(0, 3),
    st.sampled_from([(1,), (2,)] + [block(m) for m in range(1, 17)]),
)
def test_prepend_and_strip_match_the_letter_edits_on_any_word(prefix, period, phase, head):
    w = TailWord(prefix, period, phase)
    # the raw word keeps a last prefix letter that its tail would absorb, as
    # a faulty edit may leave it: the edits must still read it as the letter edits do
    raw = _make(prefix, w.period, w.rot)
    for v in (w, prepend_letters(head, w), raw):
        _assert_edits_match_the_letter_edits(v, head)


# -- the lift of basis maps to states -----------------------------------------

_CUNTZ_SPACES = [RepSpace(J) for k in (1, 2, 3) for J in product((1, 2), repeat=k)]


def _operators():
    """(label, state map) for each generator and ladder operator the suites apply."""
    labels = [f"t{i}" for i in (1, 2)] + [f"s{m}" for m in range(1, 9)]
    labels += [f"{x}{n}" for n in range(1, 6) for x in "ba"]
    for label in labels:
        for star in ("", "*"):
            yield label + star, partial(apply, label + star)


_OPERATORS = list(_operators())


def test_operators_are_injective_on_every_basis_word():
    for space in _CUNTZ_SPACES:
        words = list(space.basis_words(6))
        psi = State(space, {w: promote(k + 1) for k, w in enumerate(words)})
        for label, op in _OPERATORS:
            want = {}
            for w, c in psi.items():
                image = op(State.basis(space, w, c))
                if image:
                    ((v, d),) = image.items()
                    assert v not in want, (label, space, w, v)
                    want[v] = d
            assert dict(op(psi).items()) == want, (label, space)
            assert map_basis(psi, basis_map(parse_op_token(label))) == op(psi), (label, space)


_COEFFS = [
    sqrt_of_nat(2),
    -sqrt_of_nat(2),
    promote(Fraction(1, 3)),
    promote(Fraction(-5, 2)),
    sqrt_of_nat(2) * Fraction(3, 4) + 1,
]


@st.composite
def _parts(draw):
    """3-6 one-term states of one space; a word may repeat, so terms can cancel."""
    space = draw(st.sampled_from(_CUNTZ_SPACES))
    word = st.builds(
        lambda prefix, phase: TailWord(tuple(prefix), space.period, phase),
        st.lists(st.sampled_from([1, 2]), max_size=8),
        st.integers(0, len(space.period) - 1),
    )
    terms = draw(st.lists(st.tuples(word, st.sampled_from(_COEFFS)), min_size=3, max_size=6))
    return [State.basis(space, w, c) for w, c in terms]


@settings(max_examples=200)
@given(_parts(), st.sampled_from(_OPERATORS))
def test_image_of_a_sum_is_the_sum_of_the_images(parts, labelled):
    _, op = labelled
    space = parts[0].space
    total, images = State.zero(space), State.zero(space)
    for part in parts:
        total = total + part
        images = images + op(part)
    assert op(total) == images


# Operator tokens of every kind within the mode bound, and one above it.
_TOKENS = st.one_of(
    st.builds("t{}{}".format, st.integers(1, 2), st.sampled_from(["", "*"])),
    st.builds("{}{}{}".format, st.sampled_from("sba"), st.integers(1, MAX_MODE),
              st.sampled_from(["", "*"])),
)
_OVER_BOUND = st.builds("{}{}{}".format, st.sampled_from("sba"),
                        st.integers(MAX_MODE + 1, 4 * MAX_MODE), st.sampled_from(["", "*"]))


@st.composite
def _cancelling_parts(draw):
    """2-5 one-term states of one space and the negation of one of them: 3-6 parts
    whose sum holds a pair psi + (-psi); some coefficients have three radical terms."""
    coeffs = st.sampled_from([*_COEFFS, sqrt_of_nat(3) - sqrt_of_nat(2) + Fraction(1, 2)])
    space = draw(st.sampled_from(_CUNTZ_SPACES))
    word = st.builds(
        lambda prefix, phase: TailWord(tuple(prefix), space.period, phase),
        st.lists(st.sampled_from([1, 2]), max_size=8),
        st.integers(0, len(space.period) - 1),
    )
    terms = draw(st.lists(st.tuples(word, coeffs), min_size=2, max_size=5))
    parts = [State.basis(space, w, c) for w, c in terms]
    return parts + [-draw(st.sampled_from(parts))]


@settings(max_examples=200, deadline=None)
@given(_cancelling_parts(), st.lists(_TOKENS, min_size=1, max_size=4))
def test_apply_is_linear_and_folds_the_tokens_rightmost_first(parts, tokens):
    word = " ".join(tokens)
    space = parts[0].space
    total = sum(parts, State.zero(space))
    images = sum((apply(word, part) for part in parts), State.zero(space))
    assert apply(word, total) == images
    fold = total
    for token in reversed(tokens):
        fold = map_basis(fold, basis_map(parse_op_token(token)))
    assert apply(word, total) == fold


@settings(max_examples=100, deadline=None)
@given(_cancelling_parts(), st.lists(_TOKENS, max_size=3), _OVER_BOUND,
       st.lists(_TOKENS, max_size=3))
def test_a_word_above_the_mode_bound_is_refused_before_any_token_acts(parts, left, bad, right):
    total = sum(parts, State.zero(parts[0].space))
    before = dict(total.items())
    with mock.patch.object(ladder, "map_basis") as lift, pytest.raises(BoundsError):
        apply(" ".join([*left, bad, *right]), total)
    assert not lift.called
    assert dict(total.items()) == before


def test_a_collision_names_both_words_and_the_image(monkeypatch):
    # the transfer's engine errors are this module's, not a class of their own
    monkeypatch.setattr(ladder, "_boson_word", lambda create, n, w: None)
    with pytest.raises(EngineError) as err:
        correspondence.forward_operational(BosonMonomial([(1, 1)]))
    assert err.type is EngineError
    u, v = TailWord((2,), (1,)), TailWord((1, 2), (1,))
    psi = State.basis(P1, u) + State.basis(P1, v, sqrt_of_nat(2))
    image = pure((1,))
    with pytest.raises(EngineError) as err:
        map_basis(psi, lambda w: (ONE, image))
    for part in ("P2(1)", u.render(), v.render(), image.render()):
        assert part in str(err.value), (part, err.value)


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


def _basis_words_by_constructor(space, max_depth):
    """Every basis word of space up to max_depth, built and canonicalised by
    the validating `TailWord` constructor, in the order of `basis_words`."""
    rot0 = space.gp_word().rot
    r = len(rot0)
    out = [TailWord((), space.period, phase) for phase in range(r)]
    for depth in range(1, max_depth + 1):
        for phase in range(r):
            blocked = rot0[(phase - 1) % r]
            for code in range(2 ** (depth - 1)):
                prefix = [1 + (code >> k & 1) for k in range(depth - 1)]
                prefix.append(1 if blocked == 2 else 2)
                out.append(TailWord(tuple(prefix), space.period, phase))
    return out


def test_basis_words_equal_the_constructor_built_words_in_order():
    for k in range(1, 4):
        for J in product((1, 2), repeat=k):
            space = RepSpace(J)
            for depth in range(7):
                got = [(w.prefix, w.period, w.rot) for w in space.basis_words(depth)]
                want = [(w.prefix, w.period, w.rot)
                        for w in _basis_words_by_constructor(space, depth)]
                assert got == want, (J, depth)


def test_a_bad_index_is_refused_when_its_map_is_built_and_nothing_is_cached():
    psi = basis(P1, (2,))
    for _ in range(2):  # a refusal leaves nothing behind that a second call could find
        for kind, bad, star in (("t", 3, False), ("t", 0, True), ("s", 0, False),
                                ("s", -1, True)):
            with pytest.raises(ValueError):
                map_basis(psi, generator_map(kind, bad, star))
        for create in (False, True):
            with pytest.raises(BoundsError):
                map_basis(psi, basis_map(("b", MAX_MODE + 1, create)))
            with pytest.raises(ValueError):
                map_basis(psi, basis_map(("a", 0, create)))
            star = "*" if create else ""
            with pytest.raises(BoundsError):
                apply(f"b{MAX_MODE + 1}{star}", psi)
            with pytest.raises(ValueError):
                apply(f"a0{star}", psi)
