import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuntzfock.radical import (
    ONE,
    ZERO,
    RadicalScalar,
    _square_split,
    promote,
    sqrt_factorial,
    sqrt_factorial_product,
    sqrt_of_nat,
)

SQUAREFREE_100 = [d for d in range(1, 101) if _square_split(d)[0] == 1]


def test_like_terms_merge():
    r2 = sqrt_of_nat(2)
    assert r2 + r2 == RadicalScalar({2: 2})


def test_additive_inverse():
    r2 = sqrt_of_nat(2)
    assert r2 + (-r2) == ZERO
    assert not (r2 - r2)


def test_distinct_radicands_stay_separate():
    assert ONE + sqrt_of_nat(2) == RadicalScalar({1: 1, 2: 1})


def test_mul_perfect_square():
    assert sqrt_of_nat(2) * sqrt_of_nat(2) == promote(2)


def test_equal_scalars_hash_equal():
    half = promote(Fraction(1, 2))
    pairs = ((ONE, 1), (ZERO, 0), (half, Fraction(1, 2)), (ONE / 2, Fraction(1, 2)))
    for scalar, value in pairs:
        assert scalar == value and hash(scalar) == hash(value)
    assert {ONE: "one", half: "half"}.get(1) == "one"
    assert {1: "one"}[ONE] == "one"
    assert {Fraction(1, 2): "half"}[half] == "half"


def test_equality_against_each_kind_of_operand():
    r2 = sqrt_of_nat(2)
    half = promote(Fraction(1, 2))
    # another scalar
    assert ONE == promote(1) and r2 == RadicalScalar({2: 1}) and r2 + ONE == ONE + r2
    assert ONE != r2 and r2 != RadicalScalar({2: 2}) and half != RadicalScalar({2: Fraction(1, 2)})
    # int and Fraction, from either side
    assert ONE == 1 and 1 == ONE and ZERO == 0 and half == Fraction(1, 2)
    assert Fraction(1, 2) == half and ONE != 2 and r2 != 1 and half != Fraction(1, 3)
    # a foreign type is never equal, and the comparison does not raise
    for foreign in ("1", None, (1,), [ONE], object()):
        assert ONE != foreign and not ONE == foreign and foreign != ONE
    assert ONE.__eq__("1") is NotImplemented


def test_mul_coprime_radicands():
    assert sqrt_of_nat(2) * sqrt_of_nat(3) == sqrt_of_nat(6)


def test_mul_extracts_square_part():
    # sqrt(6)*sqrt(2) = 2*sqrt(3): check by squaring both sides in integers
    prod = sqrt_of_nat(6) * sqrt_of_nat(2)
    claimed = RadicalScalar({3: 2})
    assert prod * prod == 6 * 2
    assert claimed * claimed == 2 * 2 * 3
    assert prod.to_float() > 0 and claimed.to_float() > 0
    assert prod == claimed


def test_sqrt_of_nat_examples():
    assert sqrt_of_nat(8) == RadicalScalar({2: 2})
    assert sqrt_of_nat(1) == ONE
    assert sqrt_of_nat(math.factorial(3)) == RadicalScalar({6: 1})


def test_sqrt_factorial_product():
    # unit factors are skipped, so an all-unit product is the ONE object
    # itself, which basis maps then skip by identity
    assert sqrt_of_nat(1) is ONE
    assert sqrt_factorial_product([]) is ONE
    assert sqrt_factorial_product([1, 0, 1]) is ONE
    for ks in ([2], [3, 1, 2], [1, 4, 4], [5, 3]):
        got = sqrt_factorial_product(ks)
        assert got * got == promote(math.prod(math.factorial(k) for k in ks))
        assert got.to_float() > 0


def _partitions(total: int, largest: int):
    """Every multiset of positive parts <= largest summing to total, descending."""
    if total == 0:
        yield []
        return
    for k in range(min(total, largest), 0, -1):
        for rest in _partitions(total - k, k):
            yield [k] + rest


def test_sqrt_factorial_product_matches_term_by_term():
    # one square root of the product equals the product of the square roots
    for total in range(13):
        for ks in _partitions(total, total):
            want = ONE
            for k in ks:
                want = want * sqrt_factorial(k)
            assert sqrt_factorial_product(ks) == want, ks
            assert sqrt_factorial_product(reversed(ks)) == want, ks


def test_sqrt_rejects_nonpositive():
    with pytest.raises(ValueError):
        sqrt_of_nat(0)


def test_canonical_rejects_non_squarefree_radicand():
    with pytest.raises(ValueError):
        RadicalScalar({4: 1})


def test_zero_coefficients_dropped():
    assert RadicalScalar({2: 0, 3: 1}) == sqrt_of_nat(3)


def test_division_by_rational_and_radical():
    x = sqrt_of_nat(2) + promote(3)
    assert (x / 2) * 2 == x
    assert (x / sqrt_of_nat(2)) * sqrt_of_nat(2) == x
    assert ONE / sqrt_of_nat(2) == RadicalScalar({2: Fraction(1, 2)})
    with pytest.raises(ValueError):
        x / (ONE + sqrt_of_nat(2))
    for num, den in [(ONE, 0), (ONE, ZERO), (1, ZERO)]:
        with pytest.raises(ZeroDivisionError):
            num / den


def test_json_round_trip():
    x = RadicalScalar({1: Fraction(-3, 4), 10: Fraction(7, 2)})
    data = x.to_json()
    assert data == {
        "terms": [
            {"radicand": 1, "num": -3, "den": 4},
            {"radicand": 10, "num": 7, "den": 2},
        ]
    }
    assert RadicalScalar.from_json(data) == x


def test_render():
    assert (promote(1) + sqrt_of_nat(2)).render() == "1 + sqrt(2)"
    assert (-sqrt_of_nat(2)).render() == "-sqrt(2)"
    assert ZERO.render() == "0"
    assert RadicalScalar({3: 2}).render() == "2*sqrt(3)"


def _scalars(max_terms=3, coeff_bound=10**6):
    return st.builds(
        lambda pairs: RadicalScalar(
            {d: Fraction(n, m) for d, n, m in pairs}
        ),
        st.lists(
            st.tuples(
                st.sampled_from(SQUAREFREE_100),
                st.integers(-coeff_bound, coeff_bound),
                st.integers(1, coeff_bound),
            ),
            max_size=max_terms,
        ),
    )


@settings(max_examples=200)
@given(_scalars(), _scalars(), _scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200)
@given(_scalars())
def test_canonical_invariants(a):
    for d, q in a.terms.items():
        assert d >= 1 and _square_split(d)[0] == 1
        assert q != 0


def test_to_float_matches_termwise_double():
    rng = random.Random(3)
    for _ in range(500):
        terms = {
            d: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            for d in rng.sample(SQUAREFREE_100, rng.randint(1, 3))
        }
        x = RadicalScalar(terms)
        direct = sum(float(q) * math.sqrt(d) for d, q in terms.items() if q)
        assert abs(x.to_float() - direct) <= 1e-12 * max(1.0, abs(direct))


def test_sqrt_square_law_small():
    for n in range(1, 2001):
        assert sqrt_of_nat(n) * sqrt_of_nat(n) == promote(n)


# -- independent oracle: the same sums as sympy expressions --------------------

_terms_lists = st.lists(
    st.tuples(
        st.sampled_from(SQUAREFREE_100),
        st.integers(-10**6, 10**6),
        st.integers(1, 10**6),
    ),
    max_size=3,
    unique_by=lambda t: t[0],
)
_single_terms = st.tuples(
    st.sampled_from(SQUAREFREE_100),
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(1, 10**6),
).map(lambda t: [t])


def _exact(triples):
    """The scalar, through the validating constructor only."""
    return RadicalScalar({d: Fraction(n, m) for d, n, m in triples})


def _symbolic(triples):
    """sum n/m * sqrt(d) as a sympy expression, built without RadicalScalar."""
    return sympy.Add(*(sympy.Rational(n, m) * sympy.sqrt(d) for d, n, m in triples))


def _agrees(x: RadicalScalar, expr) -> bool:
    got = sympy.Add(*(
        sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(d)
        for d, q in x.terms.items()
    ))
    return sympy.expand(got - expr) == 0


@settings(max_examples=100, deadline=None)
@given(_terms_lists, _terms_lists, _single_terms)
def test_ring_operations_match_sympy(a, b, t):
    x, y, z = _exact(a), _exact(b), _exact(t)
    ea, eb, et = _symbolic(a), _symbolic(b), _symbolic(t)
    assert _agrees(x + y, ea + eb)
    assert _agrees(x - y, ea - eb)
    assert _agrees(x * y, sympy.expand(ea * eb))
    assert _agrees(x / z, sympy.expand(ea / et))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**7))
def test_sqrt_of_nat_matches_sympy(n):
    assert _agrees(sqrt_of_nat(n), sympy.sqrt(n))


# -- fast paths build what the validating constructor builds -------------------


def assert_canonical(x: RadicalScalar):
    y = RadicalScalar(x.terms)
    assert (x._den, x._num) == (y._den, y._num)
    assert x == y and hash(x) == hash(y)
    assert x._den > 0 and math.gcd(x._den, *x._num.values()) == 1
    assert all(x._num.values())
    assert (x._terms == ONE._terms) == (x == 1)


@settings(max_examples=300, deadline=None)
@given(
    _terms_lists,
    _terms_lists,
    _single_terms,
    st.integers(1, 10**7),
    st.lists(st.integers(0, 12), max_size=5),
)
def test_fast_paths_match_the_validating_constructor(a, b, t, n, ks):
    x, y, z = _exact(a), _exact(b), _exact(t)
    for result in (x + y, x - y, -x, x * y, x * x, x / z, ONE / z, z / z,
                   sqrt_of_nat(n), sqrt_factorial_product(ks)):
        assert_canonical(result)


def _double_loop_product(x: RadicalScalar, y: RadicalScalar) -> tuple[int, dict[int, int]]:
    """(den, num) of x * y by the general term-by-term loop, one gcd pass at the end."""
    acc: dict[int, int] = {}
    for d1, n1 in x._num.items():
        for d2, n2 in y._num.items():
            g = math.gcd(d1, d2)
            d = (d1 // g) * (d2 // g)
            s = acc.get(d, 0) + n1 * n2 * g
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
    den = x._den * y._den
    g = math.gcd(den, *acc.values())
    return den // g, {d: n // g for d, n in acc.items()}


# radicands 1, primes and products sharing a prime; small numerators and
# denominators, so that products reduce, and to ONE among them
_ONE_TERM = st.builds(
    lambda d, n, m: RadicalScalar({d: Fraction(n, m)}),
    st.sampled_from([1, 2, 3, 5, 6, 10, 15, 30, 7, 42]),
    st.integers(-12, 12).filter(bool) | st.integers(-10**9, 10**9).filter(bool),
    st.integers(1, 12) | st.integers(1, 10**9),
)


@settings(max_examples=500, deadline=None)
@given(_ONE_TERM, _ONE_TERM,
       st.integers(-60, 60).filter(bool) | st.fractions(max_denominator=60).filter(bool))
@example(sqrt_of_nat(2) / 2, sqrt_of_nat(2), 2)
@example(promote(-3), promote(Fraction(-1, 3)), Fraction(1, 3))
@example(-sqrt_of_nat(6) / 3, sqrt_of_nat(10) / -4, -1)
def test_single_term_products_match_the_double_loop(x, y, q):
    # an int or Fraction operand, on either side, is coerced to one term
    for p, (a, b) in ((x * q, (x, promote(q))), (q * x, (x, promote(q)))):
        assert p.__class__ is RadicalScalar
        assert (p._den, p._num) == _double_loop_product(a, b)
    for a, b in ((x, y), (y, x), (x, x), (x, ONE / x)):
        p = a * b
        assert (p._den, p._num) == _double_loop_product(a, b)
    assert (p._den, p._num) == (1, {1: 1})  # x times its reciprocal is ONE


def test_single_term_products_of_units_signs_and_integers():
    r2, r6, half = sqrt_of_nat(2), sqrt_of_nat(6), promote(Fraction(1, 2))
    cases = [
        (r2, r6), (r6, r6), (ONE, ONE), (ONE, r2), (r2, ONE),  # den 1 on both sides
        (promote(3), promote(-5)), (-r2, -r6), (half, promote(-2)),  # radicand 1, signs
        (r2 / 3, r6 / -4), (half, r2 / 2), (promote(Fraction(-2, 3)), promote(Fraction(3, 2))),
    ]
    for a, b in cases:
        assert ((a * b)._den, (a * b)._num) == _double_loop_product(a, b), (a, b)
    for a, b in ((r6, 2), (2, r6), (ONE, Fraction(-3, 4)), (Fraction(-3, 4), r2 / 3)):
        assert ((a * b)._den, (a * b)._num) == _double_loop_product(promote(a), promote(b))
    assert r2 * r6 == 2 * sqrt_of_nat(3) and half * 2 == ONE and -r2 * r2 == -2
    for bad in ("a", 0.5, None):
        with pytest.raises(TypeError):
            r2 * bad
        with pytest.raises(TypeError):
            bad * r2


def test_only_one_reads_as_one_term_by_term():
    sixth = ONE / 6
    assert sixth._terms != ONE._terms and sixth != 1
    half_root2 = sqrt_of_nat(2) / 2
    assert half_root2._terms != ONE._terms and half_root2 != 1
    six_sixths = promote(6) / 6
    assert six_sixths._terms == ONE._terms and six_sixths == 1
    for x in (sixth, half_root2, six_sixths, ONE / sqrt_of_nat(2) * sqrt_of_nat(2)):
        assert_canonical(x)


def test_non_rational_coefficients_are_refused():
    with pytest.raises(TypeError):
        RadicalScalar({2: 0.5})
