"""Exact scalars of the form sum_d q_d * sqrt(d).

A scalar is a finite map from squarefree radicands d >= 1 to nonzero
rational coefficients; the radicand 1 carries the rational part.  It is
stored as that map, each coefficient as a pair (numerator, denominator)
in lowest terms with a positive denominator, and nothing else: the hash
is computed when asked.  That form is canonical (square parts extracted,
zero coefficients dropped, fractions reduced), so equality of values is
equality of stored forms.  Sums and products reduce term by term, on
integers the size of one coefficient's numerator and denominator, never
on a denominator shared by every term.  This is exactly the coefficient
arithmetic needed for ladder-operator weights sqrt(k) and normalization
constants sqrt(k_1! ... k_m!).

No path of a scalar or int operand builds a Fraction: output reads the
integer pairs, and `fractions` (with the `decimal` and `numbers` modules
it imports) is loaded only where a Fraction is built or tested, by
`terms`, `from_json`, the hash of a rational scalar or a Fraction operand.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:
    from fractions import Fraction


@cache
def _fraction() -> type:
    """`fractions.Fraction`, imported where a Fraction is first built or tested.

    A cold command builds none, and the import with `decimal` and `numbers`
    would cost it about 2 ms.  Kept, because an import statement on every
    call costs about 1 us.
    """
    from fractions import Fraction

    return Fraction


# Bounded so that square roots of many distinct integers cannot grow the
# cache without limit; the radicands and factorials the engine reuses fit
# many times over.  Typed, so that a float equal to a cached int misses the
# cache and is refused.
@lru_cache(maxsize=4096, typed=True)
def _square_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d squarefree.

    Trial division runs only while f**3 <= m.  What is left then has no
    prime factor below f and is below f**3, so it is 1, a prime, the
    product of two distinct primes, or the square of a prime.
    """
    if n.__class__ is not int:
        raise TypeError(f"radicand {n!r} is not an int")
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    s, d, m, f = 1, 1, n, 2
    while f * f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    r = isqrt(m)
    if r * r == m:
        return s * r, d
    return s, d * m


class RadicalScalar:
    """A finite sum of rational multiples of square roots of integers."""

    __slots__ = ("_q",)

    def __init__(self, terms: Mapping[int, object] | None = None):
        # Rationals report numerator and denominator in lowest terms.
        q = {}
        for d, c in (terms or {}).items():
            if _square_split(d)[0] != 1:
                raise ValueError(f"radicand {d} is not squarefree")
            try:
                n, m = int(c.numerator), int(c.denominator)
            except AttributeError:
                raise TypeError(f"coefficient {c!r} of sqrt({d}) is not rational") from None
            if n:
                q[d] = n, m
        self._q = q

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        fraction = _fraction()
        return {d: fraction(n, m) for d, (n, m) in self._q.items()}

    # perfbench's tracer reads the coefficient map under this name to
    # count products by one.
    _terms = terms

    def is_rational(self) -> bool:
        return self._q.keys() <= {1}

    def __bool__(self) -> bool:
        return bool(self._q)

    def __eq__(self, other) -> bool:
        # scalars meet scalars far more often than rationals, so the class
        # test comes first, and only a Fraction operand loads `fractions`
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._q == other._q

    def __hash__(self) -> int:
        # a rational scalar equals its Fraction (and int), so it hashes as one
        if self.is_rational():
            return hash(_fraction()(*self._q.get(1, (0, 1))))
        return hash(tuple(sorted(self._q.items())))

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "RadicalScalar":
        """The sum, term by term; a radicand on both sides sums its two fractions."""
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._q)
        for d, t in other._q.items():
            if d in acc:
                _accumulate(acc, d, t)
            else:
                acc[d] = t
        return _wrap(acc) if acc else _ZERO

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        q = self._q
        if len(q) == 1:  # a weight: no comprehension to call
            ((d, (n, m)),) = q.items()
            return _wrap({d: (-n, m)})
        return _wrap({d: (-n, m) for d, (n, m) in q.items()})

    def __sub__(self, other) -> "RadicalScalar":
        return self + (-promote(other))

    def __rsub__(self, other) -> "RadicalScalar":
        return promote(other) + (-self)

    def __mul__(self, other) -> "RadicalScalar":
        """The product, term by term: sqrt(d1) sqrt(d2) = g sqrt(d1 d2 / g^2), g = gcd(d1, d2).

        Each pair of terms makes n1 n2 g / (m1 m2), reduced by one gcd on
        integers the size of two terms' coefficients.  Two single terms, as
        every ladder weight and norm factor is, make one term with no loop,
        reduced by no gcd when m1 m2 = 1; the result's slot is filled in
        place.  A scalar operand is taken as it is, before any coercion.
        """
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        left, right = self._q, other._q
        if len(left) == 1 == len(right):
            ((d1, (n1, m1)),) = left.items()
            ((d2, (n2, m2)),) = right.items()
            g = gcd(d1, d2)
            n, m = n1 * n2 * g, m1 * m2
            if m != 1:
                h = gcd(n, m)
                n //= h
                m //= h
            out = _new(RadicalScalar)
            out._q = {(d1 // g) * (d2 // g): (n, m)}
            return out
        acc = {}
        right = right.items()
        for d1, (n1, m1) in left.items():
            for d2, (n2, m2) in right:
                g = gcd(d1, d2)
                n, m = n1 * n2 * g, m1 * m2
                h = gcd(n, m)
                d, t = (d1 // g) * (d2 // g), (n // h, m // h)
                if d in acc:
                    _accumulate(acc, d, t)
                else:
                    acc[d] = t
        return _wrap(acc) if acc else _ZERO

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadicalScalar":
        """Divide by a rational or by a single term q*sqrt(d)."""
        other = promote(other)
        if len(other._q) != 1:
            if not other._q:
                raise ZeroDivisionError("division by zero")
            raise ValueError("division only by rationals or single radical terms")
        ((d, (n, m)),) = other._q.items()
        # 1 / ((n/m) sqrt(d)) = m sqrt(d) / (n d), and m is prime to n
        g = gcd(m, d)
        inv = _wrap({d: (m // g if n > 0 else -m // g, abs(n) * d // g)})
        return inv if self is _ONE else self * inv

    def __rtruediv__(self, other) -> "RadicalScalar":
        return promote(other) / self

    # -- output --------------------------------------------------------

    def to_float(self) -> float:
        return sum(n / m * math.sqrt(d) for d, (n, m) in self._q.items())

    def render(self) -> str:
        if not self._q:
            return "0"
        parts = []
        for d, (n, m) in sorted(self._q.items()):
            neg = n < 0
            mag = f"{abs(n)}" if m == 1 else f"{abs(n)}/{m}"
            if d == 1:
                body = mag
            elif mag == "1":
                body = f"sqrt({d})"
            else:
                body = f"{mag}*sqrt({d})"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def render_decimal(self, digits: int = 12) -> str:
        return f"%.{digits}g" % self.to_float()

    def __repr__(self) -> str:
        return self.render()

    def to_json(self) -> dict:
        return {
            "terms": [
                {"radicand": d, "num": n, "den": m} for d, (n, m) in sorted(self._q.items())
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "RadicalScalar":
        fraction = _fraction()
        return RadicalScalar(
            {t["radicand"]: fraction(t["num"], t["den"]) for t in data["terms"]}
        )


# A scalar is allocated without the attribute lookup of RadicalScalar.__new__.
_new = object.__new__


def _wrap(q: dict[int, tuple[int, int]]) -> RadicalScalar:
    """A scalar from a form that is already canonical, unchecked."""
    out = _new(RadicalScalar)
    out._q = q
    return out


def _accumulate(acc: dict[int, tuple[int, int]], d: int, t: tuple[int, int]) -> None:
    """Add the lowest-terms fraction t to acc[d], as Fraction.__add__ does; a zero sum is dropped.

    Callers store a term on a new radicand themselves: most terms are new,
    and testing `d in acc` costs less than this call.
    """
    (n1, m1), (n2, m2) = acc[d], t
    g = gcd(m1, m2)
    if g == 1:  # coprime denominators: the sum is in lowest terms
        n, m = n1 * m2 + n2 * m1, m1 * m2
    else:
        # every factor common to n and s * m2 divides g
        s = m1 // g
        n = n1 * (m2 // g) + n2 * s
        h = gcd(n, g)
        n, m = n // h, s * (m2 // h)
    if n:
        acc[d] = n, m
    else:
        del acc[d]


_ZERO = _wrap({})
_ONE = _wrap({1: (1, 1)})


def _coerce(x) -> "RadicalScalar | None":
    # sums and `promote` pass scalars, so they are tested first; then an int
    # (bool included), so that only another operand loads `fractions`
    if isinstance(x, RadicalScalar):
        return x
    if isinstance(x, int) or isinstance(x, _fraction()):
        return RadicalScalar({1: x})
    return None


def promote(x) -> RadicalScalar:
    """Coerce an int or Fraction into a RadicalScalar."""
    out = _coerce(x)
    if out is None:
        raise TypeError(f"cannot interpret {x!r} as a scalar")
    return out


def sqrt_of_nat(n: int) -> RadicalScalar:
    """Exact sqrt(n) for n >= 1, with the square part extracted.

    sqrt(1) is the ONE object itself, so that `rep.then`, which skips
    products by ONE, also skips unit weights.
    """
    s, d = _square_split(n)
    if s == d == 1:
        return _ONE
    return _wrap({d: (s, 1)})


def sqrt_factorial(k: int) -> RadicalScalar:
    return sqrt_of_nat(math.factorial(k))


def sqrt_factorial_product(ks: Iterable[int]) -> RadicalScalar:
    """Exact prod_k sqrt(k!), the norm of a monomial with multiplicities ks.

    One square root of prod_k k!, taken through the `_square_split` cache;
    it is the ONE object itself when every k! is 1.
    """
    p = 1
    for k in ks:
        if k > 1:
            p *= math.factorial(k)
    return sqrt_of_nat(p)


ZERO = _ZERO
ONE = _ONE
