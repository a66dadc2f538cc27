"""Exact scalars of the form sum_d q_d * sqrt(d).

A scalar is a finite map from squarefree radicands d >= 1 to nonzero
rational coefficients; the radicand 1 carries the rational part.  It is
stored as one positive integer denominator and a map from radicands to
nonzero integer numerators, with no factor common to the denominator and
every numerator, and nothing else: the hash is computed when asked.
That form is canonical (square parts extracted, zero coefficients
dropped, fractions reduced), so equality of values is equality of stored
forms, and each sum or product needs one gcd pass rather than one per
term.  This is exactly the coefficient arithmetic needed for
ladder-operator weights sqrt(k) and normalization constants
sqrt(k_1! ... k_m!).

No path of a scalar or int operand builds a Fraction: output reads the
integer form, and `fractions` (with the `decimal` and `numbers` modules it
imports) is loaded only where a Fraction is built or tested, by `terms`,
`from_json`, the hash of a rational scalar or a Fraction operand.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

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
# many times over.
@lru_cache(maxsize=4096)
def _square_split(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d squarefree, by trial division."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    s, d, m, f = 1, 1, n, 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            s *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return s, d * m


class RadicalScalar:
    """A finite sum of rational multiples of square roots of integers."""

    __slots__ = ("_den", "_num")

    def __init__(self, terms: Mapping[int, object] | None = None):
        # Rationals report numerator and denominator in lowest terms, so
        # over the lcm of the denominators no factor is common to all.
        parts: dict[int, tuple[int, int]] = {}
        den = 1
        for d, q in (terms or {}).items():
            if _square_split(d)[0] != 1:
                raise ValueError(f"radicand {d} is not squarefree")
            try:
                n, m = int(q.numerator), int(q.denominator)
            except AttributeError:
                raise TypeError(f"coefficient {q!r} of sqrt({d}) is not rational") from None
            if n:
                parts[d] = n, m
                den = den // gcd(den, m) * m
        self._den = den
        self._num = {d: n * (den // m) for d, (n, m) in parts.items()}

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> dict[int, Fraction]:
        den, fraction = self._den, _fraction()
        return {d: fraction(n, den) for d, n in self._num.items()}

    # perfbench's tracer reads the coefficient map under this name to
    # count products by one.
    _terms = terms

    def is_rational(self) -> bool:
        return self._num.keys() <= {1}

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        # scalars meet scalars far more often than rationals, so the class
        # test comes first, and only a Fraction operand loads `fractions`
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # a rational scalar equals its Fraction (and int), so it hashes as one
        if self.is_rational():
            return hash(_fraction()(self._num.get(1, 0), self._den))
        return hash((self._den, tuple(sorted(self._num.items()))))

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "RadicalScalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._den, other._den
        g = gcd(a, b)
        fa, fb = b // g, a // g
        if fa == 1:
            acc = dict(self._num)
        else:
            acc = {d: n * fa for d, n in self._num.items()}
        for d, n in other._num.items():
            s = acc.get(d, 0) + n * fb
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
        # a prime whose power differs in a and b divides no numerator, so
        # every factor common to the sum's den and numerators divides g
        return _reduced(a * fa, acc, g)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return _wrap(self._den, {d: -n for d, n in self._num.items()})

    def __sub__(self, other) -> "RadicalScalar":
        return self + (-promote(other))

    def __rsub__(self, other) -> "RadicalScalar":
        return promote(other) + (-self)

    def __mul__(self, other) -> "RadicalScalar":
        """The product, term by term: sqrt(d1) sqrt(d2) = g sqrt(d1 d2 / g^2), g = gcd(d1, d2).

        Two single terms, as every ladder weight and norm factor is, make
        one term n1 n2 g / (den1 den2), reduced by one gcd with no loop, and
        by none when den1 den2 = 1; the result's slots are filled in place.
        A scalar operand is taken as it is, before any coercion.
        """
        if other.__class__ is not RadicalScalar:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        left, right = self._num, other._num
        if len(left) == 1 == len(right):
            ((d1, n1),) = left.items()
            ((d2, n2),) = right.items()
            g = gcd(d1, d2)
            n, den = n1 * n2 * g, self._den * other._den
            out = _new(RadicalScalar)
            if den == 1:
                out._den = 1
            else:
                h = gcd(n, den)
                out._den = den // h
                n //= h
            out._num = {(d1 // g) * (d2 // g): n}
            return out
        acc: dict[int, int] = {}
        right = right.items()
        for d1, n1 in left.items():
            for d2, n2 in right:
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                s = acc.get(d, 0) + n1 * n2 * g
                if s:
                    acc[d] = s
                else:
                    acc.pop(d, None)
        den = self._den * other._den
        return _reduced(den, acc, den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadicalScalar":
        """Divide by a rational or by a single term q*sqrt(d)."""
        other = promote(other)
        if len(other._num) != 1:
            if not other._num:
                raise ZeroDivisionError("division by zero")
            raise ValueError("division only by rationals or single radical terms")
        (d, n), = other._num.items()
        # 1 / ((n/m) sqrt(d)) = m sqrt(d) / (n d)
        m = other._den
        inv = _reduced(abs(n) * d, {d: m if n > 0 else -m}, d)
        return inv if self is _ONE else self * inv

    def __rtruediv__(self, other) -> "RadicalScalar":
        return promote(other) / self

    # -- output --------------------------------------------------------

    def to_float(self) -> float:
        den = self._den
        return sum(n / den * math.sqrt(d) for d, n in self._num.items())

    def _lowest_terms(self) -> Iterator[tuple[int, int, int]]:
        """(d, n, m) for each term n/m sqrt(d), by radicand, with n/m in lowest terms."""
        den = self._den
        for d, n in sorted(self._num.items()):
            g = gcd(n, den)
            yield d, n // g, den // g

    def render(self) -> str:
        if not self._num:
            return "0"
        parts = []
        for d, n, m in self._lowest_terms():
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
                {"radicand": d, "num": n, "den": m} for d, n, m in self._lowest_terms()
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


def _wrap(den: int, num: dict[int, int]) -> RadicalScalar:
    """A scalar from a form that is already canonical, unchecked."""
    out = _new(RadicalScalar)
    out._den = den
    out._num = num
    return out


def _reduced(den: int, num: dict[int, int], g: int) -> RadicalScalar:
    """The scalar sum_d num[d]/den * sqrt(d), with its fraction reduced.

    Radicands must be squarefree and numerators nonzero.  g is any number
    that every factor common to den and all numerators divides; den
    itself always qualifies.
    """
    if not num:
        return _ZERO
    if g != 1:
        g = gcd(g, *num.values())
        if g != 1:
            den //= g
            num = {d: n // g for d, n in num.items()}
    return _wrap(den, num)


_ZERO = _wrap(1, {})
_ONE = _wrap(1, {1: 1})


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
    return _wrap(1, {d: s})


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
