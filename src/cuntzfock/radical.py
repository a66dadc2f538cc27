"""Exact scalars of the form sum_d q_d * sqrt(d).

A scalar is a finite map from squarefree radicands d >= 1 to nonzero
rational coefficients; the radicand 1 carries the rational part.  The map
is kept canonical (square parts extracted, zero coefficients dropped), so
equality of values is equality of maps.  This is exactly the coefficient
arithmetic needed for ladder-operator weights sqrt(k) and normalization
constants sqrt(k_1! ... k_m!).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

try:
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as _Q


@lru_cache(maxsize=None)
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


def _as_rational(x) -> "_Q":
    if isinstance(x, (int, Fraction)):
        return _Q(x)
    return x


class RadicalScalar:
    """A finite sum of rational multiples of square roots of integers."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, object] | None = None):
        clean: dict[int, _Q] = {}
        if terms:
            for d, q in terms.items():
                if _square_split(d)[0] != 1:
                    raise ValueError(f"radicand {d} is not squarefree")
                q = _as_rational(q)
                if q:
                    clean[d] = q
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "RadicalScalar":
        return _ZERO

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> dict[int, "_Q"]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return set(self._terms) <= {1}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        q = self._terms.get(1, _Q(0))
        return Fraction(int(q.numerator), int(q.denominator))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RadicalScalar({1: other})
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "RadicalScalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for d, q in other._terms.items():
            s = acc.get(d, _ZERO_Q) + q
            if s:
                acc[d] = s
            else:
                acc.pop(d, None)
        return _wrap(acc)

    __radd__ = __add__

    def __neg__(self) -> "RadicalScalar":
        return _wrap({d: -q for d, q in self._terms.items()})

    def __sub__(self, other) -> "RadicalScalar":
        return self + (-promote(other))

    def __rsub__(self, other) -> "RadicalScalar":
        return promote(other) + (-self)

    def __mul__(self, other) -> "RadicalScalar":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[int, _Q] = {}
        for d1, q1 in self._terms.items():
            for d2, q2 in other._terms.items():
                g = math.gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                q = q1 * q2 * g
                s = acc.get(d, _ZERO_Q) + q
                if s:
                    acc[d] = s
                else:
                    acc.pop(d, None)
        return _wrap(acc)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RadicalScalar":
        """Divide by a rational or by a single term q*sqrt(d)."""
        other = promote(other)
        if len(other._terms) != 1:
            raise ValueError("division only by rationals or single radical terms")
        (d, q), = other._terms.items()
        inv = RadicalScalar({d: 1 / (q * d)})
        return inv if self is _ONE else self * inv

    def __rtruediv__(self, other) -> "RadicalScalar":
        return promote(other) / self

    # -- output --------------------------------------------------------

    def to_float(self) -> float:
        return sum(float(q) * math.sqrt(d) for d, q in self._terms.items())

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for d, q in sorted(self._terms.items()):
            neg = q < 0
            mag = -q if neg else q
            if d == 1:
                body = str(mag)
            elif mag == 1:
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
                {"radicand": d, "num": int(q.numerator), "den": int(q.denominator)}
                for d, q in sorted(self._terms.items())
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "RadicalScalar":
        return RadicalScalar(
            {t["radicand"]: _Q(t["num"], t["den"]) for t in data["terms"]}
        )


_ZERO_Q = _Q(0)


def _wrap(terms: dict[int, "_Q"]) -> RadicalScalar:
    out = RadicalScalar.__new__(RadicalScalar)
    out._terms = terms
    out._hash = None
    return out


_ZERO = RadicalScalar()
_ONE = RadicalScalar({1: 1})


def _coerce(x) -> "RadicalScalar | None":
    if isinstance(x, RadicalScalar):
        return x
    if isinstance(x, (int, Fraction)):
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

    sqrt(1) is the ONE object itself, so that callers which skip products
    by ONE (such as `rep.map_basis`) also skip unit weights.
    """
    s, d = _square_split(n)
    if s == d == 1:
        return _ONE
    return RadicalScalar({d: s})


def sqrt_factorial(k: int) -> RadicalScalar:
    return sqrt_of_nat(math.factorial(k))


def sqrt_factorial_product(ks: Iterable[int]) -> RadicalScalar:
    """Exact prod_k sqrt(k!), the norm of a monomial with multiplicities ks.

    Factors that are the ONE object (k <= 1) are not multiplied in, so the
    result is the ONE object itself when every k! is 1.
    """
    out = _ONE
    for k in ks:
        f = sqrt_factorial(k)
        if f is not _ONE:
            out = f if out is _ONE else out * f
    return out


ZERO = _ZERO
ONE = _ONE
