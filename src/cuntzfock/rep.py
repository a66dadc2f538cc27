"""States and generator actions for permutative representations.

A representation space is labelled by a nonempty word J; its basis is the
set of canonical tail words whose periodic part is a rotation of J, and
its GP vector is the pure word J^inf (fixed by the operator word t_J).
The two isometries act by prepending a letter; their adjoints remove a
matching leading letter and annihilate otherwise.  The countable family
s_m = t_2^(m-1) t_1 embeds the infinite Cuntz family.

Operators are given as state maps, plain functions State -> State, so the
shift endomorphisms rho(x) = sum_m s_m x s_m* and
zeta(y) = t_1 y t_1* - t_2 y t_2* take such a map and apply its image to a
state.  The rho sum needs no truncation: on a basis word at most the
single summand picked out by the leading block survives.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .radical import ONE, RadicalScalar, promote
from .words import TailWord, block_prepend, leading_block, parse_letters, render_letters


class SpaceMismatchError(ValueError):
    """Raised when vectors from different representation spaces are mixed."""


class RepSpace:
    """The representation class determined by a cycle word J."""

    __slots__ = ("period",)

    def __init__(self, period):
        if isinstance(period, str):
            period = parse_letters(period)
        period = tuple(period)
        if not period:
            raise ValueError("the defining word J must be nonempty")
        for i in period:
            if i not in (1, 2):
                raise ValueError(f"invalid letter {i!r} in J")
        self.period = period

    def __eq__(self, other) -> bool:
        return isinstance(other, RepSpace) and self.period == other.period

    def __hash__(self) -> int:
        return hash(("RepSpace", self.period))

    @property
    def label(self) -> str:
        return f"P2({render_letters(self.period)})"

    def __repr__(self) -> str:
        return self.label

    def gp_word(self) -> TailWord:
        return TailWord((), self.period, 0)

    def flip(self) -> "RepSpace":
        swap = {1: 2, 2: 1}
        return RepSpace(tuple(swap[i] for i in self.period))

    def basis_words(self, max_depth: int) -> Iterator[TailWord]:
        """All canonical basis words with prefix length <= max_depth."""
        rot0 = self.gp_word().rot
        r = len(rot0)
        for phase in range(r):
            yield TailWord((), self.period, phase)
        for depth in range(1, max_depth + 1):
            for phase in range(r):
                blocked = rot0[(phase - 1) % r]
                for code in range(2 ** (depth - 1)):
                    prefix = []
                    c = code
                    for _ in range(depth - 1):
                        prefix.append(1 + (c & 1))
                        c >>= 1
                    prefix.append(1 if blocked == 2 else 2)
                    yield TailWord(tuple(prefix), self.period, phase)


class State:
    """A finite linear combination of basis words of one space."""

    __slots__ = ("space", "_terms")

    def __init__(self, space: RepSpace, terms=None):
        self.space = space
        clean: dict[TailWord, RadicalScalar] = {}
        if terms:
            for w, c in dict(terms).items():
                if w.period != space.period:
                    raise SpaceMismatchError(
                        f"word {w} does not belong to {space.label}"
                    )
                c = promote(c)
                if c:
                    clean[w] = c
        self._terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(space: RepSpace) -> "State":
        return State(space)

    @staticmethod
    def basis(space: RepSpace, word: TailWord, coeff=ONE) -> "State":
        return State(space, {word: coeff})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def items(self):
        return self._terms.items()

    def sorted_items(self) -> list[tuple[TailWord, RadicalScalar]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key())

    def coeff(self, word: TailWord) -> RadicalScalar:
        return self._terms.get(word, RadicalScalar.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.space.period == other.space.period and self._terms == other._terms

    def __hash__(self):
        raise TypeError("states are not hashable")

    # -- linear structure ----------------------------------------------

    def _check(self, other: "State") -> None:
        if self.space.period != other.space.period:
            raise SpaceMismatchError(
                f"cannot combine vectors of {self.space.label} and {other.space.label}"
            )

    def __add__(self, other: "State") -> "State":
        self._check(other)
        acc = dict(self._terms)
        for w, c in other._terms.items():
            s = acc.get(w)
            s = c if s is None else s + c
            if s:
                acc[w] = s
            else:
                acc.pop(w, None)
        return _wrap(self.space, acc)

    def __neg__(self) -> "State":
        return _wrap(self.space, {w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "State") -> "State":
        return self + (-other)

    def __mul__(self, scalar) -> "State":
        scalar = promote(scalar)
        if not scalar:
            return State.zero(self.space)
        return _wrap(self.space, {w: c * scalar for w, c in self._terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "State":
        return self * (ONE / promote(scalar))

    def inner(self, other: "State") -> RadicalScalar:
        """Inner product; the basis words are orthonormal."""
        self._check(other)
        acc = RadicalScalar.zero()
        small, big = self._terms, other._terms
        if len(big) < len(small):
            small, big = big, small
        for w, c in small.items():
            d = big.get(w)
            if d is not None:
                acc = acc + c * d
        return acc

    def norm2(self) -> RadicalScalar:
        return self.inner(self)

    # -- output -----------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.sorted_items():
            parts.append(f"[{c.render()}] {w.render()}")
        return "  +  ".join(parts)

    def __repr__(self) -> str:
        return f"<{self.space.label}: {self.render()}>"

    def to_json(self) -> dict:
        return {
            "space": self.space.label,
            "terms": [
                {"word": w.to_json(), "coeff": c.to_json()}
                for w, c in self.sorted_items()
            ],
        }


def _wrap(space: RepSpace, terms: dict) -> State:
    out = State.__new__(State)
    out.space = space
    out._terms = terms
    return out


def map_basis(
    state: State, fn: Callable[[TailWord], tuple[RadicalScalar, TailWord] | None]
) -> State:
    """Linear extension of a basis map.

    fn sends each basis word either to None (the word is annihilated) or
    to a single (coeff, word) pair; no basis map yields more than one term.
    A product with a factor that is the ONE object itself is not computed:
    the other factor is reused as the new coefficient.
    """
    acc: dict[TailWord, RadicalScalar] = {}
    for w, c in state.items():
        r = fn(w)
        if r is None:
            continue
        cc, ww = r
        if cc is not ONE:
            c = cc if c is ONE else c * cc
        s = acc.get(ww)
        s = c if s is None else s + c
        if s:
            acc[ww] = s
        else:
            acc.pop(ww, None)
    return _wrap(state.space, acc)


# -- generator actions ------------------------------------------------------


def gp_vector(space: RepSpace) -> State:
    """The distinguished cyclic vector, fixed by the operator word t_J."""
    return State.basis(space, space.gp_word())


def apply_t(i: int, state: State) -> State:
    return map_basis(state, lambda w: (ONE, w.prepend(i)))


def apply_t_star(i: int, state: State) -> State:
    def f(w):
        v = w.behead(i)
        return None if v is None else (ONE, v)

    return map_basis(state, f)


def apply_t_word(letters, state: State) -> State:
    """Operator word t_J: the rightmost letter acts first."""
    if isinstance(letters, str):
        letters = parse_letters(letters)
    for i in reversed(tuple(letters)):
        state = apply_t(i, state)
    return state


def apply_s(m: int, state: State) -> State:
    """The embedded generator s_m = t_2^(m-1) t_1: one block prepend per word."""
    if m < 1:
        raise ValueError(f"generator index must be >= 1, got {m}")
    return map_basis(state, lambda w: (ONE, block_prepend(m, w)))


def apply_s_star(m: int, state: State) -> State:
    """The adjoint s_m* = t_1* (t_2*)^(m-1), one basis pass.

    The letters are removed one at a time rather than by splitting off the
    leading block, so this action does not share `leading_block` with the
    boson transport it is used to check.
    """
    if m < 1:
        raise ValueError(f"generator index must be >= 1, got {m}")

    def f(w):
        for _ in range(m - 1):
            w = w.behead(2)
            if w is None:
                return None
        w = w.behead(1)
        return None if w is None else (ONE, w)

    return map_basis(state, f)


# -- shift endomorphisms on operators given as state maps --------------------


def apply_rho(op: Callable[[State], State], state: State) -> State:
    """The shift endomorphism rho(op) = sum_m s_m op s_m*, applied to a state.

    For a basis word u only the m given by the leading block of u has
    s_m* u != 0, so the sum contributes at most one term per basis word.
    """
    acc = State.zero(state.space)
    for w, c in state.items():
        lb = leading_block(w)
        if lb is None:
            continue
        m, rest = lb
        acc = acc + apply_s(m, op(State.basis(state.space, rest, c)))
    return acc


def apply_zeta(op: Callable[[State], State], state: State) -> State:
    """The twisted shift zeta(op) = t_1 op t_1* - t_2 op t_2*, applied to a state."""
    plus = apply_t(1, op(apply_t_star(1, state)))
    minus = apply_t(2, op(apply_t_star(2, state)))
    return plus - minus
