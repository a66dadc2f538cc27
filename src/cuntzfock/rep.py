"""States and generator maps for permutative representations.

A representation space is labelled by a nonempty word J; its basis is the
set of canonical tail words whose periodic part is a rotation of J, and
its GP vector is the pure word J^inf (fixed by the operator word t_J).
Each generator is one of two word edits, given as a basis map
word -> (coeff, word) | None: t_i, the operator word t_J and
s_m = t_2^(m-1) t_1 prepend a fixed head (s_m the block 2^(m-1) 1), and
their adjoints strip it or annihilate.  `generator_map` builds the map of
t_i, s_m or an adjoint, and `map_basis` lifts any basis map to states; an
operator word is applied through `ladder.apply`.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator

from .radical import ONE, RadicalScalar, promote
from .words import (
    Letters, TailWord, _make, block, check_letters, pure, render_letters, roll, unroll,
)

# The image of a basis word under a product of basis maps: one weighted word
# (coeff, word), or None for zero.
BasisMap = Callable[[TailWord], "tuple[RadicalScalar, TailWord] | None"]


class EngineError(RuntimeError):
    """An internal consistency check failed; indicates an engine bug."""


class SpaceMismatchError(ValueError):
    """Raised when vectors from different representation spaces are mixed."""


class RepSpace:
    """The representation class determined by a cycle word J."""

    __slots__ = ("period",)

    def __init__(self, period):
        period = check_letters(period)
        if not period:
            raise ValueError("the defining word J must be nonempty")
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
        return pure(self.period)

    def basis_words(self, max_depth: int) -> Iterator[TailWord]:
        """All canonical basis words with prefix length <= max_depth.

        By depth, then phase, then the prefix read as a binary number with
        its first letter lowest.  The last prefix letter differs from the
        one the tail at that phase would supply, so every word is canonical
        as built.
        """
        period = self.period
        rots = [pure(period, phase).rot for phase in range(len(self.gp_word().rot))]
        for rot in rots:
            yield _make((), period, rot)
        for depth in range(1, max_depth + 1):
            heads = [letters[::-1] for letters in product((1, 2), repeat=depth - 1)]
            for rot in rots:
                last = (3 - rot[-1],)
                for head in heads:
                    yield _make(head + last, period, rot)


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


def then(fn: BasisMap, image):
    """The basis map fn applied after image: `map_basis` on one term.

    A product with a factor that is the ONE object itself is not computed:
    the other factor is reused as the new coefficient.
    """
    if image is None:
        return None
    r = fn(image[1])
    if r is None or image[0] is ONE:
        return r
    return (image[0] if r[0] is ONE else image[0] * r[0]), r[1]


def map_basis(state: State, fn: BasisMap) -> State:
    """Linear extension of a basis map: `then` on each term.

    fn sends each basis word either to None (the word is annihilated) or
    to a single (coeff, word) pair.  Every operator of the engine is a
    partial injection on words, so two words with one image are an engine
    bug: they raise `EngineError` instead of being added up.
    """
    acc: dict[TailWord, RadicalScalar] = {}
    for w, c in state.items():
        r = then(fn, (c, w))
        if r is None:
            continue
        c, image = r
        if image in acc:
            raise _collision(state, fn, w, image)
        acc[image] = c
    return _wrap(state.space, acc)


def _collision(state: State, fn, w: TailWord, image: TailWord) -> EngineError:
    """w collides on image with a word before it: the first the rescan finds."""
    earlier = next(u for u, _ in state.items() if (fn(u) or (None, None))[1] == image)
    return EngineError(f"basis map on {state.space.label} sends both {earlier} and {w} to {image}")


# -- generator actions ------------------------------------------------------


def gp_vector(space: RepSpace) -> State:
    """The distinguished cyclic vector, fixed by the operator word t_J."""
    return State.basis(space, space.gp_word())


def prepend_map(head: Letters) -> BasisMap:
    """The basis map of the isometry that prepends the letters head to every word.

    A canonical nonempty prefix never ends in rot[-1], so head . prefix is
    canonical as it stands and is built by `_make`.  Only a pure word can
    absorb letters of head into its tail, and it goes through `roll`, as
    does a prefix that does end in rot[-1] (which only a faulty edit
    leaves), so the image equals `prepend_letters(head, w)` on every word.
    """

    def f(w):
        prefix, rot = w.prefix, w.rot
        if prefix and prefix[-1] != rot[-1]:
            return ONE, _make(head + prefix, w.period, rot)
        return ONE, roll(head + prefix, w.period, rot)

    return f


def strip_map(head: Letters) -> BasisMap:
    """The adjoint of `prepend_map`; a word is rejected on its first letter before it is
    unrolled, and on its first len(head) letters before the rest is built.

    For a one-letter head (t_i*) the first-letter test is the whole test, so
    its map unrolls one letter and compares nothing more.
    """
    first, h = head[0], len(head)

    if h == 1:
        def f(w):
            if (w.prefix or w.rot)[0] != first:
                return None
            letters, rot = unroll(w, 1)
            return ONE, _make(letters[1:], w.period, rot)

        return f

    def f(w):
        if (w.prefix or w.rot)[0] != first:
            return None
        letters, rot = unroll(w, h)
        return (ONE, _make(letters[h:], w.period, rot)) if letters[:h] == head else None

    return f


def generator_map(kind: str, idx: int, star: bool) -> BasisMap:
    """A new basis map of t_idx (kind "t") or s_idx (kind "s"), or of its adjoint when star."""
    head = check_letters((idx,)) if kind == "t" else block(idx)
    return strip_map(head) if star else prepend_map(head)
