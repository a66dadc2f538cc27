"""Words over the alphabet {1, 2}.

Basis vectors of a permutative representation are eventually periodic
one-sided infinite words: a finite prefix followed by a rotation of a
fixed period repeated forever.  The canonical form absorbs any prefix
letter that the periodic tail would supply anyway, so two words denote
the same infinite sequence exactly when their canonical forms coincide.

The tail-1 family ("period (1)") additionally carries the integer codec
idx(empty) = 1, idx(i . w) = 2*(idx(w) - 1) + i, identifying its basis
with the standard basis of l2(N).
"""

from __future__ import annotations

from typing import Iterable

Letters = tuple[int, ...]


def parse_letters(text: str) -> Letters:
    """Parse a string like "122" into a letter tuple."""
    out = []
    for ch in text:
        if ch not in "12":
            raise ValueError(f"invalid letter {ch!r}; alphabet is {{1,2}}")
        out.append(int(ch))
    return tuple(out)


def render_letters(letters: Iterable[int]) -> str:
    return "".join(str(i) for i in letters)


def _validate(letters) -> Letters:
    letters = tuple(letters)
    for i in letters:
        if i not in (1, 2):
            raise ValueError(f"invalid letter {i!r}; alphabet is {{1,2}}")
    return letters


def _primitive_len(period: Letters) -> int:
    k = len(period)
    for r in range(1, k + 1):
        if k % r == 0 and period == period[:r] * (k // r):
            return r
    return k  # unreachable


class TailWord:
    """Canonical eventually periodic infinite word: prefix . rot(period)^inf.

    `rot` is the primitive root of `period` rotated by `phase`, and `phase`
    is reduced mod len(rot).  A nonempty prefix never ends in rot[-1]: that
    letter would be absorbed into the tail.  These invariants are what lets
    `prepend`, `behead`, `leading_block(s)` and `prepend_letters` build their
    results with `_make` instead of canonicalising again; the constructor is
    the only entry that validates and canonicalises words from outside.
    """

    __slots__ = ("prefix", "period", "phase", "rot", "_hash")

    def __init__(self, prefix=(), period=(1,), phase: int = 0):
        prefix = _validate(prefix)
        period = _validate(period)
        if not period:
            raise ValueError("period must be nonempty")
        r = _primitive_len(period)
        prim = period[:r]
        phase %= r
        p = list(prefix)
        # absorb prefix letters already supplied by the periodic tail
        while p and p[-1] == prim[(phase - 1) % r]:
            p.pop()
            phase = (phase - 1) % r
        self.prefix = tuple(p)
        self.period = period
        self.phase = phase
        self.rot = tuple(prim[(phase + i) % r] for i in range(r))
        self._hash = hash((self.prefix, self.rot))

    # the infinite word is determined by (prefix, rot)
    def __eq__(self, other) -> bool:
        if not isinstance(other, TailWord):
            return NotImplemented
        return self.prefix == other.prefix and self.rot == other.rot

    def __hash__(self) -> int:
        return self._hash

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def letter_at(self, j: int) -> int:
        if j < len(self.prefix):
            return self.prefix[j]
        return self.rot[(j - len(self.prefix)) % len(self.rot)]

    @property
    def first(self) -> int:
        return self.prefix[0] if self.prefix else self.rot[0]

    def prepend(self, i: int) -> "TailWord":
        if i not in (1, 2):
            raise ValueError(f"invalid letter {i!r}")
        if self.prefix:
            return _make((i,) + self.prefix, self.period, self.phase, self.rot)
        rot = self.rot
        if i == rot[-1]:
            # absorbed: the tail steps back one letter
            return _make((), self.period, (self.phase - 1) % len(rot), rot[-1:] + rot[:-1])
        return _make((i,), self.period, self.phase, rot)

    def behead(self, i: int) -> "TailWord | None":
        """Remove a leading letter i; None if the word does not start with i."""
        if i not in (1, 2):
            raise ValueError(f"invalid letter {i!r}")
        prefix = self.prefix
        if prefix:
            if prefix[0] != i:
                return None
            return _make(prefix[1:], self.period, self.phase, self.rot)
        rot = self.rot
        if rot[0] != i:
            return None
        return _make((), self.period, (self.phase + 1) % len(rot), rot[1:] + rot[:1])

    def render(self) -> str:
        return f"{render_letters(self.prefix)}({render_letters(self.rot)})"

    def __repr__(self) -> str:
        return self.render()

    def sort_key(self) -> tuple:
        return (len(self.prefix), self.prefix, self.rot)

    def to_json(self) -> dict:
        return {
            "prefix": render_letters(self.prefix),
            "period": render_letters(self.period),
            "phase": self.phase,
        }

    @staticmethod
    def from_json(data: dict) -> "TailWord":
        return TailWord(
            parse_letters(data["prefix"]),
            parse_letters(data["period"]),
            data.get("phase", 0),
        )


def _make(prefix: Letters, period: Letters, phase: int, rot: Letters) -> TailWord:
    """Fill the slots of a word that is already canonical; nothing is checked."""
    w = TailWord.__new__(TailWord)
    w.prefix = prefix
    w.period = period
    w.phase = phase
    w.rot = rot
    w._hash = hash((prefix, rot))
    return w


def pure(period, phase: int = 0) -> TailWord:
    return TailWord((), period, phase)


def flip(w: TailWord) -> TailWord:
    """Swap the letters 1 <-> 2 throughout."""
    swap = {1: 2, 2: 1}
    return TailWord(
        tuple(swap[i] for i in w.prefix),
        tuple(swap[i] for i in w.period),
        w.phase,
    )


def leading_block(w: TailWord) -> "tuple[int, TailWord] | None":
    """Split w = 2^(m-1) 1 . v and return (m, v); None when the word is 2^inf.

    Every word over {1,2} other than 2^inf has a unique such split, which
    is what makes infinite sums over these blocks collapse to one summand.
    """
    prefix = w.prefix
    if 1 in prefix:
        j = prefix.index(1)
        return j + 1, _make(prefix[j + 1:], w.period, w.phase, w.rot)
    rot = w.rot
    if 1 not in rot:
        return None
    # the block ends inside the tail: the rest is the tail rotated past it
    k = rot.index(1) + 1
    r = len(rot)
    return len(prefix) + k, _make((), w.period, (w.phase + k) % r, rot[k:] + rot[:k])


def leading_blocks(w: TailWord, n: int) -> "tuple[list[int], TailWord] | None":
    """Split off the first n leading blocks: w = 2^(m_1-1) 1 ... 2^(m_n-1) 1 . v.

    Returns ([m_1, ..., m_n], v), the same as n calls of `leading_block`,
    or None when the word turns into 2^inf before n blocks.  The blocks
    found in the prefix cost one scan and one slice; `leading_block` is
    called only for the blocks that run into the tail.
    """
    prefix = w.prefix
    ms: list[int] = []
    start = 0
    for _ in range(min(n, prefix.count(1))):
        j = prefix.index(1, start) + 1
        ms.append(j - start)
        start = j
    # a suffix of a canonical prefix is canonical with the same tail
    rest = _make(prefix[start:], w.period, w.phase, w.rot)
    while len(ms) < n:
        lb = leading_block(rest)
        if lb is None:
            return None
        ms.append(lb[0])
        rest = lb[1]
    return ms, rest


def prepend_letters(letters: Letters, w: TailWord) -> TailWord:
    """Prepend a tuple of letters in one step: letters . w.

    Equal to prepending them one at a time, last letter first.  Letters
    are not checked.  Only when w has an empty prefix can the tail absorb
    some of them, and only then are they looked at one by one.
    """
    if w.prefix:
        return _make(letters + w.prefix, w.period, w.phase, w.rot)
    rot = w.rot
    r = len(rot)
    k = len(letters)
    back = 0
    # the tail steps back one letter for each trailing letter it supplies
    while k and letters[k - 1] == rot[(-1 - back) % r]:
        k -= 1
        back += 1
    if back:
        s = back % r
        rot = rot[r - s:] + rot[:r - s]
    return _make(letters[:k], w.period, (w.phase - back) % r, rot)


def block_prepend(m: int, w: TailWord) -> TailWord:
    """Prepend the block 2^(m-1) 1, the word-level action of s_m.

    This is the inverse of `leading_block`: splitting the result gives
    back (m, w).
    """
    return prepend_letters((2,) * (m - 1) + (1,), w)


def word_to_index(w: TailWord) -> int:
    """Position of a tail-1 word in the l2(N) basis."""
    if w.rot != (1,):
        raise ValueError(f"{w} is not a tail-1 word")
    n = 1
    for i in reversed(w.prefix):
        n = 2 * (n - 1) + i
    return n


def index_to_word(n: int) -> TailWord:
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    out = []
    while n > 1:  # n = 2*(m - 1) + i with i = 2 - n % 2 and m = (n + 1) // 2
        out.append(2 - n % 2)
        n = (n + 1) // 2
    # the last letter taken is 2 (from n = 2), never the tail's 1: canonical
    return _make(tuple(out), (1,), 0, (1,))
