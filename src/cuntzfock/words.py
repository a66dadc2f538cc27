"""Words over the alphabet {1, 2}.

Basis vectors of a permutative representation are eventually periodic
one-sided infinite words: a finite prefix followed by a rotation of a
fixed period repeated forever.  The canonical form absorbs any prefix
letter that the periodic tail would supply anyway, so two words denote
the same infinite sequence exactly when their canonical forms coincide.

The tail-1 family ("period (1)") additionally carries the integer codec
idx(empty) = 1, idx(i . w) = 2*(idx(w) - 1) + i, identifying its basis
with the standard basis of l2(N).  Unrolled, idx(w) - 1 is the prefix
read last letter first as binary digits, each letter i giving i - 1.
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


def check_letters(letters) -> Letters:
    """The letters as a tuple; ValueError unless each one is 1 or 2."""
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

    A word is its three fields: `rot` is the primitive root of `period`
    rotated by `phase` letters (the phase is read back from `rot`), and
    the hash of (prefix, rot) is taken when asked.  A nonempty prefix
    never ends in rot[-1]: that letter would be absorbed into the tail.
    The constructor is the only entry that validates words from outside;
    it fills its own slots with the canonical form of its letters on the
    tail of `pure(period, phase)`, building no other word.  The generator
    and ladder actions read a word through `unroll` (letters and a
    rotated tail, as tuples) and build their image with `roll`, the one
    step that canonicalises (`prepend_letters` is `roll` on the prepended
    letters), or, for a suffix, which is canonical as it stands, with `_make`.
    """

    __slots__ = ("prefix", "period", "rot")

    def __init__(self, prefix=(), period=(1,), phase: int = 0):
        letters = check_letters(prefix)
        self.period, rot = _root(period, phase)
        self.prefix, self.rot = _absorbed(letters, rot)

    # the infinite word is determined by (prefix, rot)
    def __eq__(self, other) -> bool:
        if not isinstance(other, TailWord):
            return NotImplemented
        return self.prefix == other.prefix and self.rot == other.rot

    def __hash__(self) -> int:
        return hash((self.prefix, self.rot))

    @property
    def phase(self) -> int:
        """How far `rot` is rotated from the primitive root of `period`, mod its length."""
        rot = self.rot
        prim = self.period[:len(rot)]
        return next(k for k in range(len(rot)) if prim[k:] + prim[:k] == rot)

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def letter_at(self, j: int) -> int:
        if j < len(self.prefix):
            return self.prefix[j]
        return self.rot[(j - len(self.prefix)) % len(self.rot)]

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


def _make(prefix: Letters, period: Letters, rot: Letters) -> TailWord:
    """Fill the slots of a word that is already canonical; nothing is checked."""
    w = TailWord.__new__(TailWord)
    w.prefix = prefix
    w.period = period
    w.rot = rot
    return w


def _root(period, phase: int) -> "tuple[Letters, Letters]":
    """(period, rot): the checked period, and its primitive root rotated by phase letters."""
    period = check_letters(period)
    if not period:
        raise ValueError("period must be nonempty")
    r = _primitive_len(period)
    prim = period[:r]
    phase %= r
    return period, prim[phase:] + prim[:phase]


def pure(period, phase: int = 0) -> TailWord:
    """The word rot^inf, rot the primitive root of period rotated by phase letters."""
    return _make((), *_root(period, phase))


def flip(w: TailWord) -> TailWord:
    """Swap the letters 1 <-> 2 throughout; the swap of a canonical word is canonical."""
    prefix, period, rot = (tuple(3 - i for i in x) for x in (w.prefix, w.period, w.rot))
    return _make(prefix, period, rot)


def nth_block(w: TailWord, n: int) -> "tuple[int, int] | None":
    """Find the n-th leading block: w = head . 2^(m-1) 1 . v with n-1 blocks in head.

    Returns (len(head), m), or None when the word turns into 2^inf before
    n blocks.  No letters are built: a block that ends in the prefix is
    found by scanning it, and one that ends past it by arithmetic on the
    tail (`_tail_block`).
    """
    prefix = w.prefix
    ones = prefix.count(1)
    if n <= ones:
        start = 0
        for _ in range(n - 1):
            start = prefix.index(1, start) + 1
        return start, prefix.index(1, start) + 1 - start
    return _tail_block(w, n, ones)


def _tail_block(w: TailWord, n: int, ones: int) -> "tuple[int, int] | None":
    """`nth_block` of a word whose prefix holds ones < n 1s.

    The n-th 1 lies q whole periods past the prefix, at the offset k of
    the r-th 1 (from 0) of rot.  The 1 before it is the prefix's last 1,
    the (r-1)-th 1 of rot in the same period, or the last 1 of rot in the
    period before, so a block may start in the prefix and end in the tail.
    """
    rot = w.rot
    per_rot = rot.count(1)
    if not per_rot:
        return None
    prefix = w.prefix
    q, r = divmod(n - ones - 1, per_rot)
    prev, k = -1, rot.index(1)
    for _ in range(r):
        prev, k = k, rot.index(1, k + 1)
    end = len(prefix) + q * len(rot) + k + 1
    if n - 1 > ones:  # the 1 before the n-th lies in the tail too
        if r:
            start = end - k + prev
        else:
            last = len(rot) - 1
            while rot[last] != 1:
                last -= 1
            start = end - k - len(rot) + last
    elif ones:
        start = len(prefix)
        while prefix[start - 1] != 1:
            start -= 1
    else:
        start = 0
    return start, end - start


def _absorbed(letters: Letters, rot: Letters) -> "tuple[Letters, Letters]":
    """The canonical (prefix, rot) of the word letters . rot^inf.

    The tail steps back one letter for each trailing letter it supplies.
    """
    r = len(rot)
    k = len(letters)
    back = 0
    while k and letters[k - 1] == rot[(-1 - back) % r]:
        k -= 1
        back += 1
    s = back % r
    return letters[:k], rot[r - s:] + rot[:r - s]


def roll(letters: Letters, period: Letters, rot: Letters) -> TailWord:
    """The word letters . rot^inf of period, rot a rotation of its root, built as one word.

    The inverse of `unroll`.  Letters are not checked.  Only a last letter
    equal to rot[-1] is absorbed, and only then is the word canonicalised.
    """
    if letters and letters[-1] == rot[-1]:
        letters, rot = _absorbed(letters, rot)
    return _make(letters, period, rot)


def unroll(w: TailWord, h: int) -> "tuple[Letters, Letters]":
    """w as letters . rot^inf with at least h letters, building no word.

    Up to the end of the prefix the letters are the prefix and rot the
    tail; past it the tail gives up its letters up to h and is rotated by
    them.  The first h letters of w are letters[:h], and a suffix
    letters[h:] is itself canonical on rot.  An edit before the prefix's
    last letter keeps that letter, so `roll` finds the result canonical.
    """
    prefix = w.prefix
    if h <= len(prefix):
        return prefix, w.rot
    rot = w.rot
    q, k = divmod(h - len(prefix), len(rot))
    return prefix + rot * q + rot[:k], rot[k:] + rot[:k]


def prepend_letters(letters: Letters, w: TailWord) -> TailWord:
    """Prepend a tuple of letters in one step: letters . w.

    Equal to prepending them one at a time, last letter first.  Letters
    are not checked.  Only when w has an empty prefix can the tail absorb
    some of them.
    """
    return roll(letters + w.prefix, w.period, w.rot)


def block(m: int) -> Letters:
    """The block 2^(m-1) 1 that s_m prepends."""
    if m < 1:
        raise ValueError(f"generator index must be >= 1, got {m}")
    return (2,) * (m - 1) + (1,)


# The codec's binary digits: letter i <-> digit i - 1.
_DIGITS = bytes.maketrans(b"\x01\x02", b"01")


def _digit_letters() -> "tuple[tuple[Letters, ...], tuple[Letters, ...]]":
    """The letters of a byte b, lowest digit first: all 8 of them, and those up
    to b's leading 1 (none for 0).  Each step appends one digit to every entry."""
    full, lead = [()], [()]
    for _ in range(8):
        upper = [x + (2,) for x in full]  # the entries whose leading 1 is the new digit
        full = [x + (1,) for x in full] + upper
        lead += upper
    return tuple(full), tuple(lead)


_BYTE_LETTERS, _LEAD_LETTERS = _digit_letters()


def word_to_index(w: TailWord) -> int:
    """Position of a tail-1 word in the l2(N) basis."""
    if w.rot != (1,):
        raise ValueError(f"{w} is not a tail-1 word")
    prefix = w.prefix
    return int(bytes(prefix[::-1]).translate(_DIGITS), 2) + 1 if prefix else 1


def index_to_word(n: int) -> TailWord:
    """The tail-1 word of index n: the digits of n - 1 as letters, lowest first.

    They are read from the tables of `_digit_letters`, one byte at a time.
    The last letter is the leading digit 1, a 2, never the tail's 1, so the
    word is canonical as built.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    k, letters = n - 1, ()
    while k > 255:
        letters += _BYTE_LETTERS[k & 255]
        k >>= 8
    return _make(letters + _LEAD_LETTERS[k], (1,), (1,))
