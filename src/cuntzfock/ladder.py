"""Ladder operators realized inside the two-generator algebra.

The boson family lives in the embedded infinite family: b_1 strips one 2
from the leading block with weight sqrt(run length), and b_n is the n-th
shift of b_1.  The fermion family is generated by a_1 = t_1 t_2*, shifted
by the sign-twisted endomorphism.  Both are applied here by transporting
through the leading structure of a word instead of expanding the shift
endomorphisms, so every action on a basis word is a single exact term:

    s_m b_n = b_{n+1} s_m          t_i a_n = (-1)^(i-1) a_{n+1} t_i

On a word both are one split and one prepend (`words.split_letters`,
`words.prepend_letters`): b_n passes the first n-1 blocks and lengthens
or shortens the n-th by one 2; a_n passes the first n-1 letters, with a
sign for each 2, and flips the n-th.

Closed forms: iterated creations on the tail-1 GP vector produce a single
basis word; `boson_state` and `fermion_state` write it down directly, and
`parse_fermion_word` / `parse_boson_word` read it back.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from typing import Iterable

from .radical import ONE, sqrt_factorial_product, sqrt_of_nat
from .rep import BasisMap, RepSpace, State, generator_map, map_basis, then
from .words import TailWord, index_to_word, nth_block, prepend_letters, split_letters

# The two guard rails, enforced by check_mode and check_particles below.
MAX_MODE = 16
MAX_PARTICLES = 12

FOCK_SPACE = RepSpace((1,))
_VACUUM = FOCK_SPACE.gp_word()


class BoundsError(ValueError):
    """An input exceeded the mode/particle guard rails."""


def check_mode(n: int) -> None:
    """Refuse a mode index above MAX_MODE."""
    if n > MAX_MODE:
        raise BoundsError(f"mode {n} exceeds the configured bound {MAX_MODE}")


def check_particles(count: int) -> None:
    """Refuse a particle count above MAX_PARTICLES."""
    if count > MAX_PARTICLES:
        raise BoundsError(f"{count} particles exceed the configured bound {MAX_PARTICLES}")


# -- single-word actions ----------------------------------------------------


def _boson_word(create: bool, n: int, w: TailWord):
    # w = head . 2^(m-1) 1 . rest: b_n* inserts one 2 where the n-th block
    # starts, b_n removes one from there; the n-1 blocks in head pass unchanged
    found = nth_block(w, n)
    if found is None:
        return None
    start, m = found
    if create:
        head, rest = split_letters(w, start)
        return sqrt_of_nat(m), prepend_letters(head + (2,), rest)
    if m == 1:
        return None
    head, rest = split_letters(w, start + 1)
    return sqrt_of_nat(m - 1), prepend_letters(head[:-1], rest)


def _fermion_word(create: bool, n: int, w: TailWord):
    # a_n = zeta^(n-1)(t_1 t_2*): the first n-1 letters pass, each 2 with a
    # sign, and the n-th is flipped 2 -> 1 (a_n) or 1 -> 2 (a_n*)
    head, rest = split_letters(w, n)
    passed, last = head[:-1], head[-1]
    if last != (1 if create else 2):
        return None
    return (-ONE if passed.count(2) % 2 else ONE), prepend_letters(passed + (3 - last,), rest)


def basis_map(tok: tuple[str, int, bool]) -> BasisMap:
    """A new basis map of a token (kind, index, star) as returned by `parse_op_token`.

    A b or a index is checked here; t and s maps come from `rep.generator_map`.
    """
    kind, n, star = tok
    if kind in "ts":
        return generator_map(kind, n, star)
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    check_mode(n)
    return partial(_boson_word if kind == "b" else _fermion_word, star, n)


def apply_boson(create: bool, n: int, state: State) -> State:
    """Exact action of b_n (create=False) or b_n* (create=True)."""
    return map_basis(state, basis_map(("b", n, create)))


def apply_fermion(create: bool, n: int, state: State) -> State:
    """Exact action of a_n (create=False) or a_n* (create=True)."""
    return map_basis(state, basis_map(("a", n, create)))


# -- monomial types ---------------------------------------------------------


def _bad_mode(n: int) -> ValueError:
    """The error for a mode not above the one before it (0 before the first)."""
    if n < 1:
        return ValueError(f"mode index must be >= 1, got {n}")
    return ValueError("modes must be strictly increasing")


class BosonMonomial:
    """(b*_{n_1})^{k_1} ... (b*_{n_m})^{k_m} with n_1 < ... < n_m, k_i >= 1.

    An immutable value: `factors` is read-only, the factor sequence is
    stored as a tuple of (mode, mult) pairs, and two monomials are equal,
    and hash alike, when their factors are.
    """

    __slots__ = ("_factors", "_particles")

    def __init__(self, factors: Iterable[tuple[int, int]] = ()):
        pairs = []
        prev = particles = 0
        for n, k in factors:
            if n <= prev:
                raise _bad_mode(n)
            if k < 1:
                raise ValueError("multiplicities must be >= 1")
            pairs.append((n, k))
            prev = n
            particles += k
        self._factors = tuple(pairs)
        self._particles = particles

    @staticmethod
    def from_modes(modes) -> "BosonMonomial":
        counts: dict[int, int] = {}
        for n in modes:
            if n < 1:
                raise ValueError(f"mode index must be >= 1, got {n}")
            counts[n] = counts.get(n, 0) + 1
        return BosonMonomial(sorted(counts.items()))

    @property
    def factors(self) -> tuple[tuple[int, int], ...]:
        return self._factors

    @property
    def particle_number(self) -> int:
        return self._particles

    @property
    def max_mode(self) -> int:
        return self._factors[-1][0] if self._factors else 0

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return hash((self._factors,))

    def __repr__(self) -> str:
        return f"BosonMonomial(factors={self._factors!r})"

    def render(self) -> str:
        return " ".join(f"{n}^{k}" if k > 1 else str(n) for n, k in self._factors)

    def __str__(self) -> str:
        return self.render() or "(vacuum)"

    def to_json(self) -> dict:
        return {"factors": [{"mode": n, "mult": k} for n, k in self._factors]}

    @staticmethod
    def from_json(data: dict) -> "BosonMonomial":
        return BosonMonomial((f["mode"], f["mult"]) for f in data["factors"])


class FermionSubset:
    """a*_{s_1} ... a*_{s_r} for a strictly increasing set of modes.

    An immutable value: `elements` is read-only and stored as a tuple, and
    two subsets are equal, and hash alike, when their elements are.
    """

    __slots__ = ("_elements",)

    def __init__(self, elements: Iterable[int] = ()):
        elements = tuple(elements)
        prev = 0
        for s in elements:
            if s <= prev:
                raise _bad_mode(s)
            prev = s
        self._elements = elements

    @property
    def elements(self) -> tuple[int, ...]:
        return self._elements

    @property
    def particle_number(self) -> int:
        return len(self._elements)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash((self._elements,))

    def __repr__(self) -> str:
        return f"FermionSubset(elements={self._elements!r})"

    def render(self) -> str:
        return " ".join(str(s) for s in self._elements)

    def __str__(self) -> str:
        return self.render() or "(vacuum)"

    def to_json(self) -> list:
        return list(self._elements)

    @staticmethod
    def from_json(data) -> "FermionSubset":
        return FermionSubset(data)


def _boson(factors: tuple[tuple[int, int], ...], particles: int) -> BosonMonomial:
    """Fill the slots of a monomial with valid factors and their particle count; unchecked."""
    M = BosonMonomial.__new__(BosonMonomial)
    M._factors = factors
    M._particles = particles
    return M


def _fermion(elements: tuple[int, ...]) -> FermionSubset:
    """Fill the slot of a subset with elements strictly increasing from 1; unchecked."""
    S = FermionSubset.__new__(FermionSubset)
    S._elements = elements
    return S


def normal_order_fermion(modes):
    """Sort a creation monomial, tracking the permutation sign.

    Returns (sign, FermionSubset), or None when a mode repeats (the
    square of a creation operator vanishes).
    """
    modes = list(modes)
    if len(set(modes)) != len(modes):
        return None
    inversions = sum(
        1
        for i in range(len(modes))
        for j in range(i + 1, len(modes))
        if modes[i] > modes[j]
    )
    sign = -1 if inversions % 2 else 1
    return sign, FermionSubset(sorted(modes))


# -- the monomial grammar ---------------------------------------------------


def parse_boson_expr(text: str) -> BosonMonomial:
    """Parse `1^2 3 5` (optionally prefixed by `b:`) into a monomial."""
    text = text.strip()
    if text.startswith("b:"):
        text = text[2:]
    counts: dict[int, int] = {}
    for token in text.split():
        mode, _, mult = token.partition("^")
        try:
            n = int(mode)
            k = int(mult) if mult else 1
        except ValueError:
            raise ValueError(f"bad monomial token {token!r}") from None
        if n < 1 or k < 1:
            raise ValueError(f"bad monomial token {token!r}")
        counts[n] = counts.get(n, 0) + k  # added up, never expanded
    check_particles(sum(counts.values()))
    return BosonMonomial(sorted(counts.items()))


def parse_fermion_expr(text: str) -> tuple[int, FermionSubset]:
    """Parse `1 2 5` (optionally prefixed by `a:`); returns (sign, subset).

    Out-of-order modes are normal ordered, contributing the permutation
    sign; a repeated mode is rejected since the monomial vanishes.
    """
    text = text.strip()
    if text.startswith("a:"):
        text = text[2:]
    modes: list[int] = []
    for token in text.split():
        try:
            n = int(token)
        except ValueError:
            raise ValueError(f"bad mode token {token!r}") from None
        if n < 1:
            raise ValueError(f"bad mode token {token!r}")
        modes.append(n)
    check_particles(len(modes))  # before the quadratic sign count
    ordered = normal_order_fermion(modes)
    if ordered is None:
        raise ValueError("repeated fermion mode: the monomial vanishes")
    return ordered


# -- the operator-token grammar ---------------------------------------------

_TOKEN_KINDS = {"t", "s", "b", "a"}


def parse_op_token(token: str) -> tuple[str, int, bool]:
    """Parse an operator token like t1, t2*, s3, b2*, a4.

    s, b and a indices are held to the mode bound here, so a word with one
    above it is refused before any of its tokens acts.
    """
    text = token.strip()
    star = text.endswith("*")
    kind, idx = text[:1], text[1:-1] if star else text[1:]
    if kind not in _TOKEN_KINDS or not idx.isdigit() or int(idx) < 1:
        raise ValueError(f"bad operator token {text!r}")
    if kind == "t" and int(idx) not in (1, 2):
        raise ValueError(f"bad operator token {text!r}: t-index must be 1 or 2")
    if kind != "t":
        check_mode(int(idx))
    return kind, int(idx), star


# -- closed-form state builders ---------------------------------------------


def boson_state(M: BosonMonomial) -> State:
    """The single basis term of an iterated boson creation monomial.

    The word spells out each mode gap in 1s and each multiplicity in 2s;
    the coefficient is the product of sqrt(k_i!).
    """
    check_particles(M.particle_number)
    letters: list[int] = []
    prev = 1
    for n, k in M.factors:
        letters.extend([1] * (n - prev))
        letters.extend([2] * k)
        prev = n
    coeff = sqrt_factorial_product(k for _, k in M.factors)
    return State.basis(FOCK_SPACE, prepend_letters(tuple(letters), _VACUUM), coeff)


def fermion_state(S: FermionSubset) -> State:
    """The single basis term of an iterated fermion creation monomial."""
    check_particles(S.particle_number)
    # a*_S Omega = e_idx: the codec's word has a 2 at each mode in S, 1s elsewhere
    idx = 1 + sum(1 << (s - 1) for s in S.elements)
    return State.basis(FOCK_SPACE, index_to_word(idx))


def _created(kind: str, factors) -> State:
    """The GP vector under the creations (x*_n)^k of factors, x = kind, on its one word."""
    image = (ONE, _VACUUM)
    for n, k in reversed(factors):
        create = basis_map((kind, n, True))
        for _ in range(k):
            image = then(create, image)
    if image is None:
        return State.zero(FOCK_SPACE)
    return State.basis(FOCK_SPACE, image[1], image[0])


def boson_state_iterated(M: BosonMonomial) -> State:
    """The same vector built by actually applying the creations."""
    check_particles(M.particle_number)
    return _created("b", M.factors)


def fermion_state_iterated(S: FermionSubset) -> State:
    check_particles(S.particle_number)
    return _created("a", [(s, 1) for s in S.elements])


# -- reading words back -----------------------------------------------------


def parse_fermion_word(w: TailWord):
    """Invert `fermion_state` on a tail-1 basis word; None otherwise.

    Mode j is occupied exactly when the j-th letter (from 1) is a 2.
    """
    if w.rot != (1,):
        return None
    return _fermion(tuple(j for j, letter in enumerate(w.prefix, 1) if letter == 2))


def parse_boson_word(w: TailWord):
    """Invert `boson_state` on a tail-1 basis word; None otherwise.

    A run of k 2s is the factor (b*_n)^k, where n - 1 counts the 1s before
    it.  A canonical tail-1 word never ends in 1, so every 1 precedes a run.
    """
    if w.rot != (1,):
        return None
    factors, mode = [], 1
    for letter, run in groupby(w.prefix):
        k = len(tuple(run))
        if letter == 1:
            mode += k
        else:
            factors.append((mode, k))
    return BosonMonomial(factors)
