"""The transfer unitary between the boson and fermion Fock bases.

Both monomial bases are realized on the same tail-1 representation space,
so transferring a boson monomial amounts to rewriting its basis word as a
fermion monomial.  Combinatorially: each boson factor (b*_n)^k becomes a
run of k consecutive fermion modes, and earlier runs shift the start of
later ones by their total size,

    (b*_{n_1})^{k_1} ... (b*_{n_m})^{k_m}
        |->  sqrt(k_1! ... k_m!) . a*_{S_1} ... a*_{S_m},
    S_j = {n_j + K, ..., n_j + K + k_j - 1},   K = k_1 + ... + k_{j-1}.

Consecutive runs land with gaps >= 2, so they are exactly the blocks of
the image set and the map inverts block by block: a block of length l+1
starting at x comes from mode x minus the combined size of the earlier
blocks, with multiplicity l+1 and norm factor 1/sqrt((l+1)!).

`forward` is the pure index combinatorics; `forward_operational` reroutes
through the representation space (iterated creations, then reading the
word back) and must agree exactly.

The labels of both bases live here too: `BosonMonomial` and
`FermionSubset`, their text grammars (`parse_boson_expr`,
`parse_fermion_expr`) and the mode/particle guard rails.  The transfer
needs nothing else, so this module imports only `radical`, and `map`,
`unmap` and `table` start without the words, the representation spaces
or the ladder operators.  `ladder` imports the labels from here;
`forward_operational` imports `ladder` and `rep` on its first call.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Iterable

from .radical import ONE, RadicalScalar, sqrt_factorial_product

# -- the guard rails ---------------------------------------------------------

# The two guard rails, enforced by check_mode and check_particles below.
MAX_MODE = 16
MAX_PARTICLES = 12


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


# -- the transfer ------------------------------------------------------------


# Norm factors and their reciprocals, keyed by the multiplicities above 1 in
# factor order.  Callers check the particle bound first, so every key is a
# composition of at most MAX_PARTICLES into parts >= 2: 233 keys at 12.
_NORMS: dict[tuple[int, ...], tuple[RadicalScalar, RadicalScalar]] = {}


def _norms(ks: tuple[int, ...]) -> tuple[RadicalScalar, RadicalScalar]:
    """(sqrt(k_1! ... k_m!), its reciprocal) for the multiplicities ks > 1.

    A plain dict rather than `lru_cache`, so that a tracer can still wrap
    and time this function.
    """
    pair = _NORMS.get(ks)
    if pair is None:
        norm = sqrt_factorial_product(ks)
        pair = _NORMS[ks] = norm, (ONE if norm is ONE else ONE / norm)
    return pair


class CorrespondencePair:
    """A matched boson/fermion monomial pair with its exact norm factor.

    An immutable value: `boson`, `fermion` and `coeff` are read-only, and
    two pairs are equal, and hash alike, when all three are.
    """

    __slots__ = ("_boson", "_fermion", "_coeff")

    def __init__(self, boson: BosonMonomial, fermion: FermionSubset, coeff: RadicalScalar):
        self._boson = boson
        self._fermion = fermion
        self._coeff = coeff

    @property
    def boson(self) -> BosonMonomial:
        return self._boson

    @property
    def fermion(self) -> FermionSubset:
        return self._fermion

    @property
    def coeff(self) -> RadicalScalar:
        return self._coeff

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._boson, self._fermion, self._coeff) == (
            other._boson, other._fermion, other._coeff
        )

    def __hash__(self) -> int:
        return hash((self._boson, self._fermion, self._coeff))

    def __repr__(self) -> str:
        return (
            f"CorrespondencePair(boson={self._boson!r}, fermion={self._fermion!r}, "
            f"coeff={self._coeff!r})"
        )

    def to_json(self) -> dict:
        return {
            "boson": self._boson.to_json(),
            "fermion": self._fermion.to_json(),
            "coeff": self._coeff.to_json(),
        }


def forward(M: BosonMonomial) -> CorrespondencePair:
    """Transfer a boson monomial to its fermion image, block by block.

    One pass over the factors gives the image modes and the
    multiplicities above 1, the only ones the norm factor needs.
    """
    check_particles(M.particle_number)
    modes: list[int] = []
    ks: list[int] = []
    shift = 0
    for n, k in M.factors:
        start = n + shift
        if k == 1:
            modes.append(start)
        else:
            modes.extend(range(start, start + k))
            ks.append(k)
        shift += k
    return CorrespondencePair(M, _fermion(tuple(modes)), _norms(tuple(ks))[0])


def _runs(elements: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The boson factors of a fermion image, and their multiplicities above 1.

    The element s at position i (from 0) comes from mode s - i: constant
    along a block, and growing by at least one from each block to the next.
    """
    factors, ks = [], []
    n = k = 0  # the current run of equal s - i: its mode and its length
    for i, s in enumerate(elements):
        if s - i == n:
            k += 1
            continue
        if k:
            factors.append((n, k))
            if k > 1:
                ks.append(k)
        n, k = s - i, 1
    if k:
        factors.append((n, k))
        if k > 1:
            ks.append(k)
    return tuple(factors), tuple(ks)


def inverse(S: FermionSubset) -> CorrespondencePair:
    """Transfer a fermion monomial back to its boson preimage.

    The j-th block, of length l_j + 1 starting at x_j, becomes the mode
    x_j - sum_{i<j} (l_i + 1) with multiplicity l_j + 1; the norm factor
    is the reciprocal of the forward one.
    """
    elements = S.elements
    check_particles(len(elements))
    factors, ks = _runs(elements)
    return CorrespondencePair(_boson(factors, len(elements)), S, _norms(ks)[1])


@cache
def _word_layers():
    """`ladder` and `rep`, imported on the first operational transfer and kept.

    The labels and the rest of the transfer need neither.  Kept, because an
    import statement on every call costs about 1 us, some 5% of a call.
    """
    from . import ladder, rep

    return ladder, rep


def forward_operational(M: BosonMonomial) -> CorrespondencePair:
    """Transfer through the representation space instead of index algebra.

    Applies the creations to the GP vector and reads the resulting basis
    word back as a fermion monomial.  The intermediate state must be a
    single basis term; anything else is an engine bug.
    """
    ladder, rep = _word_layers()
    state = ladder.boson_state_iterated(M)
    if len(state) != 1:
        raise rep.EngineError(f"creation monomial {M} did not yield a single word: {state!r}")
    ((word, coeff),) = state.items()
    S = ladder.parse_fermion_word(word)
    if S is None:
        raise rep.EngineError(
            f"word {word} of creation monomial {M} is not a fermion monomial word")
    return CorrespondencePair(M, S, coeff)


def enumerate_grade(n: int, max_mode: int) -> list[CorrespondencePair]:
    """All n-particle pairs with boson modes <= max_mode, in lex order.

    Sorted modes m_0 <= ... <= m_{n-1} go to s_i = m_i + i, so the images are
    the n-subsets of {1, ..., max_mode + n - 1}, which `combinations` yields
    in lex order, the order the map keeps; each row is read off its image.
    """
    if n < 0:
        raise ValueError("particle count must be >= 0")
    check_particles(n)
    pairs = []
    for elements in combinations(range(1, max_mode + n), n):
        factors, ks = _runs(elements)
        pairs.append(CorrespondencePair(_boson(factors, n), _fermion(elements), _norms(ks)[0]))
    return pairs


def grade_table_tsv(pairs: list[CorrespondencePair]) -> str:
    lines = ["boson\tfermion\tcoeff\tcoeff_decimal"]
    for p in pairs:
        lines.append(
            f"{p.boson}\t{p.fermion}\t{p.coeff.render()}\t{p.coeff.render_decimal()}"
        )
    return "\n".join(lines) + "\n"
