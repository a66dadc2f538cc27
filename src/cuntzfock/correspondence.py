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
"""

from __future__ import annotations

from itertools import combinations

from .ladder import (
    BosonMonomial,
    FermionSubset,
    _boson,
    _fermion,
    boson_state_iterated,
    check_particles,
    parse_fermion_word,
)
from .radical import ONE, RadicalScalar, sqrt_factorial_product
from .rep import EngineError


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


def forward_operational(M: BosonMonomial) -> CorrespondencePair:
    """Transfer through the representation space instead of index algebra.

    Applies the creations to the GP vector and reads the resulting basis
    word back as a fermion monomial.  The intermediate state must be a
    single basis term; anything else is an engine bug.
    """
    state = boson_state_iterated(M)
    if len(state) != 1:
        raise EngineError(f"creation monomial {M} did not yield a single word: {state!r}")
    ((word, coeff),) = state.items()
    S = parse_fermion_word(word)
    if S is None:
        raise EngineError(f"word {word} of creation monomial {M} is not a fermion monomial word")
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
