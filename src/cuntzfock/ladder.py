"""Ladder operators realized inside the two-generator algebra.

The boson family lives in the embedded infinite family: b_1 strips one 2
from the leading block with weight sqrt(run length), and b_n is the n-th
shift of b_1.  The fermion family is generated by a_1 = t_1 t_2*, shifted
by the sign-twisted endomorphism.  Both are applied here by transporting
through the leading structure of a word instead of expanding the shift
endomorphisms, so every action on a basis word is a single exact term:

    s_m b_n = b_{n+1} s_m          t_i a_n = (-1)^(i-1) a_{n+1} t_i

The slow definitional forms (the weighted series for b_1 and the nested
twisted shifts for a_n) are kept as cross-check oracles.

Closed forms: iterated creations on the tail-1 GP vector produce a single
basis word; `boson_state` and `fermion_state` write it down directly, and
`parse_fermion_word` / `parse_boson_word` read it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import rep
from .radical import ONE, sqrt_factorial_product, sqrt_of_nat
from .rep import RepSpace, State, map_basis
from .words import TailWord, block_prepend, leading_block

DEFAULT_MAX_MODE = 16
DEFAULT_MAX_PARTICLES = 12

FOCK_SPACE = RepSpace((1,))


class BoundsError(ValueError):
    """An input exceeded the configured mode/particle guard rails."""


def _check_mode(n: int, max_mode: int) -> None:
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    if n > max_mode:
        raise BoundsError(f"mode {n} exceeds the configured bound {max_mode}")


# -- single-word actions ----------------------------------------------------


def _boson_word(create: bool, n: int, w: TailWord):
    lb = leading_block(w)
    if lb is None:
        return None
    m, rest = lb  # w = 2^(m-1) 1 . rest
    if n > 1:
        sub = _boson_word(create, n - 1, rest)
        if sub is None:
            return None
        c, u = sub
        return c, block_prepend(m, u)
    if create:
        return sqrt_of_nat(m), block_prepend(m + 1, rest)
    if m == 1:
        return None
    return sqrt_of_nat(m - 1), block_prepend(m - 1, rest)


def _fermion_word(create: bool, n: int, w: TailWord):
    if n > 1:
        i = w.first
        sub = _fermion_word(create, n - 1, w.behead(i))
        if sub is None:
            return None
        c, u = sub
        if i == 2:
            c = -c
        return c, u.prepend(i)
    if create:
        v = w.behead(1)
        return None if v is None else (ONE, v.prepend(2))
    v = w.behead(2)
    return None if v is None else (ONE, v.prepend(1))


def apply_boson(create: bool, n: int, state: State, *, max_mode: int = DEFAULT_MAX_MODE) -> State:
    """Exact action of b_n (create=False) or b_n* (create=True)."""
    _check_mode(n, max_mode)
    return map_basis(state, lambda w: _boson_word(create, n, w))


def apply_fermion(create: bool, n: int, state: State, *, max_mode: int = DEFAULT_MAX_MODE) -> State:
    """Exact action of a_n (create=False) or a_n* (create=True)."""
    _check_mode(n, max_mode)
    return map_basis(state, lambda w: _fermion_word(create, n, w))


# -- definitional oracles ---------------------------------------------------


def _b1_direct(create: bool, state: State) -> State:
    """b_1 (create=False) or b_1* (create=True) from its weighted block series.

    b_1 = sum_m sqrt(m) s_m s_{m+1}* and b_1* = sum_m sqrt(m) s_{m+1} s_m*.
    On a basis word whose leading block has length L, s_k* survives only
    for k = L, so the block picks the one summand (m = L - 1, or m = L for
    b_1*); that summand is evaluated through the generator actions alone.
    """
    acc = State.zero(state.space)
    for w, c in state.items():
        lb = leading_block(w)
        if lb is None:
            continue
        m = lb[0] if create else lb[0] - 1
        if m < 1:
            continue
        psi = State.basis(state.space, w, c)
        if create:
            term = rep.apply_s(m + 1, rep.apply_s_star(m, psi))
        else:
            term = rep.apply_s(m, rep.apply_s_star(m + 1, psi))
        acc = acc + term * sqrt_of_nat(m)
    return acc


def boson_via_shifts(create: bool, n: int, state: State) -> State:
    """Oracle: b_n as the (n-1)-fold shift endomorphism applied to b_1."""
    op = partial(_b1_direct, create)
    for _ in range(n - 1):
        op = partial(rep.apply_rho, op)
    return op(state)


def fermion_via_shifts(create: bool, n: int, state: State) -> State:
    """Oracle: a_n as the (n-1)-fold twisted shift of a_1 = t_1 t_2*.

    For create, the shifts act on a_1* = t_2 t_1* instead.
    """
    i, j = (2, 1) if create else (1, 2)

    def op(st: State) -> State:
        return rep.apply_t(i, rep.apply_t_star(j, st))

    for _ in range(n - 1):
        op = partial(rep.apply_zeta, op)
    return op(state)


# -- monomial types ---------------------------------------------------------


@dataclass(frozen=True)
class BosonMonomial:
    """(b*_{n_1})^{k_1} ... (b*_{n_m})^{k_m} with n_1 < ... < n_m, k_i >= 1."""

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = 0
        for n, k in self.factors:
            if n <= prev:
                raise ValueError("modes must be strictly increasing")
            if k < 1:
                raise ValueError("multiplicities must be >= 1")
            prev = n

    @staticmethod
    def from_modes(modes) -> "BosonMonomial":
        counts: dict[int, int] = {}
        for n in modes:
            if n < 1:
                raise ValueError(f"mode index must be >= 1, got {n}")
            counts[n] = counts.get(n, 0) + 1
        return BosonMonomial(tuple(sorted(counts.items())))

    @property
    def particle_number(self) -> int:
        return sum(k for _, k in self.factors)

    @property
    def max_mode(self) -> int:
        return self.factors[-1][0] if self.factors else 0

    def render(self) -> str:
        return " ".join(f"{n}^{k}" if k > 1 else str(n) for n, k in self.factors)

    def __str__(self) -> str:
        return self.render() or "(vacuum)"

    def to_json(self) -> dict:
        return {"factors": [{"mode": n, "mult": k} for n, k in self.factors]}

    @staticmethod
    def from_json(data: dict) -> "BosonMonomial":
        return BosonMonomial(tuple((f["mode"], f["mult"]) for f in data["factors"]))


@dataclass(frozen=True)
class FermionSubset:
    """a*_{s_1} ... a*_{s_r} for a strictly increasing set of modes."""

    elements: tuple[int, ...] = ()

    def __post_init__(self):
        prev = 0
        for s in self.elements:
            if s <= prev:
                raise ValueError("modes must be strictly increasing")
            prev = s

    @staticmethod
    def of(modes) -> "FermionSubset":
        modes = sorted(modes)
        if len(set(modes)) != len(modes):
            raise ValueError("repeated fermion mode: the monomial vanishes")
        return FermionSubset(tuple(modes))

    @property
    def particle_number(self) -> int:
        return len(self.elements)

    def render(self) -> str:
        return " ".join(str(s) for s in self.elements)

    def __str__(self) -> str:
        return self.render() or "(vacuum)"

    def to_json(self) -> list:
        return list(self.elements)

    @staticmethod
    def from_json(data) -> "FermionSubset":
        return FermionSubset(tuple(data))


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
    return sign, FermionSubset(tuple(sorted(modes)))


# -- the monomial grammar ---------------------------------------------------


def parse_boson_expr(text: str) -> BosonMonomial:
    """Parse `1^2 3 5` (optionally prefixed by `b:`) into a monomial."""
    text = text.strip()
    if text.startswith("b:"):
        text = text[2:]
    modes: list[int] = []
    for token in text.split():
        mode, _, mult = token.partition("^")
        try:
            n = int(mode)
            k = int(mult) if mult else 1
        except ValueError:
            raise ValueError(f"bad monomial token {token!r}") from None
        if n < 1 or k < 1:
            raise ValueError(f"bad monomial token {token!r}")
        modes.extend([n] * k)
    return BosonMonomial.from_modes(modes)


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
    ordered = normal_order_fermion(modes)
    if ordered is None:
        raise ValueError("repeated fermion mode: the monomial vanishes")
    return ordered


# -- closed-form state builders ---------------------------------------------


def _require_fock(space: RepSpace) -> None:
    if space.gp_word().rot != (1,):
        raise ValueError(f"{space.label} is not the tail-1 space")


def _check_particles(count: int, max_particles: int) -> None:
    if count > max_particles:
        raise BoundsError(
            f"{count} particles exceed the configured bound {max_particles}"
        )


def boson_state(
    M: BosonMonomial,
    space: RepSpace = FOCK_SPACE,
    *,
    max_particles: int = DEFAULT_MAX_PARTICLES,
) -> State:
    """The single basis term of an iterated boson creation monomial.

    The word spells out each mode gap in 1s and each multiplicity in 2s;
    the coefficient is the product of sqrt(k_i!).
    """
    _require_fock(space)
    _check_particles(M.particle_number, max_particles)
    letters: list[int] = []
    prev = None
    for n, k in M.factors:
        gap = (n - 1) if prev is None else (n - prev)
        letters.extend([1] * gap)
        letters.extend([2] * k)
        prev = n
    coeff = sqrt_factorial_product(k for _, k in M.factors)
    return State.basis(space, TailWord(tuple(letters), space.period), coeff)


def fermion_state(
    S: FermionSubset,
    space: RepSpace = FOCK_SPACE,
    *,
    max_particles: int = DEFAULT_MAX_PARTICLES,
) -> State:
    """The single basis term of an iterated fermion creation monomial."""
    _require_fock(space)
    _check_particles(S.particle_number, max_particles)
    letters: list[int] = []
    prev = 0
    for s in S.elements:
        letters.extend([1] * (s - prev - 1))
        letters.append(2)
        prev = s
    return State.basis(space, TailWord(tuple(letters), space.period))


def boson_state_iterated(
    M: BosonMonomial,
    space: RepSpace = FOCK_SPACE,
    *,
    max_mode: int = DEFAULT_MAX_MODE,
    max_particles: int = DEFAULT_MAX_PARTICLES,
) -> State:
    """The same vector built by actually applying the creations."""
    _require_fock(space)
    _check_particles(M.particle_number, max_particles)
    state = rep.gp_vector(space)
    for n, k in reversed(M.factors):
        for _ in range(k):
            state = apply_boson(True, n, state, max_mode=max_mode)
    return state


def fermion_state_iterated(
    S: FermionSubset,
    space: RepSpace = FOCK_SPACE,
    *,
    max_mode: int = DEFAULT_MAX_MODE,
    max_particles: int = DEFAULT_MAX_PARTICLES,
) -> State:
    _require_fock(space)
    _check_particles(S.particle_number, max_particles)
    state = rep.gp_vector(space)
    for s in reversed(S.elements):
        state = apply_fermion(True, s, state, max_mode=max_mode)
    return state


# -- reading words back -----------------------------------------------------


def parse_fermion_word(w: TailWord):
    """Invert `fermion_state` on a tail-1 basis word; None otherwise."""
    if w.rot != (1,):
        return None
    modes: list[int] = []
    prev = 0
    gap = 0
    for letter in w.prefix:
        if letter == 1:
            gap += 1
        else:
            mode = prev + gap + 1
            modes.append(mode)
            prev = mode
            gap = 0
    if gap:  # cannot happen for canonical words; guard for robustness
        return None
    return FermionSubset(tuple(modes))


def parse_boson_word(w: TailWord):
    """Invert `boson_state` on a tail-1 basis word; None otherwise."""
    if w.rot != (1,):
        return None
    factors: list[tuple[int, int]] = []
    mode = 0
    j = 0
    prefix = w.prefix
    while j < len(prefix):
        ones = 0
        while j < len(prefix) and prefix[j] == 1:
            ones += 1
            j += 1
        twos = 0
        while j < len(prefix) and prefix[j] == 2:
            twos += 1
            j += 1
        if twos == 0:  # trailing 1-run; impossible for canonical words
            return None
        mode = ones + 1 if not factors else mode + ones
        factors.append((mode, twos))
    return BosonMonomial(tuple(factors))
