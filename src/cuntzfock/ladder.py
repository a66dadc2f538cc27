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

The monomial labels (`BosonMonomial`, `FermionSubset`), their grammars and
the mode/particle bounds are defined in `correspondence` and imported from
there; this module adds the operator-token grammar `parse_op_token`.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby

# parse_boson_expr is not used here: it stays readable as `ladder.parse_boson_expr`,
# where perfbench (warmup.py, workloads.py) reads it
from .correspondence import (
    BosonMonomial,
    FermionSubset,
    _fermion,
    check_mode,
    check_particles,
    parse_boson_expr,
)
from .radical import ONE, sqrt_factorial_product, sqrt_of_nat
from .rep import BasisMap, RepSpace, State, generator_map, map_basis, then
from .words import TailWord, index_to_word, nth_block, prepend_letters, split_letters

FOCK_SPACE = RepSpace((1,))
_VACUUM = FOCK_SPACE.gp_word()


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
