"""Ladder operators realized inside the two-generator algebra.

The boson family lives in the embedded infinite family: b_1 strips one 2
from the leading block with weight sqrt(run length), and b_n is the n-th
shift of b_1.  The fermion family is generated by a_1 = t_1 t_2*, shifted
by the sign-twisted endomorphism.  Both are applied here by transporting
through the leading structure of a word instead of expanding the shift
endomorphisms, so every action on a basis word is a single exact term:

    s_m b_n = b_{n+1} s_m          t_i a_n = (-1)^(i-1) a_{n+1} t_i

On a word each action builds exactly one word: `words.unroll` reads the
word as letters and a rotated tail, building none, and `words.roll`
builds the edited letters on that tail, canonicalising only when the
tail absorbs their last letter.  b_n passes the first n-1 blocks and
lengthens or shortens the n-th by one 2; a_n passes the first n-1
letters, with a sign for each 2, and flips the n-th.  An action that
annihilates the word builds nothing.

Every operator token (t_i, s_m, b_n, a_n and their adjoints) has one
grammar, `parse_op_token`, and one basis map, `basis_map`; `apply` acts
with a whole operator word on a state, rightmost token first.

Closed forms: iterated creations on the tail-1 GP vector produce a single
basis word.  `fermion_state` writes it down through the l2(N) codec, and
`boson_state` is the fermion word of its image under the transfer unitary
U (`correspondence.forward`), with U's norm factor as its coefficient.
`parse_fermion_word` reads a word back, and `parse_boson_word` reads it
through U^-1.

The monomial labels (`BosonMonomial`, `FermionSubset`), their grammars and
the mode/particle bounds are defined in `correspondence` and imported from
there.
"""

from __future__ import annotations

from functools import partial

# parse_boson_expr is not used here: it stays readable as `ladder.parse_boson_expr`,
# where perfbench (warmup.py, workloads.py) reads it
from .correspondence import (
    BosonMonomial,
    FermionSubset,
    _boson,
    _fermion,
    _runs,
    check_mode,
    check_particles,
    forward,
    parse_boson_expr,
)
from .radical import ONE, ZERO, sqrt_of_nat
from .rep import BasisMap, RepSpace, State, generator_map, map_basis, then
from .words import TailWord, index_to_word, nth_block, roll, unroll

FOCK_SPACE = RepSpace((1,))
_VACUUM = FOCK_SPACE.gp_word()


# -- single-word actions ----------------------------------------------------


# the weights sqrt(m) of b_n and b_n* for the block lengths m up to _WEIGHT_TOP, by m;
# entry 1 is the ONE object, so that `then` skips products by it
_WEIGHT_TOP = 16
_WEIGHTS = (ZERO, *map(sqrt_of_nat, range(1, _WEIGHT_TOP + 1)))


def _boson_word(create: bool, n: int, w: TailWord):
    # w = head . 2^(m-1) 1 . rest: b_n* inserts one 2 where the n-th block
    # starts, with weight sqrt(m), b_n removes one from there, with weight
    # sqrt(m - 1); the n-1 blocks in head pass unchanged
    found = nth_block(w, n)
    if found is None:
        return None
    start, m = found
    if create:
        letters, rot = unroll(w, start)
        letters = letters[:start] + (2,) + letters[start:]
    elif m == 1:
        return None
    else:
        m -= 1
        letters, rot = unroll(w, start + 1)
        letters = letters[:start] + letters[start + 1:]
    return (_WEIGHTS[m] if m <= _WEIGHT_TOP else sqrt_of_nat(m)), roll(letters, w.period, rot)


def _fermion_word(create: bool, n: int, w: TailWord):
    # a_n = zeta^(n-1)(t_1 t_2*): the first n-1 letters pass, each 2 with a
    # sign, and the n-th is flipped 2 -> 1 (a_n) or 1 -> 2 (a_n*)
    letters, rot = unroll(w, n)
    last = letters[n - 1]
    if last != (1 if create else 2):
        return None
    passed = letters[:n - 1]
    return ((-ONE if passed.count(2) % 2 else ONE),
            roll(passed + (3 - last,) + letters[n:], w.period, rot))


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


def apply(operators: str, state: State) -> State:
    """The operator word operators, e.g. "b1* b1*" or "t1 t2* a3", applied to state.

    Tokens form an operator product: the rightmost token acts first.  Every
    token is parsed, and so held to the mode bound, before any of them acts.
    """
    maps = [basis_map(parse_op_token(token)) for token in operators.split()]
    for fn in reversed(maps):
        state = map_basis(state, fn)
    return state


# -- closed-form state builders ---------------------------------------------


def _subset_word(elements: tuple[int, ...]) -> TailWord:
    """The codec word of a*_S Omega: a 2 at each mode in S, 1s elsewhere."""
    return index_to_word(1 + sum(1 << (s - 1) for s in elements))


def boson_state(M: BosonMonomial) -> State:
    """The single basis term of an iterated boson creation monomial.

    The word is that of U M = forward(M).fermion, and the coefficient U's
    norm factor, the product of sqrt(k_i!).
    """
    pair = forward(M)
    return State.basis(FOCK_SPACE, _subset_word(pair.fermion.elements), pair.coeff)


def fermion_state(S: FermionSubset) -> State:
    """The single basis term of an iterated fermion creation monomial."""
    check_particles(S.particle_number)
    return State.basis(FOCK_SPACE, _subset_word(S.elements))


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

    The word's fermion subset read through U^-1 (`correspondence._runs`),
    with no particle bound.
    """
    S = parse_fermion_word(w)
    if S is None:
        return None
    return _boson(_runs(S.elements)[0], len(S.elements))
