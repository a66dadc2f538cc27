"""The definitional forms of the ladder operators, kept as oracles for the fast transports.

b_1 is the weighted block series sum_m sqrt(m) s_m s_{m+1}*, b_n the
(n-1)-fold shift rho of b_1, a_1 = t_1 t_2* and a_n the (n-1)-fold
twisted shift zeta of a_1.  Operators are given as state maps, plain
functions State -> State, so rho(x) = sum_m s_m x s_m* and
zeta(y) = t_1 y t_1* - t_2 y t_2* take such a map and apply its image to
a state.  The rho sum needs no truncation: on a basis word at most the
single summand picked out by the leading block survives.
`_NumericFamily` builds the same forms as truncated operators on l2(N),
with exact weights, for the comparison of `verify.float_oracle`.

These forms share no code with the fast path they check.  They are built
from the t/s generators, which define them: `rep.generator_map` lifted
by `rep.map_basis`, with no mode bound, since the rho series reaches s_m
above `MAX_MODE`.  s_m* is given its block length rather than searching
for it, so it shares neither `leading_block` nor the boson transport's
`nth_block`.
`leading_block` keeps a split of its own, built with `words._make`, not
`unroll`.  The import allowlist of this module, and the rule that
no fast module imports it, are checked by a static layering test.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable

from .radical import ONE, sqrt_of_nat
from .rep import EngineError, State, generator_map, map_basis
from .words import _make


def leading_block(w):
    """Split the tail word w = 2^(m-1) 1 . v and return (m, v); None when w is 2^inf.

    Every word over {1,2} other than 2^inf has a unique such split, which
    is what makes infinite sums over these blocks collapse to one summand.
    """
    prefix = w.prefix
    if 1 in prefix:
        j = prefix.index(1)
        return j + 1, _make(prefix[j + 1:], w.period, w.rot)
    rot = w.rot
    if 1 not in rot:
        return None
    # the block ends inside the tail: the rest is the tail rotated past it
    k = rot.index(1) + 1
    return len(prefix) + k, _make((), w.period, rot[k:] + rot[:k])


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
        image = op(State.basis(state.space, rest, c))
        acc = acc + map_basis(image, generator_map("s", m, False))
    return acc


def apply_zeta(op: Callable[[State], State], state: State) -> State:
    """The twisted shift zeta(op) = t_1 op t_1* - t_2 op t_2*, applied to a state.

    op is linear, so a branch whose t_i* image is zero contributes zero and
    op is not called on it: on a basis word exactly one branch survives.
    """
    plus, minus = (map_basis(state, generator_map("t", i, True)) for i in (1, 2))
    if plus:
        plus = map_basis(op(plus), generator_map("t", 1, False))
    if minus:
        minus = map_basis(op(minus), generator_map("t", 2, False))
    return plus - minus


# -- the ladder operators ---------------------------------------------------


def _b1_direct(create: bool, state: State) -> State:
    """b_1 (create=False) or b_1* (create=True) from its weighted block series.

    b_1 = sum_m sqrt(m) s_m s_{m+1}* and b_1* = sum_m sqrt(m) s_{m+1} s_m*.
    On a basis word whose leading block has length L, s_k* survives only
    for k = L, so the block picks the one summand (m = L - 1, or m = L for
    b_1*); that summand is evaluated through the generator maps alone.
    """
    acc = State.zero(state.space)
    for w, c in state.items():
        lb = leading_block(w)
        if lb is None:
            continue
        m = lb[0] if create else lb[0] - 1
        if m < 1:
            continue
        strip, prepend = (m, m + 1) if create else (m + 1, m)
        term = map_basis(State.basis(state.space, w, c), generator_map("s", strip, True))
        acc = acc + map_basis(term, generator_map("s", prepend, False)) * sqrt_of_nat(m)
    return acc


def boson_via_shifts(create: bool, n: int, state: State) -> State:
    """Oracle: b_n as the (n-1)-fold shift endomorphism applied to b_1."""
    op = partial(_b1_direct, create)
    for _ in range(n - 1):
        op = partial(apply_rho, op)
    return op(state)


def fermion_via_shifts(create: bool, n: int, state: State) -> State:
    """Oracle: a_n as the (n-1)-fold twisted shift of a_1 = t_1 t_2*.

    For create, the shifts act on a_1* = t_2 t_1* instead.
    """
    i, j = (2, 1) if create else (1, 2)
    prepend, strip = generator_map("t", i, False), generator_map("t", j, True)

    def op(st: State) -> State:
        return map_basis(map_basis(st, strip), prepend)

    for _ in range(n - 1):
        op = partial(apply_zeta, op)
    return op(state)


# -- truncated exact operators on l2(N) ---------------------------------------


def _times(a, b):
    """The product a b, reusing a factor when the other is the ONE object, as `rep.then` does."""
    return b if a is ONE else a if b is ONE else a * b


@lru_cache(maxsize=None)  # one family per dim, built on first use
class _NumericFamily:
    """Truncated operators on span{e_1..e_dim}, built from the index codec.

    Each operator is a weighted partial permutation held as a dict
    {src: (dst, w)}: e_src goes to w e_dst, and every other basis vector
    goes to 0.  A vector is a dict {index: weight} of its nonzero entries,
    so applying an operator is one lookup per entry.  Weights are exact
    `RadicalScalar`s: `t_i` has weight ONE and `b_1` the square roots
    sqrt(m) of its series.  Operators are cached by their token.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._ops: dict[tuple, dict] = {}

    def op(self, kind: str, idx: int, star: bool = False) -> dict:
        """The operator of a token as returned by `parse_op_token`."""
        tok = (kind, idx, star)
        if tok not in self._ops:
            self._ops[tok] = self._build(kind, idx, star)
        return self._ops[tok]

    def _build(self, kind: str, idx: int, star: bool) -> dict:
        op, mul = self.op, self._mul
        if star:
            return {dst: (src, w) for src, (dst, w) in op(kind, idx).items()}
        if kind == "t":  # t_i e_n = e_{2(n-1)+i}, cut to the window
            return {n: (2 * (n - 1) + idx, ONE) for n in range(1, (self.dim + 2 - idx) // 2 + 1)}
        if kind == "s":  # s_m = t_2^{m-1} t_1
            return op("t", 1) if idx == 1 else mul(op("t", 2), op("s", idx - 1))
        ms = range(1, self.dim.bit_length() + 1)  # s_m is 0 on the window once 2^(m-1) > dim
        if kind == "b" and idx == 1:  # b_1 = sum_m sqrt(m) s_m s_{m+1}*
            terms = (mul(op("s", m), op("s", m + 1, True)) for m in ms)
            return self._sum(*(
                {src: (dst, _times(sqrt_of_nat(m), w)) for src, (dst, w) in term.items()}
                for m, term in zip(ms, terms)
            ))
        if kind == "b":  # b_n = rho(b_{n-1}) = sum_m s_m b_{n-1} s_m*
            prev = op("b", idx - 1)
            return self._sum(*(mul(mul(op("s", m), prev), op("s", m, True)) for m in ms))
        if idx == 1:  # a_1 = t_1 t_2*
            return mul(op("t", 1), op("t", 2, True))
        # a_n = zeta(a_{n-1}) = t_1 a_{n-1} t_1* - t_2 a_{n-1} t_2*
        one, two = (mul(mul(op("t", i), op("a", idx - 1)), op("t", i, True)) for i in (1, 2))
        return self._sum(one, {src: (dst, -w) for src, (dst, w) in two.items()})

    @staticmethod
    def _mul(a: dict, b: dict) -> dict:
        """The product a b (b acts first): b's targets joined to a's sources."""
        out = {}
        for src, (mid, b_w) in b.items():
            hit = a.get(mid)
            if hit is not None:
                out[src] = (hit[0], _times(hit[1], b_w))
        return out

    @staticmethod
    def _sum(*terms: dict) -> dict:
        """The sum of terms with disjoint sources and disjoint targets: a basis
        map of the permutative representation yields one term, never more."""
        out = {}
        for term in terms:
            out.update(term)
        size = sum(map(len, terms))
        if len(out) < size or len({dst for dst, _ in out.values()}) < size:
            raise EngineError("series terms overlap: a basis map yields more than one term")
        return out

    def apply(self, tok, vec: dict) -> dict:
        """The operator of `tok` applied to a sparse vector {index: weight}."""
        op = self.op(*tok)
        out = {}
        for src, x in vec.items():
            hit = op.get(src)
            if hit is not None:
                out[hit[0]] = _times(hit[1], x)
        return out
