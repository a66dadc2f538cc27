"""Executable re-derivations of the algebraic identities and branching laws.

Every suite applies the exact engine to concrete basis vectors and compares
the results exactly.
Each operator sends a basis word to one weighted word or to zero, so every
suite composes the engine's basis maps on words and adds the terms of a
sum on words too: a passing check builds no `State` beyond its inputs (the
branch witnesses, the class predicates' candidates, the states of `ccr` and
`car`), and a failed one reports in the space that its words name.
"Span" claims of the branching laws are rendered as depth-bounded
reachability witnesses: density itself is not finitely checkable.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, combinations_with_replacement, product
from typing import Callable

from . import correspondence as corr
from .correspondence import (
    MAX_MODE,
    BosonMonomial,
    BoundsError,
    FermionSubset,
    check_mode,
    check_particles,
)
from .ladder import basis_map, boson_state, fermion_state, parse_op_token
from .oracles import _NumericFamily, leading_block
from .radical import ONE, promote, sqrt_factorial
from .rep import RepSpace, State, then
from .words import TailWord, flip, index_to_word, prepend_letters, word_to_index


# -- reports ---------------------------------------------------------------

# A failure label: the text itself, or a callable that formats it on demand.
Label = str | Callable[[], str]


def _text(label: Label) -> str:
    return label() if callable(label) else label


# -- word-level images ---------------------------------------------------------


def _negated(image):
    return None if image is None else (-image[0], image[1])


def _times(image, k):
    """The image times the scalar k."""
    return None if image is None else (image[0] * k, image[1])


def _t_word(t: dict, letters, image):
    """The operator word t_letters after image, its rightmost letter first; t is `_maps("t", 2)`."""
    for i in reversed(letters):
        image = then(t[False, i], image)
    return image


def _space(image) -> RepSpace:
    """The space of a `State`, or of a nonzero image: the one its word names."""
    return image.space if image.__class__ is State else RepSpace(image[1].period)


def _state(space: RepSpace, *images) -> State:
    """The sum of images, as a state of space."""
    terms: dict = {}
    for image in filter(None, images):
        c, w = image
        terms[w] = terms[w] + c if w in terms else c
    return State(space, terms)


def _reported(x, other):
    """x as a failed check shows it: an image as a state of the space of its
    word, or of other's space when x is zero; any other value as it is."""
    if x is None:
        return State.zero(_space(other))
    return _state(_space(x), x) if x.__class__ is tuple else x


def _plus(a, b):
    """The sum a + b of two images, itself an image when it has one word or none.

    A sum of two distinct words is returned as a `State`: no identity the
    suites check has one, so only a failing check builds it, and a `State`
    a stays one as terms are added to it.
    """
    if b is None:
        return a
    if a is None:
        return b
    if a.__class__ is State:
        return a + _state(a.space, b)
    if a[1] != b[1]:
        return _state(_space(a), a, b)
    c = a[0] + b[0]
    return (c, a[1]) if c else None


def _image(psi: State):
    """The one weighted word of psi; a zero state or a sum of words is refused."""
    if len(psi) != 1:
        raise ValueError(f"expected a state of one basis word, got {psi!r}")
    ((w, c),) = psi.items()
    return c, w


def _maps(x: str, top: int) -> dict:
    """The basis maps of x_k and x_k* for k <= top, keyed (star, k)."""
    return {(star, k): basis_map((x, k, star)) for star in (False, True) for k in range(1, top + 1)}


class SuiteReport:
    """Outcome of one verification suite."""

    __slots__ = ("suite", "params", "cases", "failures")

    def __init__(self, suite: str, params: dict | None = None, cases: int = 0,
                 failures: list | None = None):
        self.suite = suite
        self.params = {} if params is None else params
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, case: Label, expected, got) -> bool:
        """Count one case and record a failure when expected != got.

        The label is a string or a zero-argument callable returning one.
        A callable is called only when the check fails, and before this
        method returns, so passing checks format no label and a lambda
        over loop variables still names the case that failed.  Word-level
        images, and states from `_plus`, are reported as states (`_reported`).
        """
        self.cases += 1
        if expected != got:
            expected, got = _reported(expected, got), _reported(got, expected)
            self.failures.append(
                {"case": _text(case), "expected": repr(expected), "got": repr(got)}
            )
            return False
        return True

    def check_true(self, case: Label, ok: bool, detail: Label = "") -> bool:
        """Count one case that holds when ok is true; labels as in `check`."""
        self.cases += 1
        if not ok:
            self.failures.append(
                {"case": _text(case), "expected": "true", "got": _text(detail) or "false"}
            )
        return ok

    def absorb(self, other: "SuiteReport") -> None:
        self.cases += other.cases
        self.failures.extend(other.failures)

    def summary(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.suite}: {status} [{self.cases} cases]"

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "cases": self.cases,
            "failures": self.failures,
            "pass": self.passed,
        }


class BranchWitness:
    """Cyclic vectors exhibiting one branching decomposition."""

    __slots__ = ("space", "vectors", "labels")

    def __init__(self, space: RepSpace, vectors: list, labels: list):
        self.space = space
        self.vectors = vectors
        self.labels = labels


# -- the depth bound and the branching rungs ---------------------------------

# Basis words double with each prefix letter, so the suites that walk
# every word up to a depth refuse depths above this before they start.
MAX_DEPTH = 12


def check_depth(depth: int) -> None:
    """Refuse a basis-word depth above MAX_DEPTH."""
    if depth > MAX_DEPTH:
        raise BoundsError(f"depth {depth} exceeds the configured bound {MAX_DEPTH}")


# The branching suites and class predicates check rungs n = 1..RUNGS, of modes p(n-1)+1..pn.
RUNGS = 3
# `branch-boson` runs for p <= min(p_max, BOSON_P_MAX): lifting it adds p = 4 to `verify all`.
BOSON_P_MAX = 3


def branch_modes(p: int) -> int:
    """The top mode the branching suites reach at parameter p: their RUNGS rungs of p modes."""
    return RUNGS * p


# -- class predicates --------------------------------------------------------


def check_bf_class(psi: State, q: int, i: int, lam, n_max: int = RUNGS) -> SuiteReport:
    """Verify the boson class relations at a candidate cyclic vector.

    For n = 1..n_max: b_{q(n-1)+i} b*_{q(n-1)+i} psi = lam psi, and
    b_{q(n-1)+j} psi = 0 for j != i.  psi is one basis word.
    """
    lam = promote(lam)
    rep_ = SuiteReport(
        "bf-class", {"q": q, "i": i, "lambda": lam.render(), "n_max": n_max}
    )
    image = _image(psi)
    b = _maps("b", q * (n_max - 1) + max(q, i))
    for n in range(1, n_max + 1):
        base = q * (n - 1)
        got = then(b[False, base + i], then(b[True, base + i], image))
        rep_.check(lambda: f"b b* at mode {base + i}", _times(image, lam), got)
        for j in range(1, q + 1):
            if j == i:
                continue
            rep_.check(
                lambda: f"b at mode {base + j} annihilates",
                None,
                then(b[False, base + j], image),
            )
    return rep_


def check_ff_class(
    psi: State, p: int, i: int, starred: bool = False, n_max: int = RUNGS
) -> SuiteReport:
    """Verify the fermion class relations at a candidate cyclic vector.

    Unstarred: a_{p(n-1)+i} psi = 0 and a*_{p(n-1)+j} psi = 0 for j != i.
    Starred: the roles of a and a* are exchanged.  psi is one basis word.
    """
    rep_ = SuiteReport(
        "ff-class", {"p": p, "i": i, "starred": starred, "n_max": n_max}
    )
    image = _image(psi)
    a = _maps("a", p * (n_max - 1) + max(p, i))
    for n in range(1, n_max + 1):
        base = p * (n - 1)
        rep_.check(
            lambda: f"{'a*' if starred else 'a'} at mode {base + i} annihilates",
            None,
            then(a[starred, base + i], image),
        )
        for j in range(1, p + 1):
            if j == i:
                continue
            rep_.check(
                lambda: f"{'a' if starred else 'a*'} at mode {base + j} annihilates",
                None,
                then(a[not starred, base + j], image),
            )
    return rep_


# -- branching: restriction to the embedded infinite family ------------------


def _peel_to(target: TailWord, w: TailWord) -> bool:
    """Does w reach target by repeated s_m* steps?

    Each step peels the leading block 2^(m-1) 1.  The steps walk the
    prefix past each of its 1s, keeping the tail; once no 1 is left in
    the prefix, each step rotates the tail past its next 1.  So w reaches
    exactly itself, the rests of its prefix after a 1 with its tail, and
    the empty-prefix words of its tail rotated past one of its 1s.
    """
    if target == w:
        return True
    prefix, rot, rest = w.prefix, w.rot, target.prefix
    h = len(prefix) - len(rest)
    if h > 0 and prefix[h - 1] == 1 and prefix[h:] == rest and target.rot == rot:
        return True
    return not rest and any(
        rot[k - 1] == 1 and rot[k:] + rot[:k] == target.rot for k in range(1, len(rot) + 1)
    )


def check_branching_oinfty(value: int, variant: str, depth: int = 8) -> SuiteReport:
    """Witness that the restricted representation is the expected class.

    variant "p": on P2(1 2^(p-1)) the vector t_2^(p-1) Omega is fixed by
    s_p, giving the class with cycle word (p).  variant "q": on
    P2(1^q 2) the vector t_1^(q-1) t_2 Omega is fixed by s_1^(q-1) s_2,
    giving the class with cycle word 1^(q-1) 2.  Reachability of every
    basis word (prefix depth <= depth) by creation blocks witnesses
    cyclicity at desk scale.  value is held to the mode bound, as the
    index of s_p is.
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    check_mode(value)
    check_depth(depth)
    if variant == "p":
        p = value
        space = RepSpace((1,) + (2,) * (p - 1))
        anchor = (ONE, prepend_letters((2,) * (p - 1), space.gp_word()))
        fixed = then(basis_map(("s", p, False)), anchor)
        label = f"Pinf({p})"
    elif variant == "q":
        q = value
        space = RepSpace((1,) * q + (2,))
        anchor = (ONE, prepend_letters((1,) * (q - 1) + (2,), space.gp_word()))
        fixed = _t_word(_maps("t", 2), (1,) * (q - 1) + (2, 1), anchor)  # s_1^(q-1) s_2
        label = f"Pinf(1^{q - 1} 2)"
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'p' or 'q'")

    rep_ = SuiteReport(
        "branch-oinfty",
        {"variant": variant, "value": value, "depth": depth, "class": label},
    )
    rep_.check("anchor is a unit vector", ONE, anchor[0] * anchor[0])
    rep_.check("anchor fixed by its cycle word", anchor, fixed)
    unreachable = [
        w.render()
        for w in space.basis_words(depth)
        if not _peel_to(anchor[1], w)
    ]
    rep_.check_true(
        lambda: f"reachability to depth {depth}",
        not unreachable,
        lambda: f"unreached: {unreachable[:5]} (+{max(0, len(unreachable) - 5)})",
    )
    return rep_


# -- branching: bosons -------------------------------------------------------


def boson_branch_witness(p: int) -> BranchWitness:
    """Branch vacua for the boson restriction of P2(1^p 2).

    Anchored at the embedded-family cyclic vector, the i-th vacuum is
    s_1^(p-i) s_2 applied to it; it generates the lambda=2 boson class
    with residue p-i+1.  Words in s_1 = t_1 and s_2 = t_2 t_1 are applied
    as their letters, here and in `check_branching_boson`.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    space = RepSpace((1,) * p + (2,))
    anchor = prepend_letters((1,) * (p - 1) + (2,), space.gp_word())
    words = [anchor] + [prepend_letters((1,) * (p - i) + (2, 1), anchor) for i in range(2, p + 1)]
    labels = [("BF", p, p - i + 1, 2) for i in range(1, p + 1)]
    return BranchWitness(space, [State.basis(space, w) for w in words], labels)


def check_branching_boson(p: int) -> SuiteReport:
    """Verify the boson branching data for the parameter-p families.

    Part A: on P2(1 2^(p-1)) the embedded-family vacuum satisfies the
    single-branch lambda=p relations.  Part B (p >= 2): on P2(1^p 2) the
    p branch vacua satisfy the graded ladder relations, the class
    relations with lambda=2, and the creation-transport identities
    linking s_n to powers of b_1*.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rep_ = SuiteReport("branch-boson", {"p": p, "n_max": RUNGS})

    # part A: single branch with amplification lambda = p
    space_a = RepSpace((1,) + (2,) * (p - 1))
    anchor_a = State.basis(space_a, prepend_letters((2,) * (p - 1), space_a.gp_word()))
    rep_.check("part A anchor unit", ONE, anchor_a.norm2())
    rep_.absorb(check_bf_class(anchor_a, 1, 1, p))

    if p == 1:
        return rep_

    # part B: p branches with lambda = 2
    witness = boson_branch_witness(p)
    oms = [_image(v) for v in witness.vectors]
    anchor = oms[0]
    t, b, s = _maps("t", 2), _maps("b", branch_modes(p)), _maps("s", 4)
    rep_.check(
        "anchor fixed by s_1^(p-1) s_2",
        anchor,
        _t_word(t, (1,) * (p - 1) + (2, 1), anchor),
    )
    for i, (vec, om, label) in enumerate(zip(witness.vectors, oms, witness.labels), 1):
        _, _, residue, lam = label
        rep_.check(lambda: f"Omega_{i} unit", ONE, vec.norm2())
        t_i = (1,) * (p - i) + (2, 1) + (1,) * (i - 1)  # s_1^(p-i) s_2 s_1^(i-1)
        rep_.check(lambda: f"T_{i} fixes Omega_{i}", om, _t_word(t, t_i, om))
        rep_.absorb(check_bf_class(vec, p, residue, lam))
        # ladder relations: annihilators pair branches with s_1^p shifts
        for n in range(1, RUNGS + 1):
            for j in range(1, p + 1):
                mode = p * (n - 1) + p - j + 1
                expected = _t_word(t, t_i * (n - 1) + (1,) * p, om) if i == j else None
                rep_.check(lambda: f"b_{mode} Omega_{i}", expected, then(b[False, mode], om))
    # creation transport: s-generators raise the previous branch
    rep_.check(
        "s_1 Omega_1 = b_1 Omega_p", then(b[False, 1], oms[-1]), then(s[False, 1], anchor)
    )
    rep_.check("s_2 Omega_1 = Omega_p", oms[-1], then(s[False, 2], anchor))
    for i in range(2, p + 1):
        rep_.check(
            lambda: f"s_1 Omega_{i} = Omega_{i - 1}", oms[i - 2], then(s[False, 1], oms[i - 1])
        )
        rep_.check(
            lambda: f"s_2 Omega_{i} = b_1* Omega_{i - 1}",
            then(b[True, 1], oms[i - 2]),
            then(s[False, 2], oms[i - 1]),
        )
    for n in (3, 4):
        # the (b_1*)^(n-2) Omega_p norm is sqrt((n-1)!) since b_1 b_1* doubles
        expected = oms[-1]
        for _ in range(n - 2):
            expected = then(b[True, 1], expected)
        expected = _times(expected, ONE / sqrt_factorial(n - 1))
        rep_.check(lambda: f"s_{n} Omega_1", expected, then(s[False, n], anchor))
        for i in range(2, p + 1):
            expected = oms[i - 2]
            for _ in range(n - 1):
                expected = then(b[True, 1], expected)
            expected = _times(expected, ONE / sqrt_factorial(n - 1))
            rep_.check(lambda: f"s_{n} Omega_{i}", expected, then(s[False, n], oms[i - 1]))
    return rep_


# -- branching: fermions -----------------------------------------------------


def fermion_branch_witness(p: int, starred: bool = False) -> BranchWitness:
    """Branch vacua for the fermion restriction of P2(2^(p-1) 1).

    Omega_1 is the GP vector and Omega_j = t_2^(p-j) t_1 Omega; Omega_j
    is the vacuum of the fermion class with residue p-j+1.  With
    starred=True everything is pushed through the letter flip, landing in
    P2(1^(p-1) 2) with the starred classes.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    space = RepSpace((2,) * (p - 1) + (1,))
    omega = space.gp_word()
    words = [omega] + [prepend_letters((2,) * (p - j) + (1,), omega) for j in range(2, p + 1)]
    labels = [("FF", p, p - j + 1, starred) for j in range(1, p + 1)]
    if starred:
        space, words = space.flip(), [flip(w) for w in words]
    return BranchWitness(space, [State.basis(space, w) for w in words], labels)


def check_branching_fermion(p: int, starred: bool = False) -> SuiteReport:
    """Verify the fermion branching data on P2(2^(p-1) 1).

    Checks the explicit creation images with their exact sign factors,
    the pairing relations, the letter action on the branch vacua, and
    membership of each vacuum in its fermion class.  With starred=True
    the letter-flipped family is checked against the starred classes.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rep_ = SuiteReport("branch-fermion", {"p": p, "starred": starred, "l_max": RUNGS})

    unstarred = fermion_branch_witness(p)
    oms = [_image(v) for v in unstarred.vectors]
    omega = oms[0]
    t, a = _maps("t", 2), _maps("a", max(5, branch_modes(p)))

    if p == 1:
        for n in range(1, 6):
            rep_.check(
                lambda: f"a_{n}* Omega = t_1^{n - 1} t_2 Omega",
                _t_word(t, (1,) * (n - 1) + (2,), omega),
                then(a[True, n], omega),
            )
    else:
        # explicit creation images with exact signs, rung by rung
        for l in range(1, RUNGS + 1):
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    mode = p * (l - 1) + p - i + 1
                    got = then(a[True, mode], oms[j - 1])
                    expected = None
                    if i == j:  # the word 2^(p-i) (1 2^(p-1))^(l-1) 2 on Omega
                        letters = (2,) * (p - i) + ((1,) + (2,) * (p - 1)) * (l - 1) + (2,)
                        sign = (-1) ** (p - i + (p - 1) * (l - 1))
                        expected = _times(_t_word(t, letters, omega), sign)
                    rep_.check(lambda: f"a_{mode}* Omega_{j} (l={l})", expected, got)
        # specialization at the GP vector itself
        for l in range(1, RUNGS + 1):
            sign = (-1) ** ((p - 1) * l)
            letters = ((2,) * (p - 1) + (1,)) * (l - 1) + (2,) * p
            rep_.check(
                lambda: f"a_{p * l}* Omega",
                _times(_t_word(t, letters, omega), sign),
                then(a[True, p * l], omega),
            )
            for i in range(1, p):
                rep_.check(
                    lambda: f"a_{p * (l - 1) + i}* Omega = 0",
                    None,
                    then(a[True, p * (l - 1) + i], omega),
                )
        # pairing relations
        for l in range(1, RUNGS + 1):
            for i in range(1, p + 1):
                mode = p * (l - 1) + p - i + 1
                om_i = oms[i - 1]
                rep_.check(
                    lambda: f"a_{mode} a_{mode}* Omega_{i}",
                    om_i,
                    then(a[False, mode], then(a[True, mode], om_i)),
                )
                rep_.check(
                    lambda: f"a_{mode} Omega_{i} = 0", None, then(a[False, mode], om_i)
                )
                for j in range(1, p + 1):
                    if j == i:
                        continue
                    om_j = oms[j - 1]
                    rep_.check(
                        lambda: f"a_{mode}* a_{mode} Omega_{j}",
                        om_j,
                        then(a[True, mode], then(a[False, mode], om_j)),
                    )
                    rep_.check(
                        lambda: f"a_{mode}* Omega_{j} = 0",
                        None,
                        then(a[True, mode], om_j),
                    )

    # letter action on the branch vacua
    rep_.check("t_1 Omega_1 = Omega_p", oms[-1], then(t[False, 1], omega))
    rep_.check(
        "t_2 Omega_1 = a_1* Omega_p",
        then(a[True, 1], oms[-1]),
        then(t[False, 2], omega),
    )
    for j in range(2, p + 1):
        rep_.check(
            lambda: f"t_1 Omega_{j} = a_1 Omega_{j - 1}",
            then(a[False, 1], oms[j - 2]),
            then(t[False, 1], oms[j - 1]),
        )
        rep_.check(
            lambda: f"t_2 Omega_{j} = Omega_{j - 1}", oms[j - 2], then(t[False, 2], oms[j - 1])
        )

    # class membership, with the letter flip for the starred classes
    family = fermion_branch_witness(p, starred=True) if starred else unstarred
    for vec, (_, _, residue, star_flag) in zip(family.vectors, family.labels):
        rep_.check("branch vacuum unit", ONE, vec.norm2())
        rep_.absorb(check_ff_class(vec, p, residue, starred=star_flag))
    return rep_


# -- relation suites ---------------------------------------------------------


def _all_defining_words(max_len: int):
    for k in range(1, max_len + 1):
        yield from product((1, 2), repeat=k)


def _adjoint_table(rep_: SuiteReport, x: str, maps: dict, top: int, space: RepSpace, w) -> None:
    """x_i* x_j = delta_ij on the basis word w for i, j <= top; each x_j w is computed once."""
    moved = [maps[False, j](w) for j in range(1, top + 1)]
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            got = then(maps[True, i], moved[j - 1])
            expected = (ONE, w) if i == j else None
            rep_.check(lambda: f"{x}_{i}* {x}_{j} on {w} in {space.label}", expected, got)


def cuntz_suite(depth: int = 10) -> SuiteReport:
    """Generator relations on basis vectors, for both families.

    Two-letter family: t_i* t_j = delta_ij and range completeness, on every
    basis word of every space with |J| <= 3, prefix depth <= depth.
    Embedded family: s_i* s_j = delta_ij for indices <= 8, and on basis
    words of prefix depth <= 6 the partial range sum of s_m s_m* over
    m <= k is 0 below the word's leading block length and 1 from it on.
    Each t_j psi and each s_j psi is computed once per basis vector psi and
    read by every adjoint that checks it.
    """
    check_depth(depth)
    max_j_len, oinfty_max, oinfty_depth = 3, 8, 6
    rep_ = SuiteReport(
        "cuntz",
        {
            "max_j_len": max_j_len,
            "depth": depth,
            "oinfty_max": oinfty_max,
            "oinfty_depth": oinfty_depth,
        },
    )
    t, s = _maps("t", 2), _maps("s", oinfty_max)
    for J in _all_defining_words(max_j_len):
        space = RepSpace(J)
        for w in space.basis_words(depth):
            _adjoint_table(rep_, "t", t, 2, space, w)
            got = _plus(*(then(t[False, i], t[True, i](w)) for i in (1, 2)))
            rep_.check(lambda: f"range completeness on {w} in {space.label}", (ONE, w), got)
    # embedded infinite family on the tail-1 space and on a tail-2 space
    for space in (RepSpace((1,)), RepSpace((2,))):
        for w in space.basis_words(oinfty_depth):
            _adjoint_table(rep_, "s", s, oinfty_max, space, w)
            # w = 2^(L-1) 1 v has one leading block: the sum reaches w at k = L
            lb = leading_block(w)
            whole, at = (ONE, w), oinfty_max + 1 if lb is None else lb[0]
            acc = None
            for m in range(1, oinfty_max + 1):
                acc = _plus(acc, then(s[False, m], s[True, m](w)))
                rep_.check(
                    lambda: f"partial range sum k={m} on {w} in {space.label}",
                    whole if m >= at else None,
                    acc,
                )
    return rep_


def _boson_family(max_particles: int, max_mode: int):
    for n in range(max_particles + 1):
        for modes in combinations_with_replacement(range(1, max_mode + 1), n):
            yield BosonMonomial.from_modes(modes)


def _fermion_family(max_particles: int, max_mode: int):
    for n in range(max_particles + 1):
        for modes in combinations(range(1, max_mode + 1), n):
            yield FermionSubset(modes)


def _bracket_relations(rep_: SuiteReport, maps: dict, x: str, psi: State, op_max: int) -> dict:
    """[x_n, x_m*] = delta_nm, [x_n, x_m] = 0 and [x_n*, x_m*] = 0 on psi.

    maps is `_maps` of "b", whose brackets are commutators written [...],
    or of "a", whose are anticommutators written {...}.
    Every product is computed once on the word of psi: `once[(star, k)]` is
    the image of x_k or x_k* for k <= op_max (2 op_max applications), and
    `twice[(outer, inner)]` is `outer` applied after `once[inner]` for
    every ordered pair of those keys (4 op_max^2 applications).  Each
    bracket is a sum of two entries of `twice`, and together they read
    every entry.  Returns `once`, for the caller's own checks on psi.
    """
    commute = x == "b"
    left, right = "[]" if commute else "{}"
    keys = [(star, k) for star in (False, True) for k in range(1, op_max + 1)]
    image = _image(psi)
    once = {key: then(maps[key], image) for key in keys}
    twice = {(outer, inner): then(maps[outer], once[inner]) for outer in keys for inner in keys}
    for n in range(1, op_max + 1):
        for m in range(1, op_max + 1):
            for star_n, star_m in ((False, True), (False, False), (True, True)):
                nm = twice[(star_n, n), (star_m, m)]
                mn = twice[(star_m, m), (star_n, n)]
                got = _plus(nm, _negated(mn) if commute else mn)
                expected = image if n == m and star_m and not star_n else None
                rep_.check(
                    lambda: f"{left}{x}_{n}{'*' if star_n else ''}, {x}_{m}"
                    f"{'*' if star_m else ''}{right} on {psi.render()}",
                    expected,
                    got,
                )
    return once


def ccr_suite(max_particles: int = 4, max_mode: int = 5) -> SuiteReport:
    """Commutation relations of the boson family on creation states.

    [b_n, b_m*] = delta_nm, [b_n, b_m] = 0 and [b_n*, b_m*] = 0 for
    n, m <= max_mode, and the transport law s_k b_m = b_{m+1} s_k with its
    adjoint for k, m <= 5.  On the word of each state psi, b_m psi, b_m* psi
    and s_k psi are computed once: the transport reads b_m psi from the
    bracket table where m <= max_mode and computes the modes above it itself.
    """
    check_particles(max_particles)
    check_mode(max_mode)
    intertwine_max = 5
    rep_ = SuiteReport(
        "ccr",
        {
            "op_max": max_mode,
            "max_particles": max_particles,
            "max_mode": max_mode,
            "intertwine_max": intertwine_max,
        },
    )
    states = [boson_state(M) for M in _boson_family(max_particles, max_mode)]
    transport = range(1, intertwine_max + 1)
    b = _maps("b", max(max_mode, intertwine_max + 1))
    s = _maps("s", intertwine_max)
    for psi in states:
        once = _bracket_relations(rep_, b, "b", psi, max_mode)
        image = _image(psi)
        moved = {
            (create, m): once[create, m] if m <= max_mode else then(b[create, m], image)
            for create in (False, True)
            for m in transport
        }
        shifted = [then(s[False, k], image) for k in transport]
        for k in transport:
            for m in transport:
                for create in (False, True):
                    got = then(s[False, k], moved[create, m])
                    expected = then(b[create, m + 1], shifted[k - 1])
                    rep_.check(
                        lambda: f"s_{k} b_{m}{'*' if create else ''} transport on {psi.render()}",
                        expected,
                        got,
                    )
    return rep_


def car_suite(max_particles: int = 4, max_mode: int = 5) -> SuiteReport:
    """Anticommutation relations of the fermion family on creation states.

    {a_n, a_m*} = delta_nm, {a_n, a_m} = 0 and {a_n*, a_m*} = 0 for
    n, m <= max_mode, the twisted transport t_i a_m = (-1)^(i-1) a_{m+1} t_i
    for m <= min(max_mode, MAX_MODE - 1), as it needs a_{m+1}, and the
    rewriting of the operator word t_1^n t_2^m as a creation run
    following t_1^(n+m) for n, m <= 6.  On the word of each state psi,
    t_i psi, a_m psi and a_m* psi are computed once; the transport reads
    a_m psi and a_m* psi from the bracket table.  On each sample word psi
    of the rewrite, t_1^k psi (k <= 12), t_2^m psi and t_1^n t_2^m psi are
    computed once.
    """
    check_particles(max_particles)
    check_mode(max_mode)
    word_identity_max = 6
    rep_ = SuiteReport(
        "car",
        {
            "op_max": max_mode,
            "max_particles": max_particles,
            "max_mode": max_mode,
            "word_identity_max": word_identity_max,
        },
    )
    states = [fermion_state(S) for S in _fermion_family(max_particles, max_mode)]
    transport_max = min(max_mode, MAX_MODE - 1)
    a = _maps("a", max(transport_max + 1, 2 * word_identity_max))
    t = _maps("t", 2)
    for psi in states:
        once = _bracket_relations(rep_, a, "a", psi, max_mode)
        for i, sign in ((1, lambda image: image), (2, _negated)):
            t_psi = then(t[False, i], _image(psi))
            for m in range(1, transport_max + 1):
                got = then(t[False, i], once[False, m])
                expected = sign(then(a[False, m + 1], t_psi))
                rep_.check(lambda: f"t_{i} a_{m} transport on {psi.render()}", expected, got)
                got = then(a[True, m + 1], t_psi)
                expected = sign(then(t[False, i], once[True, m]))
                rep_.check(lambda: f"a_{m + 1}* t_{i} transport on {psi.render()}", expected, got)
    # operator word rewriting on a sample of basis vectors
    space = RepSpace((1,))
    sample = [(ONE, w) for w in space.basis_words(3)]
    powers, mixed = [], []  # per psi: t_1^k psi by k, and t_1^n t_2^m psi by (n, m)
    for psi in sample:
        power = [psi]
        for _ in range(2 * word_identity_max):
            power.append(then(t[False, 1], power[-1]))
        table, t2_psi = {}, psi
        for m in range(1, word_identity_max + 1):
            t2_psi = lhs = then(t[False, 2], t2_psi)
            for n in range(1, word_identity_max + 1):
                lhs = table[n, m] = then(t[False, 1], lhs)
        powers.append(power)
        mixed.append(table)
    for n in range(1, word_identity_max + 1):
        for m in range(1, word_identity_max + 1):
            for psi, power, table in zip(sample, powers, mixed):
                lhs = table[n, m]
                rhs = power[n + m]
                for k in range(n + m, n, -1):
                    rhs = then(a[True, k], rhs)
                rep_.check(
                    lambda: f"t_1^{n} t_2^{m} rewrite on {_state(space, psi).render()}",
                    lhs,
                    rhs,
                )
    return rep_


# -- correspondence round trips ----------------------------------------------


def roundtrip_suite(max_subset: int = 12, max_particles: int = 6,
                    max_mode: int = 6) -> SuiteReport:
    """Transfer-map consistency: inverses, norm factors, grading.

    Subsets of {1..max_subset} and monomials with the given particle and
    mode bounds round-trip exactly; the two norm factors multiply to 1;
    the operational route through the representation space agrees with
    the index combinatorics; grades are conserved, and within each grade
    up to 4 every row of `enumerate_grade` equals `forward` of its boson,
    and the images are pairwise distinct and cover all subsets of {1..8}.
    Parameters above the particle or mode bound are refused before any work.
    """
    check_particles(max_subset)
    check_mode(max_mode)
    check_particles(max_particles)
    grade_max = 4
    rep_ = SuiteReport(
        "roundtrip",
        {
            "max_subset": max_subset,
            "max_particles": max_particles,
            "max_mode": max_mode,
            "grade_max": grade_max,
            "operational": True,
        },
    )
    for r in range(1, max_subset + 1):
        for elements in combinations(range(1, max_subset + 1), r):
            S = FermionSubset(elements)
            pair = corr.inverse(S)
            back = corr.forward(pair.boson)
            rep_.check(lambda: f"forward(inverse({S}))", S, back.fermion)
            rep_.check(lambda: f"C*D = 1 for {S}", ONE, back.coeff * pair.coeff)
    for M in _boson_family(max_particles, max_mode):
        fwd = corr.forward(M)
        rep_.check(lambda: f"grade of forward({M})", M.particle_number, fwd.fermion.particle_number)
        if M.factors:
            back = corr.inverse(fwd.fermion)
            rep_.check(lambda: f"inverse(forward({M}))", M, back.boson)
            rep_.check(lambda: f"D*C = 1 for {M}", ONE, fwd.coeff * back.coeff)
        sq = fwd.coeff * fwd.coeff
        expected_sq = promote(math.prod(math.factorial(k) for _, k in M.factors))
        rep_.check(lambda: f"coeff^2 integral for {M}", expected_sq, sq)
        op = corr.forward_operational(M)
        rep_.check(lambda: f"operational fermion image of {M}", fwd.fermion, op.fermion)
        rep_.check(lambda: f"operational coeff of {M}", fwd.coeff, op.coeff)
    for n in range(grade_max + 1):
        pairs = corr.enumerate_grade(n, 6)
        fwds = [corr.forward(p.boson) for p in pairs]
        images = {f.fermion for f in fwds}
        rep_.check_true(
            lambda: f"grade {n} images pairwise distinct",
            len(images) == len(pairs) and fwds == pairs,
            lambda: f"{len(pairs)} pairs, {len(images)} distinct images, "
            f"{sum(p != f for p, f in zip(pairs, fwds))} rows unlike forward",
        )
    for n in range(1, grade_max + 1):
        rows = corr.enumerate_grade(n, 8)
        images = {corr.forward(p.boson).fermion for p in rows}
        missing = [
            S
            for S in (FermionSubset(c) for c in combinations(range(1, 9), n))
            if S not in images
        ]
        rep_.check_true(
            lambda: f"grade {n} covers subsets of 1..8",
            not missing,
            lambda: f"missing {missing[:3]}",
        )
    return rep_


# -- the l2(N) codec and the truncated oracle ---------------------------------

# The largest truncation window e_1..e_MAX_DIM, and the indices the codec bijection is checked on.
MAX_DIM = 2 ** 14


def check_dim(dim: int) -> None:
    """Refuse a window of the exact l2(N) family that is not a power of two up to MAX_DIM."""
    if dim < 1 or dim & (dim - 1) or dim > MAX_DIM:
        raise ValueError(
            f"dim must be a power of two from 1 to 2^{MAX_DIM.bit_length() - 1}, got {dim}"
        )


ORACLE_STARTS = 8  # random oracle pipelines start at e_1..e_8; the fixed ones reach e_5


def check_oracle_dim(dim: int) -> None:
    """Refuse a dim that `check_dim` refuses, or one below ORACLE_STARTS."""
    check_dim(dim)
    if dim < ORACLE_STARTS:
        raise ValueError(f"dim must be >= {ORACLE_STARTS} for the oracle suite, got {dim}")


def float_oracle(dim: int, ops, start: int = 1) -> bool | None:
    """Compare the engine's basis maps with the truncated exact family on l2(N).

    The operator tokens, strings such as "b1*", are applied in list order
    (first token first) to the basis vector e_start, once through the
    engine and once through `_NumericFamily(dim)`.  If e_start or any
    intermediate of the engine lies outside the truncation window the
    comparison is an overflow and None is returned.  Otherwise both
    results are sparse {index: weight} vectors with exact weights, and
    the return value says whether they are equal.  The name is older than
    the exact weights; the benchmark's warm-up and tracer call it by name.
    """
    check_dim(dim)
    tokens = [parse_op_token(t) for t in ops]
    if start > dim:
        return None
    image = (ONE, index_to_word(start))
    for tok in tokens:
        image = then(basis_map(tok), image)
        if image is not None and word_to_index(image[1]) > dim:
            return None
    num = _NumericFamily(dim)
    vec = {start: ONE}
    for tok in tokens:
        vec = num.apply(tok, vec)
    return vec == ({} if image is None else {word_to_index(image[1]): image[0]})


def oracle_suite(dim: int = 4096, sequences: int = 200, seed: int = 20240809) -> SuiteReport:
    """The codec identities plus randomized comparisons with the exact l2(N) family.

    Exhaustive index bijection up to MAX_DIM; the letter action on
    e_1..e_1024, s_1..s_16 on e_1..e_min(dim, 4096) and the ladder actions
    of modes up to 12 on e_1; and `sequences` random in-window operator
    pipelines of 1 to 6 tokens whose images must equal the family's.
    """
    check_oracle_dim(dim)
    max_index, ladder_max, embed_max_m, embed_max_n = MAX_DIM, 12, 16, min(dim, 4096)
    rep_ = SuiteReport(
        "oracle",
        {
            "dim": dim,
            "sequences": sequences,
            "seed": seed,
            "max_index": max_index,
            "ladder_max": ladder_max,
        },
    )
    # the bijection streams every index and keeps the words the loops below read
    letter_max = 1024
    keep = max(letter_max, embed_max_n)
    words, bad = [], []
    for n in range(1, max_index + 1):
        w = index_to_word(n)
        if word_to_index(w) != n:
            bad.append(n)
        if n <= keep:
            words.append(w)
    rep_.check_true("index bijection", not bad, lambda: f"broken at {bad[:5]}")
    # letter action on indices
    for n, w in enumerate(words[:letter_max], 1):
        for i in (1, 2):
            got = word_to_index(prepend_letters((i,), w))
            rep_.check(lambda: f"t_{i} e_{n}", 2 * (n - 1) + i, got)
    # embedded generators on indices
    space = RepSpace((1,))
    for m in range(1, embed_max_m + 1):
        s_m = basis_map(("s", m, False))
        for n, e_n in enumerate(words[:embed_max_n], 1):
            c, w = image = s_m(e_n)
            rep_.check_true(
                lambda: f"s_{m} e_{n}",
                c == ONE and word_to_index(w) == 2 ** (m - 1) * (2 * n - 1),
                lambda: _state(space, image).render(),
            )
    # ladder actions on the vacuum index
    e1 = (ONE, words[0])
    a, b = _maps("a", ladder_max), _maps("b", ladder_max)
    for m in range(1, ladder_max + 1):
        target = (ONE, index_to_word(2 ** (m - 1) + 1))
        rep_.check(lambda: f"a_{m}* e_1", target, then(a[True, m], e1))
        rep_.check(lambda: f"a_{m} e_1", None, then(a[False, m], e1))
        rep_.check(lambda: f"b_{m}* e_1", target, then(b[True, m], e1))
        rep_.check(lambda: f"b_{m} e_1", None, then(b[False, m], e1))
    # fixed pipelines
    for ops, start in ((["t2", "t1", "t2*"], 1), (["b1*", "b1"], 1), (["a3*"], 1)):
        agree = float_oracle(dim, ops, start)
        rep_.check_true(
            lambda: f"pipeline {ops} from e_{start}",
            agree is True,
            lambda: "overflow" if agree is None else "images differ",
        )
    # randomized pipelines
    rng = random.Random(seed)
    collected = 0
    attempts = 0
    while collected < sequences and attempts < sequences * 100:
        attempts += 1
        length = rng.randint(1, 6)
        ops = []
        for _ in range(length):
            kind = rng.choice("ttssba")
            idx = rng.randint(1, 2) if kind == "t" else rng.randint(1, 4)
            ops.append(f"{kind}{idx}{'*' if rng.random() < 0.5 else ''}")
        start = rng.randint(1, ORACLE_STARTS)
        agree = float_oracle(dim, ops, start)
        if agree is None:
            continue
        collected += 1
        rep_.check_true(lambda: f"random pipeline {ops} from e_{start}", agree, "images differ")
    rep_.check_true(
        lambda: f"collected {sequences} in-window pipelines",
        collected == sequences,
        lambda: f"only {collected} after {attempts} attempts",
    )
    return rep_


# -- the suite table ---------------------------------------------------------

# The suites of `cuntzfock verify` by name, each computing its reports from the command's options.
SUITES = {
    "cuntz": lambda o: [cuntz_suite(depth=o["depth"])],
    "ccr": lambda o: [ccr_suite(max_particles=o["particles"], max_mode=o["modes"])],
    "car": lambda o: [car_suite(max_particles=o["particles"], max_mode=o["modes"])],
    "branch-oinfty": lambda o: [
        check_branching_oinfty(v, variant, depth=o["depth"])
        for variant in ("p", "q")
        for v in range(1, o["p_max"] + 1)
    ],
    "branch-boson": lambda o: [
        check_branching_boson(p) for p in range(1, min(o["p_max"], BOSON_P_MAX) + 1)
    ],
    "branch-fermion": lambda o: [
        check_branching_fermion(p, starred=starred)
        for starred in (False, True)
        for p in range(1, o["p_max"] + 1)
    ],
    "roundtrip": lambda o: [
        roundtrip_suite(
            max_subset=o["max_subset"], max_particles=o["particles"], max_mode=o["modes"]
        )
    ],
    "oracle": lambda o: [
        oracle_suite(dim=o["dim"], sequences=o["sequences"], seed=o["seed"])
    ],
}


def run(names, options: dict) -> list:
    """The reports of the named suites, `all` naming every one; an unknown name is a ValueError.

    Every option is held to its bound before the first suite runs, whichever suites read it.
    An exception that a suite raises after that is a failed report of that suite, naming the
    exception and where it was raised, and the next suite runs.
    """
    names = list(names)
    if names == ["all"]:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    check_depth(options["depth"])
    check_particles(max(options["particles"], options["max_subset"]))
    check_mode(options["modes"])
    p_max = options["p_max"]
    check_mode(branch_modes(p_max) if "branch-fermion" in names else p_max)
    check_oracle_dim(options["dim"])
    reports = []
    for name in names:
        try:
            reports += SUITES[name](options)
        except Exception as exc:  # the options are in bounds, so this is a fault of the engine
            tb = exc.__traceback__
            while tb.tb_next is not None:  # to the frame that raised it
                tb = tb.tb_next
            where = f"in {tb.tb_frame.f_code.co_name}, line {tb.tb_lineno}"
            failed = SuiteReport(name)
            failed.check_true("the suite runs to its end", False,
                              f"{type(exc).__name__}: {exc} ({where})")
            reports.append(failed)
    return reports
