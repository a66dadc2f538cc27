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
from operator import eq
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


def _opposite(a, b) -> bool:
    """Whether the image a is -b, building no image."""
    if a is None or b is None:
        return a is b
    return a[1] == b[1] and a[0] == -b[0]


def _times(image, k):
    """The image times the scalar k."""
    return None if image is None else (image[0] * k, image[1])


def _word(maps: dict, star: bool, modes, image) -> list:
    """The images of image under the right ends of the operator word of the
    maps[star, k], k in modes read left to right: entry r is the image once
    the rightmost r letters have acted, and the last entry the whole word's."""
    images = [image]
    for k in reversed(modes):
        image = then(maps[star, k], image)
        images.append(image)
    return images


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

    A sum of two or more distinct words is returned as a `State`: no
    identity the suites check has one, so only a failing check builds it.
    A `State` a that b cancels back to one word is an image again.
    """
    if b is None:
        return a
    if a is None:
        return b
    if a.__class__ is State:
        total = a + _state(a.space, b)
        return _image(total) if len(total) == 1 else total
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


# The relation families: every check names one, and a report counts its cases by family.
FAMILIES = (
    # cuntz: x_i* x_j = delta_ij, t_1 t_1* + t_2 t_2* = 1, the partial sums of s_m s_m*
    "t-adjoint", "t-range", "s-adjoint", "s-range",
    # the branching suites: vacua, cycle words, reachability, the class predicates,
    # the ladder images of the branch vacua and the generators' action on them
    "unit", "cycle", "reach", "bf-class", "ff-class",
    "b-ladder", "s-raise", "a-create", "a-pairing", "t-action",
    # ccr and car: the brackets, x_m moved past a generator, car's rewrite of t_1^n t_2^m
    "ccr", "s-transport", "car", "t-transport", "t-rewrite",
    # roundtrip: inverses, norm factors, grades, the operational route, `enumerate_grade`
    "inverse", "norm", "grade", "operational", "enumerate",
    # oracle: the index codec, the letters and s_m on indices, the ladders at e_1, pipelines
    "codec", "t-index", "s-index", "vacuum", "pipeline",
)
_NO_CASES = dict.fromkeys(FAMILIES, 0)  # copied by each report: a copy is faster than fromkeys


class SuiteReport:
    """Outcome of one verification suite."""

    __slots__ = ("suite", "params", "failures", "relations", "_unsorted")

    def __init__(self, suite: str, params: dict | None = None, cases: int = 0,
                 failures: list | None = None):
        self.suite = suite
        self.params = {} if params is None else params
        self.failures = [] if failures is None else failures
        self.relations = _NO_CASES.copy()  # cases by family
        self._unsorted = cases  # cases of a report built whole, outside any family

    @property
    def cases(self) -> int:
        return self._unsorted + sum(self.relations.values())

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, family: str, case: Label, expected, got) -> bool:
        """Count one case of family and record a failure when expected != got.

        The family is a name of `FAMILIES`.  The label is a string or a
        zero-argument callable returning one.  A callable is called only
        when the check fails, and before this method returns, so passing
        checks format no label and a lambda over loop variables still names
        the case that failed.  Word-level images, and states from `_plus`,
        are reported as states (`_reported`).  A suite that computes a whole
        table of cases counts it through `_tally` in one comparison and
        calls this method case by case only for a table that fails; one
        that compares its own cases counts those that hold in `relations`
        and calls this method only for the others.
        """
        self.relations[family] += 1
        if expected != got:
            expected, got = _reported(expected, got), _reported(got, expected)
            self.failures.append(
                {"case": _text(case), "expected": repr(expected), "got": repr(got)}
            )
            return False
        return True

    def check_true(self, family: str, case: Label, ok: bool, detail: Label = "") -> bool:
        """Count one case of family that holds when ok is true; labels as in `check`."""
        self.relations[family] += 1
        if not ok:
            self.failures.append(
                {"case": _text(case), "expected": "true", "got": _text(detail) or "false"}
            )
        return ok

    def _tally(self, family: str, expected, got) -> bool:
        """Count the len(got) cases of family when the table got equals expected.

        The tables are sequences of one entry per case, so a table that holds
        costs one comparison.  One that fails counts nothing and returns
        False: its caller then checks its cases one by one with `check` or
        `check_true`, which count them, label them and record each failure.
        """
        if expected != got:
            return False
        self.relations[family] += len(got)
        return True

    def absorb(self, other: "SuiteReport") -> None:
        self._unsorted += other._unsorted
        self.failures.extend(other.failures)
        for family, n in other.relations.items():
            if n:
                self.relations[family] += n

    def summary(self) -> str:
        """One line: the suite, its status and its cases, then the nonzero counts by family."""
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)} failures)"
        counts = ", ".join(f"{family} {n}" for family, n in self.relations.items() if n)
        return f"{self.suite}: {status} [{self.cases} cases]" + (counts and f" ({counts})")

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
    rep_ = SuiteReport("bf-class", {"q": q, "i": i, "lambda": lam.render(), "n_max": n_max})
    return _class_rungs(rep_, "b", psi, q, i, (False, True), lam, False)


def check_ff_class(
    psi: State, p: int, i: int, starred: bool = False, n_max: int = RUNGS
) -> SuiteReport:
    """Verify the fermion class relations at a candidate cyclic vector.

    Unstarred: a_{p(n-1)+i} psi = 0 and a*_{p(n-1)+j} psi = 0 for j != i.
    Starred: the roles of a and a* are exchanged.  psi is one basis word.
    """
    rep_ = SuiteReport("ff-class", {"p": p, "i": i, "starred": starred, "n_max": n_max})
    return _class_rungs(rep_, "a", psi, p, i, (starred,), None, not starred)


def _class_rungs(rep_: SuiteReport, x: str, psi: State, q: int, i: int, stars: tuple, lam,
                 other: bool) -> SuiteReport:
    """Check a class predicate's rungs n = 1..n_max on psi's one word, rep_'s suite as the family.

    At the residue mode k = q(n-1)+i the operator word x_k^stars (its
    rightmost letter first) sends the word to lam times itself, or to zero
    when lam is None; at every other mode j of the rung, x_j (x_j* when
    other) annihilates it.  n_max is rep_'s parameter.
    """
    image = _image(psi)
    family, n_max = rep_.suite, rep_.params["n_max"]
    maps = _maps(x, q * (n_max - 1) + max(q, i))
    expected = None if lam is None else _times(image, lam)
    for n in range(1, n_max + 1):
        base = q * (n - 1)
        got = image
        for star in reversed(stars):
            got = then(maps[star, base + i], got)
        rep_.check(family, lambda: " ".join(x + "*" * star for star in stars)
                   + f" at mode {base + i}{' annihilates' if lam is None else ''}", expected, got)
        for j in range(1, q + 1):
            if j != i:
                rep_.check(family, lambda: f"{x}{'*' * other} at mode {base + j} annihilates",
                           None, then(maps[other, base + j], image))
    return rep_


# -- branching: restriction to the embedded infinite family ------------------


def _unreached(target: TailWord, words) -> list:
    """The words of words that do not reach target by repeated s_m* steps.

    Each step peels the leading block 2^(m-1) 1.  The steps walk the
    prefix past each of its 1s, keeping the tail; once no 1 is left in
    the prefix, each step rotates the tail past its next 1.  So w reaches
    exactly itself, the rests of its prefix after a 1 with its tail, and
    the empty-prefix words of its tail rotated past one of its 1s.  One
    pass reads target once and decides the last case once per distinct tail.
    """
    rest, rot = target.prefix, target.rot
    size = len(rest)
    rotated: dict = {}  # tail -> whether it rotates past one of its 1s onto rot
    unreached = []
    for w in words:
        tail = w.rot
        if not size:
            hit = rotated.get(tail)
            if hit is None:
                hit = rotated[tail] = any(
                    tail[k - 1] == 1 and tail[k:] + tail[:k] == rot for k in range(1, len(tail) + 1)
                )
            if hit:
                continue
        prefix = w.prefix
        h = len(prefix) - size
        if tail == rot and h >= 0 and (not h or prefix[h - 1] == 1) and prefix[h:] == rest:
            continue
        unreached.append(w)
    return unreached


def check_branching_oinfty(value: int, variant: str, depth: int = 8) -> SuiteReport:
    """Witness that the restricted representation is the expected class.

    variant "p": on P2(1 2^(p-1)) the vector t_2^(p-1) Omega is fixed by
    s_p, giving the class with cycle word (p).  variant "q": on
    P2(1^q 2) the vector t_1^(q-1) t_2 Omega is fixed by s_1^(q-1) s_2,
    giving the class with cycle word 1^(q-1) 2.  Reachability of every
    basis word (prefix depth <= depth) by creation blocks witnesses
    cyclicity at desk scale; `_unreached` decides it in one pass over the
    words, building none.  value is held to the mode bound, as the index
    of s_p is.
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
        fixed = _word(_maps("t", 2), False, (1,) * (q - 1) + (2, 1), anchor)[-1]  # s_1^(q-1) s_2
        label = f"Pinf(1^{q - 1} 2)"
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'p' or 'q'")

    rep_ = SuiteReport(
        "branch-oinfty",
        {"variant": variant, "value": value, "depth": depth, "class": label},
    )
    rep_.check("unit", "anchor is a unit vector", ONE, anchor[0] * anchor[0])
    rep_.check("cycle", "anchor fixed by its cycle word", anchor, fixed)
    unreached = _unreached(anchor[1], space.basis_words(depth))
    rep_.check_true(
        "reach", lambda: f"reachability to depth {depth}",
        not unreached,
        lambda: f"unreached: {[w.render() for w in unreached[:5]]} (+{max(0, len(unreached) - 5)})",
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
    rep_.check("unit", "part A anchor unit", ONE, anchor_a.norm2())
    rep_.absorb(check_bf_class(anchor_a, 1, 1, p))

    if p == 1:
        return rep_

    # part B: p branches with lambda = 2
    witness = boson_branch_witness(p)
    oms = [_image(v) for v in witness.vectors]
    anchor = oms[0]
    t, b, s = _maps("t", 2), _maps("b", branch_modes(p)), _maps("s", 4)
    rep_.check(
        "cycle", "anchor fixed by s_1^(p-1) s_2", anchor,
        _word(t, False, (1,) * (p - 1) + (2, 1), anchor)[-1],
    )
    for i, (vec, om, label) in enumerate(zip(witness.vectors, oms, witness.labels), 1):
        _, _, residue, lam = label
        rep_.check("unit", lambda: f"Omega_{i} unit", ONE, vec.norm2())
        t_i = (1,) * (p - i) + (2, 1) + (1,) * (i - 1)  # s_1^(p-i) s_2 s_1^(i-1)
        rep_.check("cycle", lambda: f"T_{i} fixes Omega_{i}", om, _word(t, False, t_i, om)[-1])
        rep_.absorb(check_bf_class(vec, p, residue, lam))
        # ladder relations: annihilators pair branches with s_1^p shifts
        for n in range(1, RUNGS + 1):
            for j in range(1, p + 1):
                mode = p * (n - 1) + p - j + 1
                expected = _word(t, False, t_i * (n - 1) + (1,) * p, om)[-1] if i == j else None
                rep_.check("b-ladder", lambda: f"b_{mode} Omega_{i}", expected,
                           then(b[False, mode], om))
    # creation transport: s-generators raise the previous branch
    rep_.check("s-raise", "s_1 Omega_1 = b_1 Omega_p", then(b[False, 1], oms[-1]),
               then(s[False, 1], anchor))
    rep_.check("s-raise", "s_2 Omega_1 = Omega_p", oms[-1], then(s[False, 2], anchor))
    for i in range(2, p + 1):
        rep_.check("s-raise", lambda: f"s_1 Omega_{i} = Omega_{i - 1}", oms[i - 2],
                   then(s[False, 1], oms[i - 1]))
        rep_.check("s-raise", lambda: f"s_2 Omega_{i} = b_1* Omega_{i - 1}",
                   then(b[True, 1], oms[i - 2]), then(s[False, 2], oms[i - 1]))
    for n in (3, 4):
        # the (b_1*)^(n-2) Omega_p norm is sqrt((n-1)!) since b_1 b_1* doubles; s_n raises
        # Omega_i from Omega_(i-1) (Omega_1 from Omega_p) by n-1 powers of b_1* (Omega_1 by n-2)
        scale = ONE / sqrt_factorial(n - 1)
        for i in range(1, p + 1):
            raised = _word(b, True, (1,) * (n - 1 - (i == 1)), oms[i - 2])[-1]
            rep_.check("s-raise", lambda: f"s_{n} Omega_{i}", _times(raised, scale),
                       then(s[False, n], oms[i - 1]))
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
                "a-create", lambda: f"a_{n}* Omega = t_1^{n - 1} t_2 Omega",
                _word(t, False, (1,) * (n - 1) + (2,), omega)[-1], then(a[True, n], omega),
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
                        expected = _times(_word(t, False, letters, omega)[-1], sign)
                    rep_.check("a-create", lambda: f"a_{mode}* Omega_{j} (l={l})", expected, got)
        # specialization at the GP vector itself
        for l in range(1, RUNGS + 1):
            sign = (-1) ** ((p - 1) * l)
            letters = ((2,) * (p - 1) + (1,)) * (l - 1) + (2,) * p
            rep_.check(
                "a-create", lambda: f"a_{p * l}* Omega",
                _times(_word(t, False, letters, omega)[-1], sign), then(a[True, p * l], omega),
            )
            for i in range(1, p):
                rep_.check("a-create", lambda: f"a_{p * (l - 1) + i}* Omega = 0", None,
                           then(a[True, p * (l - 1) + i], omega))
        # pairing relations
        for l in range(1, RUNGS + 1):
            for i in range(1, p + 1):
                mode = p * (l - 1) + p - i + 1
                om_i = oms[i - 1]
                rep_.check("a-pairing", lambda: f"a_{mode} a_{mode}* Omega_{i}", om_i,
                           then(a[False, mode], then(a[True, mode], om_i)))
                rep_.check("a-pairing", lambda: f"a_{mode} Omega_{i} = 0", None,
                           then(a[False, mode], om_i))
                for j in range(1, p + 1):
                    if j == i:
                        continue
                    om_j = oms[j - 1]
                    rep_.check("a-pairing", lambda: f"a_{mode}* a_{mode} Omega_{j}", om_j,
                               then(a[True, mode], then(a[False, mode], om_j)))
                    rep_.check("a-pairing", lambda: f"a_{mode}* Omega_{j} = 0", None,
                               then(a[True, mode], om_j))

    # letter action on the branch vacua: t_1 and t_2 each send Omega_j to Omega_(j-1), and
    # Omega_1 to Omega_p, one of them through a_1: t_2 through a_1* on Omega_1, t_1 on the rest
    for j in range(1, p + 1):
        for i in (1, 2):
            ladder = (i == 2) == (j == 1)
            prev = then(a[j == 1, 1], oms[j - 2]) if ladder else oms[j - 2]
            rep_.check("t-action", lambda: f"t_{i} Omega_{j} = "
                       f"{'a_1' + '*' * (j == 1) + ' ' if ladder else ''}"
                       f"Omega_{p if j == 1 else j - 1}", prev, then(t[False, i], oms[j - 1]))

    # class membership, with the letter flip for the starred classes
    witness = fermion_branch_witness(p, starred=True) if starred else unstarred
    for vec, (_, _, residue, star_flag) in zip(witness.vectors, witness.labels):
        rep_.check("unit", "branch vacuum unit", ONE, vec.norm2())
        rep_.absorb(check_ff_class(vec, p, residue, starred=star_flag))
    return rep_


# -- relation suites ---------------------------------------------------------


def _all_defining_words(max_len: int):
    for k in range(1, max_len + 1):
        yield from product((1, 2), repeat=k)


def _adjoint_table(rep_: SuiteReport, family: str, x: str, maps: dict, top: int,
                   space: RepSpace, w) -> None:
    """x_i* x_j = delta_ij on the basis word w for i, j <= top; each x_j w is computed once."""
    moved = [maps[False, j](w) for j in range(1, top + 1)]
    got = [then(maps[True, i], x_j) for i in range(1, top + 1) for x_j in moved]
    expected = [None] * (top * top)
    expected[::top + 1] = [(ONE, w)] * top
    if not rep_._tally(family, expected, got):
        _adjoint_checks(rep_, family, x, top, space, w, got)


def _adjoint_checks(rep_: SuiteReport, family: str, x: str, top: int, space: RepSpace, w,
                    got: list) -> None:
    """Check the table got of x_i* x_j on w, entry (i - 1) * top + j - 1, case by case."""
    for (i, j), image in zip(product(range(1, top + 1), repeat=2), got):
        expected = (ONE, w) if i == j else None
        rep_.check(family, lambda: f"{x}_{i}* {x}_{j} on {w} in {space.label}", expected, image)


def cuntz_suite(depth: int = 10) -> SuiteReport:
    """Generator relations on basis vectors, for both families.

    Two-letter family: t_i* t_j = delta_ij and range completeness, on every
    basis word of every space with |J| <= 3, prefix depth <= depth.
    Embedded family: s_i* s_j = delta_ij for indices <= 8, and on basis
    words of prefix depth <= 6 the partial range sum of s_m s_m* over
    m <= k is 0 below the word's leading block length and 1 from it on.
    Each t_j psi and each s_j psi is computed once per basis vector psi and
    read by every adjoint that checks it.  The adjoint table of a basis
    word, and its partial range sums, are each counted in one comparison
    with the table they must equal; only a table that fails is checked
    case by case, which reports its failures in the order and with the
    labels of the per-case checks.  Range completeness on a word that
    holds is counted after one comparison; only a failing one is checked.
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
    t1, t2, t1_star, t2_star = t[False, 1], t[False, 2], t[True, 1], t[True, 2]
    counts = rep_.relations
    for J in _all_defining_words(max_j_len):
        space = RepSpace(J)
        for w in space.basis_words(depth):
            x1, x2 = t1(w), t2(w)
            one = (ONE, w)
            got = (then(t1_star, x1), then(t1_star, x2), then(t2_star, x1), then(t2_star, x2))
            if not rep_._tally("t-adjoint", (one, None, None, one), got):
                _adjoint_checks(rep_, "t-adjoint", "t", 2, space, w, got)
            total = _plus(then(t1, t1_star(w)), then(t2, t2_star(w)))
            if one == total:
                counts["t-range"] += 1
            else:
                rep_.check("t-range", lambda: f"range completeness on {w} in {space.label}",
                           one, total)
    # embedded infinite family on the tail-1 space and on a tail-2 space
    for space in (RepSpace((1,)), RepSpace((2,))):
        for w in space.basis_words(oinfty_depth):
            _adjoint_table(rep_, "s-adjoint", "s", s, oinfty_max, space, w)
            # w = 2^(L-1) 1 v has one leading block: the sum reaches w at k = L
            lb = leading_block(w)
            one, at = (ONE, w), oinfty_max + 1 if lb is None else lb[0]
            sums, acc = [], None
            for m in range(1, oinfty_max + 1):
                acc = _plus(acc, then(s[False, m], s[True, m](w)))
                sums.append(acc)
            expected = [None if m < at else one for m in range(1, oinfty_max + 1)]
            if not rep_._tally("s-range", expected, sums):
                for m, (want, total) in enumerate(zip(expected, sums), 1):
                    rep_.check(
                        "s-range", lambda: f"partial range sum k={m} on {w} in {space.label}",
                        want, total,
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
    every entry.  A bracket that should vanish holds when its entries are
    equal (commutators) or opposite (anticommutators), and is only
    counted then; the delta brackets, and any that fail that comparison,
    are added up and checked, so a failure is reported as the sum.
    Returns `once`, for the caller's own checks on psi.
    """
    commute = x == "b"
    family, (left, right) = ("ccr", "[]") if commute else ("car", "{}")
    keys = [(star, k) for star in (False, True) for k in range(1, op_max + 1)]
    image = _image(psi)
    once = {key: then(maps[key], image) for key in keys}
    twice = {(outer, inner): then(maps[outer], once[inner]) for outer in keys for inner in keys}
    cancels = eq if commute else _opposite
    counts = rep_.relations
    for n in range(1, op_max + 1):
        for m in range(1, op_max + 1):
            for star_n, star_m in ((False, True), (False, False), (True, True)):
                nm = twice[(star_n, n), (star_m, m)]
                mn = twice[(star_m, m), (star_n, n)]
                delta = n == m and star_m and not star_n
                if not delta and cancels(nm, mn):  # a zero bracket that holds: no sum is built
                    counts[family] += 1
                    continue
                got = _plus(nm, _negated(mn) if commute else mn)
                rep_.check(family, lambda: f"{left}{x}_{n}{'*' if star_n else ''}, {x}_{m}"
                           f"{'*' if star_m else ''}{right} on {psi.render()}",
                           image if delta else None, got)
    return once


def _transport(g, maps: dict, once: dict, g_image, modes):
    """x_m moved past the generator g, for m in modes and x_m then x_m*.

    Yields (star, m, g x_m^star psi, x_{m+1}^star g psi), reading x_m^star
    psi from once and taking g psi as g_image.
    """
    for m in modes:
        for star in (False, True):
            yield star, m, then(g, once[star, m]), then(maps[star, m + 1], g_image)


def ccr_suite(max_particles: int = 4, max_mode: int = 5) -> SuiteReport:
    """Commutation relations of the boson family on creation states.

    [b_n, b_m*] = delta_nm, [b_n, b_m] = 0 and [b_n*, b_m*] = 0 for
    n, m <= max_mode, and the transport law s_k b_m = b_{m+1} s_k with its
    adjoint for k, m <= 5.  On the word of each state psi, b_m psi, b_m* psi
    and s_k psi are computed once: the transport reads b_m psi from the
    bracket table where m <= max_mode and computes the modes above it itself.
    A transport case that holds is counted after comparing its two images in
    place; only one that fails is checked, and labelled, by `SuiteReport.check`.
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
    counts = rep_.relations
    for psi in states:
        once = _bracket_relations(rep_, b, "b", psi, max_mode)
        image = _image(psi)
        for m in range(max_mode + 1, intertwine_max + 1):  # the modes above the bracket table
            once[False, m], once[True, m] = then(b[False, m], image), then(b[True, m], image)
        for k in transport:
            moves = _transport(s[False, k], b, once, then(s[False, k], image), transport)
            for create, m, moved, raised in moves:
                if moved == raised:
                    counts["s-transport"] += 1
                    continue
                rep_.check(
                    "s-transport",
                    lambda: f"s_{k} b_{m}{'*' if create else ''} transport on {psi.render()}",
                    raised,
                    moved,
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
    counts = rep_.relations
    for psi in states:
        once = _bracket_relations(rep_, a, "a", psi, max_mode)
        for i, holds, sign in ((1, eq, lambda image: image), (2, _opposite, _negated)):
            moves = _transport(t[False, i], a, once, then(t[False, i], _image(psi)),
                               range(1, transport_max + 1))
            for star, m, moved, raised in moves:
                # t_i a_m = sign a_{m+1} t_i, and its adjoint a_{m+1}* t_i = sign t_i a_m*
                expected, got = (moved, raised) if star else (raised, moved)
                if holds(got, expected):  # no signed image is built for a transport that holds
                    counts["t-transport"] += 1
                    continue
                rep_.check("t-transport", lambda: (f"a_{m + 1}* t_{i}" if star else f"t_{i} a_{m}")
                           + f" transport on {psi.render()}", sign(expected), got)
    # operator word rewriting on a sample of basis vectors
    space = RepSpace((1,))
    sample = [(ONE, w) for w in space.basis_words(3)]
    ones, twos = (1,) * word_identity_max, (2,) * word_identity_max
    powers = [_word(t, False, ones + ones, psi) for psi in sample]  # t_1^k psi by k
    # t_1^n t_2^m psi by m - 1 and n
    mixed = [[_word(t, False, ones, t2) for t2 in _word(t, False, twos, psi)[1:]] for psi in sample]
    for n in range(1, word_identity_max + 1):
        for m in range(1, word_identity_max + 1):
            for psi, power, table in zip(sample, powers, mixed):
                rhs = _word(a, True, range(n + 1, n + m + 1), power[n + m])[-1]
                rep_.check(
                    "t-rewrite",
                    lambda: f"t_1^{n} t_2^{m} rewrite on {_state(space, psi).render()}",
                    table[m - 1][n],
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
    The cases of one subset, and those of one monomial, are compared
    together and counted when all hold, with no `check` call and no label
    built; a subset or monomial with a failing case checks each of its
    cases in turn, so the failures keep the order and labels of per-case
    checks.
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
    counts = rep_.relations
    for r in range(1, max_subset + 1):
        for elements in combinations(range(1, max_subset + 1), r):
            S = FermionSubset(elements)
            pair = corr.inverse(S)
            back = corr.forward(pair.boson)
            cd = back.coeff * pair.coeff
            if S == back.fermion and ONE == cd:
                counts["inverse"] += 1
                counts["norm"] += 1
                continue
            rep_.check("inverse", lambda: f"forward(inverse({S}))", S, back.fermion)
            rep_.check("norm", lambda: f"C*D = 1 for {S}", ONE, cd)
    for M in _boson_family(max_particles, max_mode):
        fwd = corr.forward(M)
        if M.factors:
            back = corr.inverse(fwd.fermion)
            dc = fwd.coeff * back.coeff
        sq = fwd.coeff * fwd.coeff
        expected_sq = promote(math.prod(math.factorial(k) for _, k in M.factors))
        op = corr.forward_operational(M)
        if (M.particle_number == fwd.fermion.particle_number and expected_sq == sq
                and fwd.fermion == op.fermion and fwd.coeff == op.coeff
                and (not M.factors or M == back.boson and ONE == dc)):
            counts["grade"] += 1
            counts["norm"] += 1
            counts["operational"] += 2
            if M.factors:
                counts["inverse"] += 1
                counts["norm"] += 1
            continue
        rep_.check("grade", lambda: f"grade of forward({M})", M.particle_number,
                   fwd.fermion.particle_number)
        if M.factors:
            rep_.check("inverse", lambda: f"inverse(forward({M}))", M, back.boson)
            rep_.check("norm", lambda: f"D*C = 1 for {M}", ONE, dc)
        rep_.check("norm", lambda: f"coeff^2 integral for {M}", expected_sq, sq)
        rep_.check("operational", lambda: f"operational fermion image of {M}", fwd.fermion,
                   op.fermion)
        rep_.check("operational", lambda: f"operational coeff of {M}", fwd.coeff, op.coeff)
    for n in range(grade_max + 1):
        pairs = corr.enumerate_grade(n, 6)
        fwds = [corr.forward(p.boson) for p in pairs]
        images = {f.fermion for f in fwds}
        rep_.check_true(
            "enumerate", lambda: f"grade {n} images pairwise distinct",
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
            "enumerate", lambda: f"grade {n} covers subsets of 1..8",
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
    The letter action, and the action of each s_m, is one table of
    indices counted in one comparison; only a table that fails is
    checked case by case, in order and with the per-case labels.
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
    rep_.check_true("codec", "index bijection", not bad, lambda: f"broken at {bad[:5]}")
    # letter action on indices: t_i e_n = e_{2(n-1)+i}, in the order n, then i
    got = [word_to_index(prepend_letters(head, w))
           for w in words[:letter_max] for head in ((1,), (2,))]
    if not rep_._tally("t-index", list(range(1, 2 * letter_max + 1)), got):
        for (n, i), index in zip(product(range(1, letter_max + 1), (1, 2)), got):
            rep_.check("t-index", lambda: f"t_{i} e_{n}", 2 * (n - 1) + i, index)
    # embedded generators on indices: s_m e_n = e_{2^(m-1)(2n-1)}, one table for each m
    space, embedded = RepSpace((1,)), words[:embed_max_n]
    for m in range(1, embed_max_m + 1):
        s_m = basis_map(("s", m, False))
        got = [(c, word_to_index(w)) for c, w in map(s_m, embedded)]
        step = 2 ** m
        expected = list(zip([ONE] * embed_max_n, range(step // 2, step * embed_max_n, step)))
        if not rep_._tally("s-index", expected, got):
            # the images are not kept, which would raise the suite's peak memory:
            # a failing table applies s_m again
            for n, e_n in enumerate(embedded, 1):
                c, w = image = s_m(e_n)
                rep_.check_true(
                    "s-index", lambda: f"s_{m} e_{n}",
                    c == ONE and word_to_index(w) == 2 ** (m - 1) * (2 * n - 1),
                    lambda: _state(space, image).render(),
                )
    # ladder actions on the vacuum index
    e1 = (ONE, words[0])
    ladders = {x: _maps(x, ladder_max) for x in "ab"}
    for m in range(1, ladder_max + 1):
        target = (ONE, index_to_word(2 ** (m - 1) + 1))
        for x in "ab":
            for star in (True, False):
                rep_.check("vacuum", lambda: f"{x}_{m}{'*' * star} e_1", target if star else None,
                           then(ladders[x][star, m], e1))
    # fixed pipelines
    for ops, start in ((["t2", "t1", "t2*"], 1), (["b1*", "b1"], 1), (["a3*"], 1)):
        agree = float_oracle(dim, ops, start)
        rep_.check_true(
            "pipeline", lambda: f"pipeline {ops} from e_{start}",
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
        rep_.check_true("pipeline", lambda: f"random pipeline {ops} from e_{start}", agree,
                        "images differ")
    rep_.check_true(
        "pipeline", lambda: f"collected {sequences} in-window pipelines",
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
            reports.append(SuiteReport(name, cases=1, failures=[{
                "case": "the suite runs to its end", "expected": "true",
                "got": f"{type(exc).__name__}: {exc} ({where})",
            }]))
    return reports
