"""Executable re-derivations of the algebraic identities and branching laws.

Every suite builds concrete states, applies the exact engine, and compares
term maps; except for the floating-point oracle all checks are exact.
"Span" claims of the branching laws are rendered as depth-bounded
reachability witnesses: density itself is not finitely checkable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, product
from typing import Callable

from . import correspondence as corr
from .ladder import (
    DEFAULT_MAX_MODE,
    BosonMonomial,
    FermionSubset,
    apply_boson,
    apply_fermion,
    boson_state,
    fermion_state,
)
from .radical import ONE, promote, sqrt_factorial
from .rep import (
    RepSpace,
    State,
    apply_s,
    apply_s_star,
    apply_t,
    apply_t_star,
    apply_t_word,
    gp_vector,
)
from .words import TailWord, flip, index_to_word, leading_block, word_to_index


# -- reports ---------------------------------------------------------------

# A failure label: the text itself, or a callable that formats it on demand.
Label = str | Callable[[], str]


def _text(label: Label) -> str:
    return label() if callable(label) else label


@dataclass
class SuiteReport:
    """Outcome of one verification suite."""

    suite: str
    params: dict = field(default_factory=dict)
    cases: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, case: Label, expected, got) -> bool:
        """Count one case and record a failure when expected != got.

        The label is a string or a zero-argument callable returning one.
        A callable is called only when the check fails, and before this
        method returns, so passing checks format no label and a lambda
        over loop variables still names the case that failed.
        """
        self.cases += 1
        if expected != got:
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


@dataclass
class BranchWitness:
    """Cyclic vectors exhibiting one branching decomposition."""

    space: RepSpace
    vectors: list
    labels: list


# -- class predicates --------------------------------------------------------


def check_bf_class(psi: State, q: int, i: int, lam, n_max: int = 3) -> SuiteReport:
    """Verify the boson class relations at a candidate cyclic vector.

    For n = 1..n_max: b_{q(n-1)+i} b*_{q(n-1)+i} psi = lam psi, and
    b_{q(n-1)+j} psi = 0 for j != i.
    """
    lam = promote(lam)
    rep_ = SuiteReport(
        "bf-class", {"q": q, "i": i, "lambda": lam.render(), "n_max": n_max}
    )
    for n in range(1, n_max + 1):
        base = q * (n - 1)
        got = apply_boson(False, base + i, apply_boson(True, base + i, psi))
        rep_.check(lambda: f"b b* at mode {base + i}", psi * lam, got)
        for j in range(1, q + 1):
            if j == i:
                continue
            rep_.check(
                lambda: f"b at mode {base + j} annihilates",
                State.zero(psi.space),
                apply_boson(False, base + j, psi),
            )
    return rep_


def check_ff_class(
    psi: State, p: int, i: int, starred: bool = False, n_max: int = 3
) -> SuiteReport:
    """Verify the fermion class relations at a candidate cyclic vector.

    Unstarred: a_{p(n-1)+i} psi = 0 and a*_{p(n-1)+j} psi = 0 for j != i.
    Starred: the roles of a and a* are exchanged.
    """
    rep_ = SuiteReport(
        "ff-class", {"p": p, "i": i, "starred": starred, "n_max": n_max}
    )
    zero = State.zero(psi.space)
    for n in range(1, n_max + 1):
        base = p * (n - 1)
        rep_.check(
            lambda: f"{'a*' if starred else 'a'} at mode {base + i} annihilates",
            zero,
            apply_fermion(starred, base + i, psi),
        )
        for j in range(1, p + 1):
            if j == i:
                continue
            rep_.check(
                lambda: f"{'a' if starred else 'a*'} at mode {base + j} annihilates",
                zero,
                apply_fermion(not starred, base + j, psi),
            )
    return rep_


# -- branching: restriction to the embedded infinite family ------------------


def _peel_to(target: TailWord, w: TailWord) -> bool:
    """Greedy block peeling: does w reach target by repeated s_m* steps?"""
    for _ in range(w.depth + len(w.rot) + 2):
        if w == target:
            return True
        lb = leading_block(w)
        if lb is None:
            return False
        _, w = lb
    return w == target


def check_branching_oinfty(value: int, variant: str, depth: int = 8) -> SuiteReport:
    """Witness that the restricted representation is the expected class.

    variant "p": on P2(1 2^(p-1)) the vector t_2^(p-1) Omega is fixed by
    s_p, giving the class with cycle word (p).  variant "q": on
    P2(1^q 2) the vector t_1^(q-1) t_2 Omega is fixed by s_1^(q-1) s_2,
    giving the class with cycle word 1^(q-1) 2.  Reachability of every
    basis word (prefix depth <= depth) by creation blocks witnesses
    cyclicity at desk scale.
    """
    if variant == "p":
        p = value
        space = RepSpace((1,) + (2,) * (p - 1))
        omega = gp_vector(space)
        anchor = apply_t_word((2,) * (p - 1), omega)
        fixed = apply_s(p, anchor)
        label = f"Pinf({p})"
    elif variant == "q":
        q = value
        space = RepSpace((1,) * q + (2,))
        omega = gp_vector(space)
        anchor = apply_t_word((1,) * (q - 1) + (2,), omega)
        fixed = apply_s(2, anchor)
        for _ in range(q - 1):
            fixed = apply_s(1, fixed)
        label = f"Pinf(1^{q - 1} 2)"
    else:
        raise ValueError(f"unknown variant {variant!r}; expected 'p' or 'q'")

    rep_ = SuiteReport(
        "branch-oinfty",
        {"variant": variant, "value": value, "depth": depth, "class": label},
    )
    rep_.check("anchor is a unit vector", ONE, anchor.norm2())
    rep_.check("anchor fixed by its cycle word", anchor, fixed)
    ((anchor_word, _),) = anchor.items()
    unreachable = [
        w.render()
        for w in space.basis_words(depth)
        if not _peel_to(anchor_word, w)
    ]
    rep_.cases += 1
    if unreachable:
        rep_.failures.append(
            {
                "case": f"reachability to depth {depth}",
                "expected": "all basis words reach the anchor",
                "got": f"unreached: {unreachable[:5]} (+{max(0, len(unreachable) - 5)})",
            }
        )
    return rep_


# -- branching: bosons -------------------------------------------------------


def _apply_s_word(indices, state: State) -> State:
    """Operator word s_{i_1} ... s_{i_k}; the rightmost factor acts first."""
    for m in reversed(tuple(indices)):
        state = apply_s(m, state)
    return state


def boson_branch_witness(p: int) -> BranchWitness:
    """Branch vacua for the boson restriction of P2(1^p 2).

    Anchored at the embedded-family cyclic vector, the i-th vacuum is
    s_1^(p-i) s_2 applied to it; it generates the lambda=2 boson class
    with residue p-i+1.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    space = RepSpace((1,) * p + (2,))
    anchor = apply_t_word((1,) * (p - 1) + (2,), gp_vector(space))
    vectors = [anchor]
    for i in range(2, p + 1):
        vectors.append(_apply_s_word((1,) * (p - i) + (2,), anchor))
    labels = [("BF", p, p - i + 1, 2) for i in range(1, p + 1)]
    return BranchWitness(space, vectors, labels)


def check_branching_boson(p: int, n_max: int = 3) -> SuiteReport:
    """Verify the boson branching data for the parameter-p families.

    Part A: on P2(1 2^(p-1)) the embedded-family vacuum satisfies the
    single-branch lambda=p relations.  Part B (p >= 2): on P2(1^p 2) the
    p branch vacua satisfy the graded ladder relations, the class
    relations with lambda=2, and the creation-transport identities
    linking s_n to powers of b_1*.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rep_ = SuiteReport("branch-boson", {"p": p, "n_max": n_max})

    # part A: single branch with amplification lambda = p
    space_a = RepSpace((1,) + (2,) * (p - 1))
    anchor_a = apply_t_word((2,) * (p - 1), gp_vector(space_a))
    rep_.check("part A anchor unit", ONE, anchor_a.norm2())
    rep_.absorb(check_bf_class(anchor_a, 1, 1, p, n_max=n_max))

    if p == 1:
        return rep_

    # part B: p branches with lambda = 2
    witness = boson_branch_witness(p)
    oms = witness.vectors
    anchor = oms[0]
    rep_.check(
        "anchor fixed by s_1^(p-1) s_2",
        anchor,
        _apply_s_word((1,) * (p - 1) + (2,), anchor),
    )
    for i in range(1, p + 1):
        om = oms[i - 1]
        rep_.check(lambda: f"Omega_{i} unit", ONE, om.norm2())
        t_i = (1,) * (p - i) + (2,) + (1,) * (i - 1)
        rep_.check(lambda: f"T_{i} fixes Omega_{i}", om, _apply_s_word(t_i, om))
        rep_.absorb(check_bf_class(om, p, p - i + 1, 2, n_max=n_max))
        # ladder relations: annihilators pair branches with s_1^p shifts
        for n in range(1, n_max + 1):
            for j in range(1, p + 1):
                mode = p * (n - 1) + p - j + 1
                got = apply_boson(False, mode, om)
                if i == j:
                    expected = _apply_s_word((1,) * p, om)
                    for _ in range(n - 1):
                        expected = _apply_s_word(t_i, expected)
                else:
                    expected = State.zero(om.space)
                rep_.check(lambda: f"b_{mode} Omega_{i}", expected, got)
    # creation transport: s-generators raise the previous branch
    rep_.check("s_1 Omega_1 = b_1 Omega_p", apply_boson(False, 1, oms[-1]), apply_s(1, anchor))
    rep_.check("s_2 Omega_1 = Omega_p", oms[-1], apply_s(2, anchor))
    for i in range(2, p + 1):
        rep_.check(lambda: f"s_1 Omega_{i} = Omega_{i - 1}", oms[i - 2], apply_s(1, oms[i - 1]))
        rep_.check(
            lambda: f"s_2 Omega_{i} = b_1* Omega_{i - 1}",
            apply_boson(True, 1, oms[i - 2]),
            apply_s(2, oms[i - 1]),
        )
    for n in (3, 4):
        # the (b_1*)^(n-2) Omega_p norm is sqrt((n-1)!) since b_1 b_1* doubles
        expected = oms[-1]
        for _ in range(n - 2):
            expected = apply_boson(True, 1, expected)
        expected = expected / sqrt_factorial(n - 1)
        rep_.check(lambda: f"s_{n} Omega_1", expected, apply_s(n, anchor))
        for i in range(2, p + 1):
            expected = oms[i - 2]
            for _ in range(n - 1):
                expected = apply_boson(True, 1, expected)
            expected = expected / sqrt_factorial(n - 1)
            rep_.check(lambda: f"s_{n} Omega_{i}", expected, apply_s(n, oms[i - 1]))
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
    omega = gp_vector(space)
    vectors = [omega]
    for j in range(2, p + 1):
        vectors.append(apply_t_word((2,) * (p - j) + (1,), omega))
    labels = [("FF", p, p - j + 1, starred) for j in range(1, p + 1)]
    if starred:
        flipped = space.flip()
        vectors = [
            State(flipped, {flip(w): c for w, c in v.items()}) for v in vectors
        ]
        space = flipped
    return BranchWitness(space, vectors, labels)


def check_branching_fermion(p: int, starred: bool = False, l_max: int = 3) -> SuiteReport:
    """Verify the fermion branching data on P2(2^(p-1) 1).

    Checks the explicit creation images with their exact sign factors,
    the pairing relations, the letter action on the branch vacua, and
    membership of each vacuum in its fermion class.  With starred=True
    the letter-flipped family is checked against the starred classes.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rep_ = SuiteReport("branch-fermion", {"p": p, "starred": starred, "l_max": l_max})

    witness = fermion_branch_witness(p, starred=False)
    oms = witness.vectors
    omega = oms[0]
    space = witness.space
    zero = State.zero(space)

    def t_word_state(letters):
        return apply_t_word(letters, omega)

    if p == 1:
        for n in range(1, 6):
            rep_.check(
                lambda: f"a_{n}* Omega = t_1^{n - 1} t_2 Omega",
                t_word_state((1,) * (n - 1) + (2,)),
                apply_fermion(True, n, omega),
            )
    else:
        # explicit creation images with exact signs, first rung
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                mode = p - i + 1
                got = apply_fermion(True, mode, oms[j - 1])
                if i == j:
                    sign = (-1) ** (p - i)
                    expected = t_word_state((2,) * (p - i + 1)) * sign
                else:
                    expected = zero
                rep_.check(lambda: f"a_{mode}* Omega_{j} (l=1)", expected, got)
        # higher rungs
        for l in range(2, l_max + 1):
            for i in range(1, p + 1):
                for j in range(1, p + 1):
                    mode = p * (l - 1) + p - i + 1
                    got = apply_fermion(True, mode, oms[j - 1])
                    if i == j:
                        sign = (-1) ** (p - i + (p - 1) * (l - 1))
                        letters = (
                            (2,) * (p - i)
                            + (1,)
                            + ((2,) * (p - 1) + (1,)) * (l - 2)
                            + (2,) * p
                        )
                        expected = t_word_state(letters) * sign
                    else:
                        expected = zero
                    rep_.check(lambda: f"a_{mode}* Omega_{j} (l={l})", expected, got)
        # specialization at the GP vector itself
        for l in range(1, l_max + 1):
            sign = (-1) ** ((p - 1) * l)
            letters = ((2,) * (p - 1) + (1,)) * (l - 1) + (2,) * p
            rep_.check(
                lambda: f"a_{p * l}* Omega",
                t_word_state(letters) * sign,
                apply_fermion(True, p * l, omega),
            )
            for i in range(1, p):
                rep_.check(
                    lambda: f"a_{p * (l - 1) + i}* Omega = 0",
                    zero,
                    apply_fermion(True, p * (l - 1) + i, omega),
                )
        # pairing relations
        for l in range(1, l_max + 1):
            for i in range(1, p + 1):
                mode = p * (l - 1) + p - i + 1
                om_i = oms[i - 1]
                rep_.check(
                    lambda: f"a_{mode} a_{mode}* Omega_{i}",
                    om_i,
                    apply_fermion(False, mode, apply_fermion(True, mode, om_i)),
                )
                rep_.check(
                    lambda: f"a_{mode} Omega_{i} = 0", zero, apply_fermion(False, mode, om_i)
                )
                for j in range(1, p + 1):
                    if j == i:
                        continue
                    om_j = oms[j - 1]
                    rep_.check(
                        lambda: f"a_{mode}* a_{mode} Omega_{j}",
                        om_j,
                        apply_fermion(True, mode, apply_fermion(False, mode, om_j)),
                    )
                    rep_.check(
                        lambda: f"a_{mode}* Omega_{j} = 0",
                        zero,
                        apply_fermion(True, mode, om_j),
                    )

    # letter action on the branch vacua
    rep_.check("t_1 Omega_1 = Omega_p", oms[-1], apply_t(1, omega))
    rep_.check(
        "t_2 Omega_1 = a_1* Omega_p",
        apply_fermion(True, 1, oms[-1]),
        apply_t(2, omega),
    )
    for j in range(2, p + 1):
        rep_.check(
            lambda: f"t_1 Omega_{j} = a_1 Omega_{j - 1}",
            apply_fermion(False, 1, oms[j - 2]),
            apply_t(1, oms[j - 1]),
        )
        rep_.check(lambda: f"t_2 Omega_{j} = Omega_{j - 1}", oms[j - 2], apply_t(2, oms[j - 1]))

    # class membership, with the letter flip for the starred classes
    family = fermion_branch_witness(p, starred=starred)
    for vec, (_, _, residue, star_flag) in zip(family.vectors, family.labels):
        rep_.check("branch vacuum unit", ONE, vec.norm2())
        rep_.absorb(check_ff_class(vec, p, residue, starred=star_flag, n_max=l_max))
    return rep_


# -- relation suites ---------------------------------------------------------


def _all_defining_words(max_len: int):
    for k in range(1, max_len + 1):
        yield from product((1, 2), repeat=k)


def cuntz_suite(max_j_len: int = 3, depth: int = 10, oinfty_max: int = 8,
                oinfty_depth: int = 6) -> SuiteReport:
    """Generator relations on basis vectors, for both families.

    Two-letter family: t_i* t_j = delta_ij and range completeness, on every
    basis word of every space with |J| <= max_j_len, prefix depth <= depth.
    Embedded family: s_i* s_j = delta_ij for indices <= oinfty_max, and the
    partial range sums act as 0/1 on basis words.
    """
    rep_ = SuiteReport(
        "cuntz",
        {
            "max_j_len": max_j_len,
            "depth": depth,
            "oinfty_max": oinfty_max,
            "oinfty_depth": oinfty_depth,
        },
    )
    for J in _all_defining_words(max_j_len):
        space = RepSpace(J)
        zero = State.zero(space)
        for w in space.basis_words(depth):
            psi = State.basis(space, w)
            for i in (1, 2):
                for j in (1, 2):
                    got = apply_t_star(i, apply_t(j, psi))
                    expected = psi if i == j else zero
                    rep_.check(lambda: f"t_{i}* t_{j} on {w} in {space.label}", expected, got)
            got = apply_t(1, apply_t_star(1, psi)) + apply_t(2, apply_t_star(2, psi))
            rep_.check(lambda: f"range completeness on {w} in {space.label}", psi, got)
    # embedded infinite family on the tail-1 space and on a tail-2 space
    for space in (RepSpace((1,)), RepSpace((2,))):
        zero = State.zero(space)
        for w in space.basis_words(oinfty_depth):
            psi = State.basis(space, w)
            for i in range(1, oinfty_max + 1):
                for j in range(1, oinfty_max + 1):
                    got = apply_s_star(i, apply_s(j, psi))
                    expected = psi if i == j else zero
                    rep_.check(lambda: f"s_{i}* s_{j} on {w} in {space.label}", expected, got)
            acc = zero
            for m in range(1, oinfty_max + 1):
                acc = acc + apply_s(m, apply_s_star(m, psi))
                rep_.check_true(
                    lambda: f"partial range sum k={m} on {w} in {space.label}",
                    acc == psi or acc.is_zero(),
                    lambda: repr(acc),
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


def ccr_suite(op_max: int = 5, max_particles: int = 4, max_mode: int = 5,
              intertwine_max: int = 5) -> SuiteReport:
    """Commutation relations of the boson family on creation states.

    [b_n, b_m*] = delta_nm, [b_n, b_m] = 0, [b_n*, b_m*] = 0, and the
    transport law s_k b_m = b_{m+1} s_k with its adjoint.
    """
    rep_ = SuiteReport(
        "ccr",
        {
            "op_max": op_max,
            "max_particles": max_particles,
            "max_mode": max_mode,
            "intertwine_max": intertwine_max,
        },
    )
    states = [boson_state(M) for M in _boson_family(max_particles, max_mode)]
    for psi in states:
        zero = State.zero(psi.space)
        for n in range(1, op_max + 1):
            for m in range(1, op_max + 1):
                got = apply_boson(False, n, apply_boson(True, m, psi)) - apply_boson(
                    True, m, apply_boson(False, n, psi)
                )
                expected = psi if n == m else zero
                rep_.check(lambda: f"[b_{n}, b_{m}*] on {psi.render()}", expected, got)
                got = apply_boson(False, n, apply_boson(False, m, psi)) - apply_boson(
                    False, m, apply_boson(False, n, psi)
                )
                rep_.check(lambda: f"[b_{n}, b_{m}] on {psi.render()}", zero, got)
                got = apply_boson(True, n, apply_boson(True, m, psi)) - apply_boson(
                    True, m, apply_boson(True, n, psi)
                )
                rep_.check(lambda: f"[b_{n}*, b_{m}*] on {psi.render()}", zero, got)
        for k in range(1, intertwine_max + 1):
            for m in range(1, intertwine_max + 1):
                for create in (False, True):
                    got = apply_s(k, apply_boson(create, m, psi))
                    expected = apply_boson(create, m + 1, apply_s(k, psi))
                    rep_.check(
                        lambda: f"s_{k} b_{m}{'*' if create else ''} transport on {psi.render()}",
                        expected,
                        got,
                    )
    return rep_


def car_suite(op_max: int = 5, max_particles: int = 4, max_mode: int = 5,
              word_identity_max: int = 6) -> SuiteReport:
    """Anticommutation relations of the fermion family on creation states.

    {a_n, a_m*} = delta_nm, {a_n, a_m} = 0, {a_n*, a_m*} = 0, the twisted
    transport t_i a_m = (-1)^(i-1) a_{m+1} t_i, and the rewriting of the
    operator word t_1^n t_2^m as a creation run following t_1^(n+m).
    """
    rep_ = SuiteReport(
        "car",
        {
            "op_max": op_max,
            "max_particles": max_particles,
            "max_mode": max_mode,
            "word_identity_max": word_identity_max,
        },
    )
    states = [fermion_state(S) for S in _fermion_family(max_particles, max_mode)]
    for psi in states:
        zero = State.zero(psi.space)
        for n in range(1, op_max + 1):
            for m in range(1, op_max + 1):
                got = apply_fermion(False, n, apply_fermion(True, m, psi)) + apply_fermion(
                    True, m, apply_fermion(False, n, psi)
                )
                expected = psi if n == m else zero
                rep_.check(lambda: f"{{a_{n}, a_{m}*}} on {psi.render()}", expected, got)
                got = apply_fermion(False, n, apply_fermion(False, m, psi)) + apply_fermion(
                    False, m, apply_fermion(False, n, psi)
                )
                rep_.check(lambda: f"{{a_{n}, a_{m}}} on {psi.render()}", zero, got)
                got = apply_fermion(True, n, apply_fermion(True, m, psi)) + apply_fermion(
                    True, m, apply_fermion(True, n, psi)
                )
                rep_.check(lambda: f"{{a_{n}*, a_{m}*}} on {psi.render()}", zero, got)
        for i in (1, 2):
            sign = 1 if i == 1 else -1
            for m in range(1, op_max + 1):
                got = apply_t(i, apply_fermion(False, m, psi))
                expected = apply_fermion(False, m + 1, apply_t(i, psi)) * sign
                rep_.check(lambda: f"t_{i} a_{m} transport on {psi.render()}", expected, got)
                got = apply_fermion(True, m + 1, apply_t(i, psi))
                expected = apply_t(i, apply_fermion(True, m, psi)) * sign
                rep_.check(lambda: f"a_{m + 1}* t_{i} transport on {psi.render()}", expected, got)
    # operator word rewriting on a sample of basis vectors
    space = RepSpace((1,))
    sample = [State.basis(space, w) for w in space.basis_words(3)]
    for n in range(1, word_identity_max + 1):
        for m in range(1, word_identity_max + 1):
            for psi in sample:
                lhs = apply_t_word((1,) * n + (2,) * m, psi)
                rhs = apply_t_word((1,) * (n + m), psi)
                for k in range(n + m, n, -1):
                    rhs = apply_fermion(True, k, rhs)
                rep_.check(lambda: f"t_1^{n} t_2^{m} rewrite on {psi.render()}", lhs, rhs)
    return rep_



# -- correspondence round trips ----------------------------------------------


def roundtrip_suite(
    max_subset: int = 12,
    max_particles: int = 6,
    max_mode: int = 6,
    grade_max: int = 4,
    grade_mode: int = 6,
    surj_bound: int = 8,
    surj_particles: int = 4,
    operational: bool = True,
) -> SuiteReport:
    """Transfer-map consistency: inverses, norm factors, grading.

    Subsets of {1..max_subset} and monomials with the given particle and
    mode bounds round-trip exactly; the two norm factors multiply to 1;
    the operational route through the representation space agrees with
    the index combinatorics; grades are conserved, and within each grade
    the fermion images are pairwise distinct and cover all small subsets.
    """
    rep_ = SuiteReport(
        "roundtrip",
        {
            "max_subset": max_subset,
            "max_particles": max_particles,
            "max_mode": max_mode,
            "grade_max": grade_max,
            "operational": operational,
        },
    )
    for r in range(1, max_subset + 1):
        for elements in combinations(range(1, max_subset + 1), r):
            S = FermionSubset(elements)
            pair = corr.inverse(S, max_particles=max_subset)
            back = corr.forward(pair.boson, max_particles=max_subset)
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
        if operational:
            op = corr.forward_operational(M)
            rep_.check(lambda: f"operational fermion image of {M}", fwd.fermion, op.fermion)
            rep_.check(lambda: f"operational coeff of {M}", fwd.coeff, op.coeff)
    for n in range(grade_max + 1):
        pairs = corr.enumerate_grade(n, grade_mode)
        images = {p.fermion for p in pairs}
        rep_.check_true(
            lambda: f"grade {n} images pairwise distinct",
            len(images) == len(pairs),
            lambda: f"{len(pairs)} pairs, {len(images)} distinct images",
        )
    for n in range(1, surj_particles + 1):
        images = {p.fermion for p in corr.enumerate_grade(n, surj_bound)}
        missing = [
            S
            for S in (FermionSubset(c) for c in combinations(range(1, surj_bound + 1), n))
            if S not in images
        ]
        rep_.check_true(
            lambda: f"grade {n} covers subsets of 1..{surj_bound}",
            not missing,
            lambda: f"missing {missing[:3]}",
        )
    return rep_


# -- the l2(N) codec and the floating oracle ---------------------------------


@dataclass
class FloatOracleResult:
    overflow: bool
    deviation: float | None

    @property
    def ok(self) -> bool:
        return not self.overflow


_TOKEN_KINDS = {"t", "s", "b", "a"}


def parse_op_token(token: str) -> tuple[str, int, bool]:
    """Parse an operator token like t1, t2*, s3, b2*, a4."""
    token = token.strip()
    star = token.endswith("*")
    if star:
        token = token[:-1]
    kind, idx = token[:1], token[1:]
    if kind not in _TOKEN_KINDS or not idx.isdigit() or int(idx) < 1:
        raise ValueError(f"bad operator token {token!r}")
    if kind == "t" and int(idx) not in (1, 2):
        raise ValueError(f"bad operator token {token!r}: t-index must be 1 or 2")
    return kind, int(idx), star


def render_op_token(tok: tuple[str, int, bool]) -> str:
    kind, idx, star = tok
    return f"{kind}{idx}{'*' if star else ''}"


def apply_op_token(tok, state: State, *, max_mode: int = DEFAULT_MAX_MODE) -> State:
    kind, idx, star = tok
    if kind == "t":
        return apply_t_star(idx, state) if star else apply_t(idx, state)
    if kind == "s":
        return apply_s_star(idx, state) if star else apply_s(idx, state)
    if kind == "b":
        return apply_boson(star, idx, state, max_mode=max_mode)
    return apply_fermion(star, idx, state, max_mode=max_mode)


class _NumericFamily:
    """Truncated matrices on span{e_1..e_dim}, built from the index codec."""

    def __init__(self, dim: int):
        import numpy as np
        from scipy import sparse

        self.dim = dim
        self._sparse = sparse
        self._np = np
        rows1, rows2, cols = [], [], []
        for n in range(1, dim + 1):
            cols.append(n - 1)
            rows1.append(2 * (n - 1) + 1 - 1)
            rows2.append(2 * (n - 1) + 2 - 1)
        data = np.ones(len(cols))
        self.t1 = self._clip(sparse.coo_matrix((data, (rows1, cols)), shape=(2 * dim, dim)))
        self.t2 = self._clip(sparse.coo_matrix((data, (rows2, cols)), shape=(2 * dim, dim)))
        self._s_cache: dict[int, object] = {}
        self._b_cache: dict[int, object] = {}
        self._a_cache: dict[int, object] = {}
        self.block_count = dim.bit_length() + 1

    def _clip(self, m):
        return self._sparse.csr_matrix(m)[: self.dim, :]

    def s(self, m: int):
        if m not in self._s_cache:
            mat = self.t1
            for _ in range(m - 1):
                mat = self.t2 @ mat
            self._s_cache[m] = mat
        return self._s_cache[m]

    def b(self, n: int):
        if n not in self._b_cache:
            if n == 1:
                acc = None
                for m in range(1, self.block_count + 1):
                    term = math.sqrt(m) * (self.s(m) @ self.s(m + 1).T)
                    acc = term if acc is None else acc + term
                self._b_cache[1] = acc
            else:
                prev = self.b(n - 1)
                acc = None
                for m in range(1, self.block_count + 1):
                    term = self.s(m) @ prev @ self.s(m).T
                    acc = term if acc is None else acc + term
                self._b_cache[n] = acc
        return self._b_cache[n]

    def a(self, n: int):
        if n not in self._a_cache:
            if n == 1:
                self._a_cache[1] = self.t1 @ self.t2.T
            else:
                prev = self.a(n - 1)
                self._a_cache[n] = self.t1 @ prev @ self.t1.T - self.t2 @ prev @ self.t2.T
        return self._a_cache[n]

    def matrix(self, tok):
        kind, idx, star = tok
        base = {"t": lambda: self.t1 if idx == 1 else self.t2,
                "s": lambda: self.s(idx),
                "b": lambda: self.b(idx),
                "a": lambda: self.a(idx)}[kind]()
        return base.T if star else base


_numeric_cache: dict[int, _NumericFamily] = {}


def _numeric(dim: int) -> _NumericFamily:
    if dim not in _numeric_cache:
        _numeric_cache[dim] = _NumericFamily(dim)
    return _numeric_cache[dim]


def float_oracle(dim: int, ops, start: int = 1) -> FloatOracleResult:
    """Compare the exact engine against truncated double-precision matrices.

    The token sequence is applied in list order (first token first) to the
    basis vector e_start, once exactly and once numerically.  If any exact
    intermediate leaves the truncation window the comparison is reported
    as an overflow instead of a deviation.
    """
    if dim < 1 or dim & (dim - 1):
        raise ValueError("dim must be a power of two")
    if dim > 2 ** 14:
        raise ValueError("dim must be <= 2^14")
    tokens = [parse_op_token(t) if isinstance(t, str) else t for t in ops]
    space = RepSpace((1,))
    state = State.basis(space, index_to_word(start))
    for tok in tokens:
        state = apply_op_token(tok, state)
        if any(word_to_index(w) > dim for w, _ in state.items()):
            return FloatOracleResult(overflow=True, deviation=None)

    num = _numeric(dim)
    import numpy as np

    vec = np.zeros(dim)
    vec[start - 1] = 1.0
    for tok in tokens:
        vec = num.matrix(tok) @ vec
    exact_vec = np.zeros(dim)
    for w, c in state.items():
        exact_vec[word_to_index(w) - 1] = c.to_float()
    deviation = float(np.max(np.abs(vec - exact_vec)))
    return FloatOracleResult(overflow=False, deviation=deviation)


def oracle_suite(
    dim: int = 4096,
    sequences: int = 200,
    seed: int = 20240809,
    max_len: int = 6,
    max_index: int = 2 ** 14,
    ladder_max: int = 12,
    embed_max_m: int = 16,
    embed_max_n: int = 4096,
    tolerance: float = 1e-9,
) -> SuiteReport:
    """The codec identities plus randomized exact-vs-float comparisons.

    Exhaustive index bijection; the letter, embedded-generator and ladder
    actions on the integer basis; and `sequences` random in-window operator
    pipelines whose float deviation must stay below `tolerance`.
    """
    rep_ = SuiteReport(
        "oracle",
        {
            "dim": dim,
            "sequences": sequences,
            "seed": seed,
            "max_index": max_index,
            "ladder_max": ladder_max,
            "tolerance": tolerance,
        },
    )
    bad = [n for n in range(1, max_index + 1) if word_to_index(index_to_word(n)) != n]
    rep_.cases += 1
    if bad:
        rep_.failures.append(
            {"case": "index bijection", "expected": "identity", "got": f"broken at {bad[:5]}"}
        )
    # letter action on indices
    for n in range(1, 1025):
        w = index_to_word(n)
        for i in (1, 2):
            rep_.check(lambda: f"t_{i} e_{n}", 2 * (n - 1) + i, word_to_index(w.prepend(i)))
    # embedded generators on indices
    space = RepSpace((1,))
    for m in range(1, embed_max_m + 1):
        for n in range(1, embed_max_n + 1):
            st = apply_s(m, State.basis(space, index_to_word(n)))
            ((w, c),) = st.items()
            rep_.check_true(
                lambda: f"s_{m} e_{n}",
                c == ONE and word_to_index(w) == 2 ** (m - 1) * (2 * n - 1),
                st.render,
            )
    # ladder actions on the vacuum index
    e1 = State.basis(space, index_to_word(1))
    zero = State.zero(space)
    for m in range(1, ladder_max + 1):
        target = State.basis(space, index_to_word(2 ** (m - 1) + 1))
        rep_.check(lambda: f"a_{m}* e_1", target, apply_fermion(True, m, e1))
        rep_.check(lambda: f"a_{m} e_1", zero, apply_fermion(False, m, e1))
        rep_.check(lambda: f"b_{m}* e_1", target, apply_boson(True, m, e1))
        rep_.check(lambda: f"b_{m} e_1", zero, apply_boson(False, m, e1))
    # fixed float-oracle pipelines
    for ops, start in ((["t2", "t1", "t2*"], 1), (["b1*", "b1"], 1), (["a3*"], 1)):
        res = float_oracle(dim, ops, start)
        rep_.check_true(
            lambda: f"pipeline {ops} from e_{start}",
            res.ok and res.deviation <= tolerance,
            lambda: f"overflow={res.overflow} deviation={res.deviation}",
        )
    # randomized pipelines
    rng = random.Random(seed)
    collected = 0
    attempts = 0
    worst = 0.0
    while collected < sequences and attempts < sequences * 100:
        attempts += 1
        length = rng.randint(1, max_len)
        ops = []
        for _ in range(length):
            kind = rng.choice("ttssba")
            idx = rng.randint(1, 2) if kind == "t" else rng.randint(1, 4)
            ops.append((kind, idx, rng.random() < 0.5))
        start = rng.randint(1, 8)
        res = float_oracle(dim, ops, start)
        if res.overflow:
            continue
        collected += 1
        worst = max(worst, res.deviation)
        rep_.check_true(
            lambda: f"random pipeline {[render_op_token(t) for t in ops]} from e_{start}",
            res.deviation <= tolerance,
            lambda: f"deviation={res.deviation}",
        )
    rep_.check_true(
        lambda: f"collected {sequences} in-window pipelines",
        collected == sequences,
        lambda: f"only {collected} after {attempts} attempts",
    )
    rep_.params["worst_deviation"] = worst
    return rep_
