"""The benchmark's workloads: seeded inputs, the ops, and reference checks.

Each workload turns a seed into an endless sequence of rounds; a round is
a list of `Op`s.  An op is one closed-loop request: the runner calls it,
waits for the result, then checks the result against a reference written
here, outside the op's timer.  The op calls the engine through module
attributes (``corr.forward``, not a bound name), so that a traced run
sees the wrappers the tracer installs.

Why these three workloads:

- ``verify`` runs the suites of ``cuntzfock verify all`` at its default
  flags.  It is the command users run to re-derive the paper's
  identities, and it is dominated by ``words``, ``rep`` and ``radical``
  products by ONE.
- ``transfer`` is a stream of requests shaped like CLI traffic.  Its
  median is set by ``correspondence`` and ``radical`` (square roots of
  factorials); its tail by ``map --check`` and ``table``, where
  ``ladder`` and ``words`` work.  ``verify`` hardly touches this path.
- ``scalars`` is dense multi-term ``RadicalScalar`` arithmetic and
  square roots of mostly distinct integers.  It bypasses ``words``,
  ``rep`` and ``ladder``, so a change there should leave it flat, while a
  single-term fast path that slows dense products, or a cache that grows
  without bound, shows here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from cuntzfock import cli, ladder, radical
from cuntzfock import correspondence as corr


@dataclass
class Op:
    """One request: `run` does the work, `check` returns an error or None."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    # checks done by the op; latency is reported per unit of weight
    weight: int = 1


# -- verify -----------------------------------------------------------------

# Case counts of `cuntzfock verify all` at its default flags.  A pass whose
# counts differ has not done the same work, so its speed is not reported.
VERIFY_CASES = {
    "cuntz": 45056,
    "ccr": 15750,
    "car": 3233,
    "branch-oinfty": 24,
    "branch-boson": 122,
    "branch-fermion": 826,
    "roundtrip": 8953,
    "oracle": 18535,
}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the click CLI in-process; return (exit code, stdout)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(argv, prog_name="cuntzfock", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


def _check_suite(name: str):
    def check(out) -> "str | None":
        code, text = out
        reports = json.loads(text)
        failures = sum(len(r["failures"]) for r in reports)
        cases = sum(r["cases"] for r in reports)
        if code != 0 or failures:
            return f"verify {name}: exit {code}, {failures} failures"
        if cases != VERIFY_CASES[name]:
            return f"verify {name}: {cases} cases, expected {VERIFY_CASES[name]}"
        return None
    return check


def verify_rounds(seed: int) -> Iterator[list[Op]]:
    """One round is one pass over the suites of `verify all`."""
    while True:
        yield [
            Op(
                name,
                lambda name=name: _run_cli(["verify", name, "--json", "--seed", str(seed)]),
                _check_suite(name),
                cases,
            )
            for name, cases in VERIFY_CASES.items()
        ]


# -- transfer ---------------------------------------------------------------

MAX_PARTICLES = 12  # the engine's default bounds
MAX_MODE = 16
FERMION_MODES = 28  # images of monomials within the bounds stay below 28
TRANSFER_ROUND = 500


def ref_forward(factors) -> tuple[tuple[int, ...], int]:
    """Fermion image and squared norm factor, from the closed form.

    The j-th run starts at n_j + k_1 + ... + k_{j-1}; coeff^2 = prod k_j!.
    """
    modes: list[int] = []
    shift = 0
    square = 1
    for n, k in factors:
        modes.extend(range(n + shift, n + shift + k))
        shift += k
        square *= math.factorial(k)
    return tuple(modes), square


def ref_inverse(elements) -> tuple[tuple[int, int], ...]:
    """Boson preimage: block start minus the combined size of earlier blocks."""
    factors = []
    used = 0
    j = 0
    while j < len(elements):
        start = elements[j]
        length = 1
        while j + length < len(elements) and elements[j + length] == start + length:
            length += 1
        factors.append((start - used, length))
        used += length
        j += length
    return tuple(factors)


def _single_term(x: radical.RadicalScalar) -> tuple[int, Fraction]:
    """(d, q) of a scalar q*sqrt(d); raises if it has another shape."""
    ((d, q),) = x.terms.items()
    return d, Fraction(int(q.numerator), int(q.denominator))


def _coeff_error(coeff, square: Fraction) -> "str | None":
    d, q = _single_term(coeff)
    if q > 0 and q * q * d == square:
        return None
    return f"coeff {coeff.render()}, expected sqrt({square})"


def _product_is_one(c, d) -> bool:
    (dc, qc), (dd, qd) = _single_term(c), _single_term(d)
    return dc == dd and qc * qd * dc == 1


def _check_forward(M, pair) -> "str | None":
    modes, square = ref_forward(M.factors)
    if pair.fermion.elements != modes:
        return f"forward({M}) = {pair.fermion}, expected {modes}"
    return _coeff_error(pair.coeff, Fraction(square))


def _map_op(M) -> Op:
    def run():
        pair = corr.forward(M)
        return pair, corr.inverse(pair.fermion)

    def check(out):
        pair, back = out
        if back.boson.factors != M.factors:
            return f"inverse(forward({M})) = {back.boson}"
        if not _product_is_one(pair.coeff, back.coeff):
            return f"C*D != 1 for {M}"
        return _check_forward(M, pair)

    return Op("map", run, check)


def _unmap_op(S) -> Op:
    def run():
        pair = corr.inverse(S)
        return pair, corr.forward(pair.boson)

    def check(out):
        pair, back = out
        if pair.boson.factors != ref_inverse(S.elements):
            return f"inverse({S}) = {pair.boson}"
        if back.fermion != S:
            return f"forward(inverse({S})) = {back.fermion}"
        if not _product_is_one(back.coeff, pair.coeff):
            return f"C*D != 1 for {S}"
        return _check_forward(pair.boson, back)

    return Op("unmap", run, check)


def _map_check_op(M) -> Op:
    def run():
        return corr.forward(M), corr.forward_operational(M)

    def check(out):
        pair, op = out
        if op.fermion != pair.fermion or op.coeff != pair.coeff:
            return f"operational transfer of {M} disagrees"
        return _check_forward(M, pair)

    return Op("map-check", run, check)


def _table_op(n: int, m: int) -> Op:
    def run():
        return corr.enumerate_grade(n, m)

    def check(pairs):
        if len(pairs) != math.comb(n + m - 1, n):
            return f"table -n {n} -m {m}: {len(pairs)} rows"
        prev = None
        for pair in pairs:
            key = tuple(k for k, mult in pair.boson.factors for _ in range(mult))
            if len(key) != n or key[-1] > m or (prev is not None and key <= prev):
                return f"table -n {n} -m {m}: row {pair.boson} out of order"
            prev = key
            err = _check_forward(pair.boson, pair)
            if err:
                return err
        return None

    return Op("table", run, check)


def _monomial(rng: random.Random):
    k = rng.randint(1, MAX_PARTICLES)
    return ladder.BosonMonomial.from_modes(rng.randint(1, MAX_MODE) for _ in range(k))


def transfer_rounds(seed: int) -> Iterator[list[Op]]:
    """70% map, 20% unmap, 5% map --check, 5% table."""
    rng = random.Random(seed)
    while True:
        ops = []
        for _ in range(TRANSFER_ROUND):
            u = rng.random()
            if u < 0.70:
                ops.append(_map_op(_monomial(rng)))
            elif u < 0.90:
                r = rng.randint(1, MAX_PARTICLES)
                S = ladder.FermionSubset(tuple(sorted(rng.sample(range(1, FERMION_MODES + 1), r))))
                ops.append(_unmap_op(S))
            elif u < 0.95:
                ops.append(_map_check_op(_monomial(rng)))
            else:
                ops.append(_table_op(rng.randint(1, 4), rng.randint(1, 6)))
        yield ops


# -- scalars ----------------------------------------------------------------

SQUAREFREE = [d for d in range(1, 101) if all(d % (f * f) for f in range(2, 11))]
RATIONAL_MAX = 10**6
# wide enough that most square-root draws miss the engine's factor cache
SQRT_MAX = 10**6
SCALARS_ROUND = 500


def _scalar(rng: random.Random, terms: int) -> radical.RadicalScalar:
    return radical.RadicalScalar({
        d: Fraction(rng.choice((-1, 1)) * rng.randint(1, RATIONAL_MAX), rng.randint(1, RATIONAL_MAX))
        for d in rng.sample(SQUAREFREE, terms)
    })


def _float_value(x: radical.RadicalScalar) -> float:
    return sum(float(q) * math.sqrt(d) for d, q in x.terms.items())


def _identity_op(a, b, c, t) -> Op:
    def run():
        ab = a * b
        return ab * c, a * (b * c), a * (b + c), ab + a * c, (a / t) * t, ab

    def check(out):
        assoc_l, assoc_r, dist_l, dist_r, quot, ab = out
        if assoc_l != assoc_r:
            return f"(ab)c != a(bc) for a={a}, b={b}, c={c}"
        if dist_l != dist_r:
            return f"a(b+c) != ab+ac for a={a}, b={b}, c={c}"
        if quot != a:
            return f"(a/t)t != a for a={a}, t={t}"
        want = _float_value(a) * _float_value(b)
        if not math.isclose(_float_value(ab), want, rel_tol=1e-9, abs_tol=1e-9):
            return f"float value of a*b is off for a={a}, b={b}"
        return None

    return Op("identity", run, check)


def _sqrt_op(n: int) -> Op:
    def run():
        r = radical.sqrt_of_nat(n)
        return r, r * r

    def check(out):
        r, square = out
        d, s = _single_term(r)
        if s * s * d != n or square != n:
            return f"sqrt_of_nat({n}) = {r}"
        return None

    return Op("sqrt", run, check)


def scalars_rounds(seed: int) -> Iterator[list[Op]]:
    """85% identity triples on 1-3 term scalars, 15% sqrt_of_nat(n)^2 == n."""
    rng = random.Random(seed)
    while True:
        ops = []
        for _ in range(SCALARS_ROUND):
            if rng.random() < 0.85:
                a, b, c = (_scalar(rng, rng.randint(1, 3)) for _ in range(3))
                ops.append(_identity_op(a, b, c, _scalar(rng, 1)))
            else:
                ops.append(_sqrt_op(rng.randint(2, SQRT_MAX)))
        yield ops


# -- cold CLI calls -----------------------------------------------------------

# (argv, in-process JSON the call must print byte for byte)
CLI_CALLS = [
    (["map", "1^2 3", "--json"],
     lambda: json.dumps(corr.forward(ladder.parse_boson_expr("1^2 3")).to_json())),
    (["unmap", "1 2 4", "--json"],
     lambda: json.dumps(corr.inverse(ladder.FermionSubset((1, 2, 4))).to_json())),
    (["table", "-n", "2", "-m", "3", "--json"],
     lambda: json.dumps([p.to_json() for p in corr.enumerate_grade(2, 3)])),
    (["map", "2^3 5 9", "--check", "--json"],
     lambda: json.dumps(corr.forward(ladder.parse_boson_expr("2^3 5 9")).to_json())),
]

ROUNDS = {"verify": verify_rounds, "transfer": transfer_rounds, "scalars": scalars_rounds}
