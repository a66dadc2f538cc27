"""Command-line front end.

Exit codes: 0 success / all suites pass, 1 verification failure,
2 usage or parse error, 3 bound refusal.
"""

from __future__ import annotations

import json
import sys

import click

from . import correspondence as corr
from . import verify
from .ladder import (
    DEFAULT_MAX_MODE,
    BoundsError,
    parse_boson_expr,
    parse_boson_word,
    parse_fermion_expr,
    parse_fermion_word,
)
from .rep import RepSpace, State, gp_vector
from .verify import apply_op_token, parse_op_token
from .words import TailWord, block_prepend, parse_letters

EXIT_VERIFY_FAIL = 1
EXIT_BOUNDS = 3


def _bounds_guard(fn):
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except BoundsError as exc:
            click.echo(f"refused: {exc}", err=True)
            sys.exit(EXIT_BOUNDS)
        except ValueError as exc:
            raise click.UsageError(str(exc))

    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


def _check_mode_bound(mode: int) -> None:
    """Refuse boson modes above the library default, as `apply` does."""
    if mode > DEFAULT_MAX_MODE:
        raise BoundsError(f"mode {mode} exceeds the configured bound {DEFAULT_MAX_MODE}")


@click.group()
def main():
    """Exact boson/fermion transfer on permutative representation spaces."""


def _echo_pair(pair: corr.CorrespondencePair, as_json: bool, sign: int = 1) -> None:
    coeff = pair.coeff * sign
    if as_json:
        payload = pair.to_json()
        payload["coeff"] = coeff.to_json()
        click.echo(json.dumps(payload))
    else:
        click.echo(f"boson   : {pair.boson}")
        click.echo(f"fermion : {pair.fermion}")
        click.echo(f"coeff   : {coeff.render()} = {coeff.render_decimal()}")


@main.command("map")
@click.argument("monomial")
@click.option("--check", is_flag=True, help="Re-derive through the representation space.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_bounds_guard
def cmd_map(monomial: str, check: bool, as_json: bool):
    """Transfer a boson creation monomial, e.g. "1^2 3"."""
    M = parse_boson_expr(monomial)
    _check_mode_bound(M.max_mode)
    pair = corr.forward(M)
    if check:
        op = corr.forward_operational(M)
        if op.fermion != pair.fermion or op.coeff != pair.coeff:
            click.echo("operational transfer disagrees with the block formula", err=True)
            sys.exit(EXIT_VERIFY_FAIL)
    _echo_pair(pair, as_json)


@main.command("unmap")
@click.argument("monomial")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_bounds_guard
def cmd_unmap(monomial: str, as_json: bool):
    """Transfer a fermion creation monomial back, e.g. "1 2 4"."""
    sign, S = parse_fermion_expr(monomial)
    pair = corr.inverse(S)
    _echo_pair(pair, as_json, sign=sign)


@main.command("table")
@click.option("-n", "--particles", type=int, required=True, help="Particle count.")
@click.option("-m", "--max-mode", type=int, default=6, show_default=True)
@click.option("-f", "--format", "fmt", type=click.Choice(["tsv", "json"]), default="tsv",
              show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Shorthand for --format json.")
@_bounds_guard
def cmd_table(particles: int, max_mode: int, fmt: str, as_json: bool):
    """List every transfer pair of one particle grade."""
    _check_mode_bound(max_mode)
    pairs = corr.enumerate_grade(particles, max_mode)
    if as_json or fmt == "json":
        click.echo(json.dumps([p.to_json() for p in pairs]))
    else:
        click.echo(corr.grade_table_tsv(pairs), nl=False)


_SUITES = {
    "cuntz": lambda o: [verify.cuntz_suite(depth=o["depth"])],
    "ccr": lambda o: [
        verify.ccr_suite(op_max=o["modes"], max_particles=o["particles"], max_mode=o["modes"])
    ],
    "car": lambda o: [
        verify.car_suite(op_max=o["modes"], max_particles=o["particles"], max_mode=o["modes"])
    ],
    "branch-oinfty": lambda o: [
        verify.check_branching_oinfty(v, variant, depth=o["depth"])
        for variant in ("p", "q")
        for v in range(1, o["p_max"] + 1)
    ],
    "branch-boson": lambda o: [
        verify.check_branching_boson(p) for p in range(1, min(o["p_max"], 3) + 1)
    ],
    "branch-fermion": lambda o: [
        verify.check_branching_fermion(p, starred=starred)
        for starred in (False, True)
        for p in range(1, o["p_max"] + 1)
    ],
    "roundtrip": lambda o: [
        verify.roundtrip_suite(
            max_subset=o["max_subset"],
            max_particles=o["particles"],
            max_mode=o["modes"],
        )
    ],
    "oracle": lambda o: [
        verify.oracle_suite(
            dim=o["dim"],
            sequences=o["sequences"],
            seed=o["seed"],
            embed_max_n=min(o["dim"], 4096),
        )
    ],
}


@main.command("verify")
@click.argument("suites", nargs=-1, required=True)
@click.option("--depth", type=int, default=8, show_default=True)
@click.option("--modes", type=int, default=5, show_default=True)
@click.option("--particles", type=int, default=4, show_default=True)
@click.option("--max-subset", type=int, default=12, show_default=True)
@click.option("-p", "--p-max", type=int, default=4, show_default=True)
@click.option("--dim", type=int, default=1024, show_default=True)
@click.option("--sequences", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=20240809, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON reports.")
@_bounds_guard
def cmd_verify(suites, depth, modes, particles, max_subset, p_max, dim,
               sequences, seed, as_json):
    """Run named verification suites.

    Known names: cuntz ccr car branch-oinfty branch-boson branch-fermion
    roundtrip oracle, or `all`.
    """
    names = list(suites)
    if names == ["all"]:
        names = list(_SUITES)
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise click.UsageError(f"unknown suite(s): {', '.join(unknown)}")
    options = {
        "depth": depth,
        "modes": modes,
        "particles": particles,
        "max_subset": max_subset,
        "p_max": p_max,
        "dim": dim,
        "sequences": sequences,
        "seed": seed,
    }
    reports = [rep for n in names for rep in _SUITES[n](options)]
    if as_json:
        click.echo(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            click.echo(r.summary())
            for f in r.failures[:10]:
                click.echo(f"    {f['case']}: expected {f['expected']}, got {f['got']}")
    if not all(r.passed for r in reports):
        sys.exit(EXIT_VERIFY_FAIL)


@main.command("apply")
@click.argument("operators")
@click.option("--space", "space_word", default="1", show_default=True,
              help="Defining word J of the representation space.")
@click.option("--state", "state_word", default=None,
              help="Basis word to start from (prefix letters); default GP vector.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@_bounds_guard
def cmd_apply(operators: str, space_word: str, state_word: str, as_json: bool):
    """Apply an operator word, e.g. "b1* b1*" or "t1 t2* a3".

    Tokens form an operator product: the rightmost token acts first.
    """
    space = RepSpace(parse_letters(space_word))
    if state_word is None:
        state = gp_vector(space)
    else:
        state = State.basis(space, TailWord(parse_letters(state_word), space.period))
    tokens = [parse_op_token(t) for t in operators.split()]
    for tok in reversed(tokens):
        state = apply_op_token(tok, state)
    if as_json:
        click.echo(json.dumps(state.to_json()))
    else:
        click.echo(state.render())


def _node_label(word: TailWord, label_kind: str) -> str:
    if label_kind == "words":
        return word.render()
    if label_kind == "fermions":
        S = parse_fermion_word(word)
        if S is None:
            return word.render()
        return "".join(f"a{s}*" for s in S.elements) + "Ω" if S.elements else "Ω"
    M = parse_boson_word(word)
    if M is None:
        return word.render()
    if not M.factors:
        return "Ω"
    parts = [f"b{n}*" if k == 1 else f"(b{n}*)^{k}" for n, k in M.factors]
    return "".join(parts) + "Ω"


@main.command("graph")
@click.option("--space", "space_word", default="1", show_default=True)
@click.option("--depth", type=int, default=2, show_default=True)
@click.option("--label", "label_kind", type=click.Choice(["words", "bosons", "fermions"]),
              default="words", show_default=True)
@click.option("--gens", type=click.Choice(["otwo", "oinfty"]), default="otwo",
              show_default=True)
@_bounds_guard
def cmd_graph(space_word: str, depth: int, label_kind: str, gens: str):
    """Emit the basis tree of a space as DOT text."""
    if len(space_word) > 3:
        raise BoundsError("defining words longer than 3 are refused here")
    if depth > 6:
        raise BoundsError("depths beyond 6 are refused here")
    space = RepSpace(parse_letters(space_word))
    if label_kind in ("bosons", "fermions") and space.gp_word().rot != (1,):
        raise click.UsageError("monomial labels exist only on the tail-1 space")
    nodes = sorted(space.basis_words(depth), key=lambda w: w.sort_key())
    ids = {w: f"n{k}" for k, w in enumerate(nodes)}
    lines = ["digraph basis {", "  rankdir=BT;"]
    for w in nodes:
        lines.append(f'  {ids[w]} [label="{_node_label(w, label_kind)}"];')
    for w in nodes:
        if gens == "otwo":
            for i in (1, 2):
                v = w.prepend(i)
                if v in ids:
                    lines.append(f'  {ids[w]} -> {ids[v]} [label="t{i}"];')
        else:
            for m in range(1, depth + 2):
                v = block_prepend(m, w)
                if v in ids:
                    lines.append(f'  {ids[w]} -> {ids[v]} [label="s{m}"];')
    lines.append("}")
    click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
