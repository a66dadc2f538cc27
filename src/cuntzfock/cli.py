"""Command-line front end.

Exit codes: 0 success / all suites pass, 1 verification failure,
2 usage or parse error, 3 bound refusal.
"""

from __future__ import annotations

import json
import sys

import click

from . import correspondence as corr
from .ladder import (
    BoundsError,
    basis_map,
    check_mode,
    parse_boson_expr,
    parse_boson_word,
    parse_fermion_expr,
    parse_fermion_word,
    parse_op_token,
)
from .rep import RepSpace, State, gp_vector, map_basis
from .words import TailWord, parse_letters

EXIT_VERIFY_FAIL = 1
EXIT_BOUNDS = 3


class _Command(click.Command):
    """A command whose bound refusals exit 3 and whose bad values are usage errors (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BoundsError as exc:
            click.echo(f"refused: {exc}", err=True)
            sys.exit(EXIT_BOUNDS)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx)


@click.group()
def main():
    """Exact boson/fermion transfer on permutative representation spaces."""


main.command_class = _Command


def _echo_pair(pair: corr.CorrespondencePair, as_json: bool, sign: int = 1) -> None:
    coeff = pair.coeff if sign == 1 else pair.coeff * sign
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
def cmd_map(monomial: str, check: bool, as_json: bool):
    """Transfer a boson creation monomial, e.g. "1^2 3"."""
    M = parse_boson_expr(monomial)
    check_mode(M.max_mode)
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
def cmd_unmap(monomial: str, as_json: bool):
    """Transfer a fermion creation monomial back, e.g. "1 2 4"."""
    sign, S = parse_fermion_expr(monomial)
    pair = corr.inverse(S)
    _echo_pair(pair, as_json, sign=sign)


@main.command("table")
@click.option("-n", "--particles", type=int, required=True, help="Particle count.")
@click.option("-m", "--max-mode", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of TSV.")
def cmd_table(particles: int, max_mode: int, as_json: bool):
    """List every transfer pair of one particle grade."""
    check_mode(max_mode)
    pairs = corr.enumerate_grade(particles, max_mode)
    if as_json:
        click.echo(json.dumps([p.to_json() for p in pairs]))
    else:
        click.echo(corr.grade_table_tsv(pairs), nl=False)


@main.command("verify")
@click.argument("suites", nargs=-1, required=True)
@click.option("--depth", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--modes", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--particles", type=click.IntRange(min=0), default=4, show_default=True)
@click.option("--max-subset", type=click.IntRange(min=1), default=12, show_default=True)
@click.option("-p", "--p-max", type=click.IntRange(min=1), default=4, show_default=True,
              help="Largest p of the branch suites; branch-boson stops at p = 3.")
@click.option("--dim", type=int, default=1024, show_default=True)
@click.option("--sequences", type=click.IntRange(min=0), default=50, show_default=True)
@click.option("--seed", type=int, default=20240809, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON reports.")
def cmd_verify(suites, as_json, **options):
    """Run named verification suites.

    Known names: cuntz ccr car branch-oinfty branch-boson branch-fermion
    roundtrip oracle, or `all`.
    """
    from . import verify  # here, so that the other commands start without the suites
    reports = verify.run(suites, options)
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
        state = map_basis(state, basis_map(tok))
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
@click.option("--depth", type=click.IntRange(min=0), default=2, show_default=True)
@click.option("--label", "label_kind", type=click.Choice(["words", "bosons", "fermions"]),
              default="words", show_default=True)
@click.option("--gens", type=click.Choice(["otwo", "oinfty"]), default="otwo",
              show_default=True)
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
    kind, top = ("t", 2) if gens == "otwo" else ("s", depth + 1)
    edges = [(f"{kind}{k}", basis_map((kind, k, False))) for k in range(1, top + 1)]
    for w in nodes:
        for name, fn in edges:
            v = fn(w)[1]
            if v in ids:
                lines.append(f'  {ids[w]} -> {ids[v]} [label="{name}"];')
    lines.append("}")
    click.echo("\n".join(lines))


if __name__ == "__main__":
    main()
