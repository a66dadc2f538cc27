"""Command-line front end, on the standard library's argparse.

Exit codes: 0 success / all suites pass, 1 verification failure,
2 usage or parse error, 3 bound refusal.

Only the transfer (`correspondence`) is imported with this module, so a
cold `map`, `unmap` or `table` loads no words, representation spaces or
ladder operators; `apply` and `graph` import those when they run, and
`verify` its suites.

The parser is built once, at import.  A parsed call names its `cmd_*`
function, which is looked up on this module when the call runs, so a
function replaced here (a monkeypatch, a tracer's wrapper) is the one that
runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import correspondence as corr
from .correspondence import BoundsError, check_mode, parse_boson_expr, parse_fermion_expr

EXIT_VERIFY_FAIL = 1
EXIT_BOUNDS = 3


def _echo(text: str, err: bool = False, nl: bool = True) -> None:
    """Write text, with a newline unless nl is False, in one write.

    Once the reader closes stdout (`cuntzfock table ... | head`), the rest of
    the output goes to the null device, and the command keeps its exit code.
    """
    stream = sys.stderr if err else sys.stdout
    try:
        stream.write(text + "\n" if nl else text)
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def _echo_pair(pair: corr.CorrespondencePair, as_json: bool, sign: int = 1) -> None:
    coeff = pair.coeff if sign == 1 else pair.coeff * sign
    if as_json:
        payload = pair.to_json()
        payload["coeff"] = coeff.to_json()
        _echo(json.dumps(payload))
    else:
        _echo(f"boson   : {pair.boson}\n"
              f"fermion : {pair.fermion}\n"
              f"coeff   : {coeff.render()} = {coeff.render_decimal()}")


def cmd_map(monomial: str, check: bool, as_json: bool):
    """Transfer a boson creation monomial, e.g. "1^2 3"."""
    M = parse_boson_expr(monomial)
    check_mode(M.max_mode)
    pair = corr.forward(M)
    if check:
        op = corr.forward_operational(M)
        if op.fermion != pair.fermion or op.coeff != pair.coeff:
            _echo("operational transfer disagrees with the block formula", err=True)
            return EXIT_VERIFY_FAIL
    _echo_pair(pair, as_json)


def cmd_unmap(monomial: str, as_json: bool):
    """Transfer a fermion creation monomial back, e.g. "1 2 4"."""
    sign, S = parse_fermion_expr(monomial)
    pair = corr.inverse(S)
    _echo_pair(pair, as_json, sign=sign)


def cmd_table(particles: int, max_mode: int, as_json: bool):
    """List every transfer pair of one particle grade."""
    check_mode(max_mode)
    pairs = corr.enumerate_grade(particles, max_mode)
    if as_json:
        _echo(json.dumps([p.to_json() for p in pairs]))
    else:
        _echo(corr.grade_table_tsv(pairs), nl=False)


def cmd_verify(suites: list[str], as_json: bool, **options):
    """Run named verification suites.

    Known names: cuntz ccr car branch-oinfty branch-boson branch-fermion
    roundtrip oracle, or `all`.
    """
    from . import verify  # here, so that the other commands start without the suites
    reports = verify.run(suites, options)
    if as_json:
        _echo(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            _echo(r.summary())
            for f in r.failures[:10]:
                _echo(f"    {f['case']}: expected {f['expected']}, got {f['got']}")
            if len(r.failures) > 10:
                _echo(f"    ... and {len(r.failures) - 10} more")
    if not all(r.passed for r in reports):
        return EXIT_VERIFY_FAIL


def cmd_apply(operators: str, space_word: str, state_word: str | None, as_json: bool):
    """Apply an operator word, e.g. "b1* b1*" or "t1 t2* a3".

    Tokens form an operator product: the rightmost token acts first.
    """
    from .ladder import apply
    from .rep import RepSpace, State, gp_vector
    from .words import TailWord, parse_letters

    space = RepSpace(parse_letters(space_word))
    if state_word is None:
        state = gp_vector(space)
    else:
        state = State.basis(space, TailWord(parse_letters(state_word), space.period))
    state = apply(operators, state)
    if as_json:
        _echo(json.dumps(state.to_json()))
    else:
        _echo(state.render())


def _node_label(word, label_kind: str) -> str:
    """A basis word (a `words.TailWord`) as a node label of the kind asked for."""
    from .ladder import parse_boson_word, parse_fermion_word

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


def cmd_graph(space_word: str, depth: int, label_kind: str, gens: str):
    """Emit the basis tree of a space as DOT text."""
    from .ladder import basis_map
    from .rep import RepSpace
    from .words import parse_letters

    if len(space_word) > 3:
        raise BoundsError("defining words longer than 3 are refused here")
    if depth > 6:
        raise BoundsError("depths beyond 6 are refused here")
    space = RepSpace(parse_letters(space_word))
    if label_kind in ("bosons", "fermions") and space.gp_word().rot != (1,):
        raise ValueError("monomial labels exist only on the tail-1 space")
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
    _echo("\n".join(lines))


# -- the parser --------------------------------------------------------------


def _at_least(floor: int):
    """An argparse type: an integer no smaller than floor."""
    def integer(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={floor}")
        return value
    return integer


def _integer(parser, *flags, default: int, floor: int | None = None, help: str = "") -> None:
    """Add an integer option whose help shows its default and floor."""
    shown = f"default: {default}" if floor is None else f"default: {default}; x>={floor}"
    parser.add_argument(*flags, type=int if floor is None else _at_least(floor),
                        default=default, metavar="INTEGER", help=f"{help}  [{shown}]".lstrip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuntzfock", allow_abbrev=False,
        description="Exact boson/fermion transfer on permutative representation spaces.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(fn) -> argparse.ArgumentParser:
        # the docstring is the help; a parse names fn, for `main` to look up
        doc = [line.strip() for line in fn.__doc__.splitlines()]
        sub = commands.add_parser(fn.__name__.removeprefix("cmd_"), help=doc[0],
                                  description="\n".join(doc).strip(), allow_abbrev=False,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
        sub.set_defaults(command=fn.__name__, parser=sub)
        return sub

    def as_json(sub, help: str = "Emit JSON.") -> None:
        sub.add_argument("--json", dest="as_json", action="store_true", help=help)

    sub = command(cmd_map)
    sub.add_argument("monomial", metavar="MONOMIAL")
    sub.add_argument("--check", action="store_true",
                     help="Re-derive through the representation space.")
    as_json(sub)

    sub = command(cmd_unmap)
    sub.add_argument("monomial", metavar="MONOMIAL")
    as_json(sub)

    sub = command(cmd_table)
    sub.add_argument("-n", "--particles", type=int, required=True, metavar="INTEGER",
                     help="Particle count.  [required]")
    _integer(sub, "-m", "--max-mode", default=6, floor=1)
    as_json(sub, "Emit JSON instead of TSV.")

    sub = command(cmd_verify)
    sub.add_argument("suites", nargs="+", metavar="SUITES")
    _integer(sub, "--depth", default=8, floor=0)
    _integer(sub, "--modes", default=5, floor=1)
    _integer(sub, "--particles", default=4, floor=0)
    _integer(sub, "--max-subset", default=12, floor=1)
    _integer(sub, "-p", "--p-max", default=4, floor=1,
             help="Largest p of the branch suites; branch-boson stops at p = 3.")
    _integer(sub, "--dim", default=1024)
    _integer(sub, "--sequences", default=50, floor=0)
    _integer(sub, "--seed", default=20240809)
    as_json(sub, "Emit JSON reports.")

    sub = command(cmd_apply)
    sub.add_argument("operators", metavar="OPERATORS")
    sub.add_argument("--space", dest="space_word", default="1", metavar="TEXT",
                     help="Defining word J of the representation space.  [default: 1]")
    sub.add_argument("--state", dest="state_word", metavar="TEXT",
                     help="Basis word to start from (prefix letters); default GP vector.")
    as_json(sub)

    sub = command(cmd_graph)
    sub.add_argument("--space", dest="space_word", default="1", metavar="TEXT",
                     help="[default: 1]")
    _integer(sub, "--depth", default=2, floor=0)
    sub.add_argument("--label", dest="label_kind", choices=["words", "bosons", "fermions"],
                     default="words", help="[default: words]")
    sub.add_argument("--gens", choices=["otwo", "oinfty"], default="otwo",
                     help="[default: otwo]")
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its exit code.

    `--help` and usage errors leave through argparse's SystemExit, with code 0 and 2.
    """
    args, extra = _PARSER.parse_known_args(argv)
    parser = args.parser
    if extra and args.command == "cmd_verify" and not any(a.startswith("-") for a in extra):
        args.suites += extra  # suite names after an option: `verify ccr --json car`
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    options = vars(args)
    del options["parser"]
    fn = globals()[options.pop("command")]
    try:
        return fn(**options) or 0
    except BoundsError as exc:
        _echo(f"refused: {exc}", err=True)
        return EXIT_BOUNDS
    except ValueError as exc:
        parser.error(str(exc))


# click's `Command.main` call shape, which perfbench/workloads.py (`_run_cli`)
# uses to run a command in-process: it exits with main(argv)'s code.  It goes
# once that caller calls `main(argv)`.
main.main = lambda argv, prog_name=None, standalone_mode=True: sys.exit(main(argv))


if __name__ == "__main__":
    sys.exit(main())
