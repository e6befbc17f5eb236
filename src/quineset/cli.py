"""Command line: build universes, evaluate formulas, run check suites.

Exit codes are a contract: 0 success (or formula true), 1 a check failed
(or formula false), 2 size cap exceeded, 64 usage error, 65 bad file
format, 74 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .builder import DEFAULT_MAX_SETS, BuildConfig, build
from .core import Universe
from .errors import CapExceeded, UniverseFormatError, WorkbenchError
from .formula import evaluate, parse
from .literals import format_set_literal, parse_set_literal
from .peano import check_peano, sequence
from .storage import load_universe, save_universe
from .verifier import PAIR_SUITES, SUITES, Report, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CAP = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_IO = 74

# Most bytes of set literal lines ``peano`` prints; they double with each
# step of ``--length``.
MAX_PEANO_BYTES = 16 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quineset", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_build = sub.add_parser("build",
                             help="enumerate a universe and write it to a file")
    p_build.add_argument("--atoms", required=True,
                         help="comma-separated atom names, e.g. u,v")
    p_build.add_argument("--depth", type=int, default=3,
                         help="number of closure stages (default 3)")
    p_build.add_argument("--max-sets", type=int, default=DEFAULT_MAX_SETS,
                         help=f"hard cap on universe size (default {DEFAULT_MAX_SETS})")
    p_build.add_argument("--out", required=True, help="universe file to write")
    p_build.set_defaults(func=_cmd_build)

    p_eval = sub.add_parser("eval",
                            help="evaluate a formula over a stored universe")
    p_eval.add_argument("universe", help="universe file")
    p_eval.add_argument("formula", help="formula text, e.g. 'forall s. exists u. (u in s)'")
    p_eval.add_argument("--bind", action="append", default=[], metavar="NAME=LITERAL",
                        help="bind a free variable to a set literal (repeatable)")
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check",
                             help="run a verification suite over a stored universe")
    p_check.add_argument("universe", help="universe file")
    p_check.add_argument("suite", choices=SUITES)
    p_check.add_argument("--pair", metavar="A,B",
                         help="two distinct atom names for the pair-based checks")
    p_check.add_argument("--format", choices=["text", "json"], default="text")
    p_check.set_defaults(func=_cmd_check)

    p_peano = sub.add_parser("peano",
                             help="generate a successor chain and verify it")
    p_peano.add_argument("universe", help="universe file")
    p_peano.add_argument("--base", required=True, metavar="A,B",
                         help="two distinct atom names for the first number")
    p_peano.add_argument("--length", type=int, default=10)
    p_peano.add_argument("--format", choices=["text", "json"], default="text")
    p_peano.set_defaults(func=_cmd_peano)

    return parser


def _resolve_pair(universe: Universe, arg: str) -> tuple[int, int]:
    names = arg.split(",")
    if len(names) != 2:
        raise ValueError("expected exactly two comma-separated atom names")
    return universe.atom_id(names[0]), universe.atom_id(names[1])


def _render_witness(universe: Universe, witness) -> list[str]:
    shown = ", ".join(
        f"{name}={format_set_literal(universe, sid)}" for name, sid in witness.bindings
    )
    lines = [f"  witness: {shown}" if shown else "  witness:"]
    lines.append(f"  formula: {witness.formula}")
    return lines


def _render_report_text(universe: Universe, report: Report) -> str:
    lines = [f"universe: atoms={','.join(report.atoms)} size={report.size}"]
    for result in report.results:
        lines.append(f"{result.name}: {result.status.value} (scanned {result.scanned})")
        if result.witness is not None:
            lines.extend(_render_witness(universe, result.witness))
    return "\n".join(lines)


def _cmd_build(args) -> int:
    config = BuildConfig(tuple(args.atoms.split(",")), args.depth, args.max_sets)
    universe, report = build(config)
    save_universe(universe, args.out)
    print(list(report.counts))
    if report.fixed_point_stage is not None:
        print(f"fixed point at stage {report.fixed_point_stage}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    universe = load_universe(args.universe)
    # A literal naming a set outside the file interns it; quantifiers still
    # range over the stored sets only.
    domain = len(universe)
    parsed = parse(args.formula)
    env = {}
    for binding in args.bind:
        name, sep, literal = binding.partition("=")
        if not sep or not name:
            raise ValueError(f"bindings look like NAME=LITERAL, got {binding!r}")
        if name in env:
            raise ValueError(f"variable {name!r} is bound more than once")
        env[name] = parse_set_literal(universe, literal)
    value = evaluate(universe, parsed, env, domain_size=domain)
    print("true" if value else "false")
    return EXIT_OK if value else EXIT_CHECK_FAILED


def _cmd_check(args) -> int:
    universe = load_universe(args.universe)
    if args.pair is not None:
        pair_atoms = _resolve_pair(universe, args.pair)
    elif args.suite in PAIR_SUITES:
        raise ValueError(f"the {args.suite} suite needs --pair A,B")
    elif len(universe.atoms) >= 2:
        pair_atoms = (universe.atoms[0], universe.atoms[1])
    else:
        pair_atoms = None
    report = run_suite(universe, args.suite, pair_atoms)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(_render_report_text(universe, report))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_peano(args) -> int:
    universe = load_universe(args.universe)
    a1, a2 = _resolve_pair(universe, args.base)
    # The base {a1,a2} is 3 bytes longer than the two names, and each
    # successor's literal 1 byte longer than twice its predecessor's, so
    # n lines, with their newlines, take (base + 1) * (2**n - 1) bytes.
    base = len(universe.atom_names[a1]) + len(universe.atom_names[a2]) + 3
    if args.length > 0 and (base + 1) * ((1 << min(args.length, 64)) - 1) > MAX_PEANO_BYTES:
        raise ValueError(
            f"--length {args.length} would print over {MAX_PEANO_BYTES} bytes of set literals")
    chain = sequence(universe, a1, a2, args.length)
    report = check_peano(universe, chain)
    if args.format == "json":
        payload = report.to_dict()
        payload["sequence"] = [format_set_literal(universe, e) for e in chain.elements]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for element in chain.elements:
            print(format_set_literal(universe, element))
        print(_render_report_text(universe, report))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"quineset: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UniverseFormatError as exc:
        print(f"quineset: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"quineset: {exc}", file=sys.stderr)
        return EXIT_IO
    except (WorkbenchError, ValueError) as exc:
        print(f"quineset: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
