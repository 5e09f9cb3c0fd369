"""Command-line front end.

Every subcommand is a row of :data:`~ybalg.harness.CHECKS`: it builds a
one-job :class:`~ybalg.harness.JobSpec`, runs it through
:func:`~ybalg.harness.run_suite`, and prints the deterministic report;
``suite`` runs the canned battery.  Exit status: 0 when every check
passes, 1 when a check fails or a precondition is unmet, 2 on input errors,
3 on an internal fault of the program.

A well-formed invocation builds only its verb's parser, from that verb's
row; :func:`build_parser` builds the full command tree, which serves the
top-level and group help and the error messages of a missing, unknown or
malformed command line.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .harness import CHECKS, Job, JobSpec, default_suite, run_suite

_COMMANDS = {
    "ybe": "residual checks for one tensor map",
    "poisson": "word bracket extension",
    "quiver": "truncated quiver algebras",
    "double": "double bracket checks",
    "operad": "quadratic relation classification",
    "linfty": "homotopy bracket families",
    "ybe-infty": "higher residual sums",
    "schurweyl": "twisted symmetric-group action",
}

#: ``suite`` as a row of the check table; its ``--out`` is optional yet has no default
_SUITE = (
    "suite", ("suite",), "run the canned check battery",
    (("out", str, None, None, None, False, "also write the report here"),),
    (("literal-shuffles", None), ("emit-witness", None)), None,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybalg",
        description="exact checks for bracket extensions, residual equations,"
        " operad relations, and twisted tensor actions",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    verbs = {}
    for row in (*CHECKS, _SUITE):
        words, help = row[1:3]
        if words is None:
            continue
        *command, word = words
        parent = commands
        if command:
            name = command[0]
            if name not in verbs:
                group = commands.add_parser(name, help=_COMMANDS[name])
                verbs[name] = group.add_subparsers(dest="verb", required=True)
            parent = verbs[name]
        _add_arguments(parent.add_parser(word, help=help), row)
    return parser


def _add_arguments(parser: argparse.ArgumentParser, row) -> None:
    """Declare one row's fields and flags on its verb's parser."""
    _, _, _, fields, flags, _ = row
    parser.set_defaults(row=row)
    for name, type_, choices, default, _, required, field_help in fields:
        parser.add_argument(
            "--" + name, required=required, type=type_, choices=choices,
            default=default, help=field_help,
        )
    for name, flag_help in flags:
        parser.add_argument("--" + name, action="store_true", help=flag_help)


def _parse_verb(argv) -> argparse.Namespace | None:
    """``argv`` parsed by its verb's parser alone, or None to use the full tree.

    The verb's parser has the ``prog`` and arguments of its place in the
    tree, so its help and its errors are the tree's.  None when no row's
    words lead ``argv`` or tokens are left over: the tree reports those.
    """
    for row in (*CHECKS, _SUITE):
        words = row[1]
        if words and tuple(argv[: len(words)]) == words:
            parser = argparse.ArgumentParser(prog="ybalg " + " ".join(words))
            _add_arguments(parser, row)
            args, rest = parser.parse_known_args(argv[len(words):])
            return None if rest else args
    return None


def _spec_from_args(args: argparse.Namespace) -> JobSpec:
    emit = getattr(args, "emit_witness", False)
    literal = getattr(args, "literal_shuffles", False)
    check, _, _, fields, _, _ = args.row
    if args.row is _SUITE:
        return default_suite(literal, emit, args.out)
    inputs, params = [], []
    for name, type_, *_ in fields:
        value = getattr(args, name.replace("-", "_"))
        if type_ is None:
            inputs.append((name, value))
        else:
            params.append((name, str(value)))
    job = Job(check, tuple(inputs), tuple(params))
    return JobSpec((job,), literal_shuffles=literal, emit_witness=emit)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_verb(argv) or build_parser().parse_args(argv)
    try:
        report = run_suite(_spec_from_args(args))
    except ValueError as err:  # io.SchemaError included
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # a fault of the program, not of its input
        traceback.print_exc()
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    sys.stdout.write(report.text())
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
