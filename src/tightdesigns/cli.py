"""Command-line interface: enumerate, verify, construct, decide, selftest."""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from . import constructions, designs, feasibility, nonexistence, verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3
EXIT_CLOSED_PIPE = 141  # as a shell reports a process ended by SIGPIPE

_ROW_WRITERS = {"csv": feasibility.to_csv, "json": feasibility.to_json_lines,
                "table": feasibility.to_table}


class _Parser(argparse.ArgumentParser):
    """Matches flags in full, so a prefix such as --row is an error; each
    subcommand parses its own flags in a parser of its parent's class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tightdesigns",
        description="Tight relative 2-designs on two shells of H(n,2): "
        "enumerate parameter rows, verify designs, construct and decide.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="print feasible parameter rows")
    p_enum.add_argument("--n-min", type=int, required=True)
    p_enum.add_argument("--n-max", type=int, required=True)
    p_enum.add_argument("--format", choices=tuple(_ROW_WRITERS), default="csv")

    p_verify = sub.add_parser("verify", help="run all checks on a design file")
    p_verify.add_argument("--design", required=True)
    p_verify.add_argument("--t", type=int, default=2)

    p_con = sub.add_parser("construct", help="build, verify, and save a design")
    con_sub = p_con.add_subparsers(dest="kind", required=True)
    p_had = con_sub.add_parser("hadamard", help="Hadamard pairing in H(2m,2)")
    p_had.add_argument("--m", type=int, required=True,
                       help=f"m = n/2, m = 3 (mod 4), m <= {constructions.MAX_POINTS}")
    p_had.add_argument("--out", required=True)
    p_sym = con_sub.add_parser("symmetric", help="split a symmetric design at a point")
    source = p_sym.add_mutually_exclusive_group(required=True)
    source.add_argument("--plane", type=int, help="projective plane order (2..5)")
    source.add_argument("--paley", type=int,
                        help=f"odd prime power q = 3 (mod 4), q <= {constructions.MAX_POINTS}")
    p_sym.add_argument("--variant", choices=("residual", "complemented"), default="residual")
    p_sym.add_argument("--complement", action="store_true",
                       help="use the complement of the symmetric design")
    p_sym.add_argument("--base-point", type=int, default=0)
    p_sym.add_argument("--out", required=True)

    p_decide = sub.add_parser("decide", help="run the nonexistence pipeline")
    p_decide.add_argument("--n", type=int, required=True)
    p_decide.add_argument("--row-index", type=int, help="1-based row within the n block")
    p_decide.add_argument("--budget", type=int, default=nonexistence.DEFAULT_BUDGET)
    p_decide.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("selftest", help="run the quick property suites of all modules")
    return parser


def _cmd_enumerate(args) -> int:
    try:
        rows = feasibility.enumerate_rows(args.n_min, args.n_max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    sys.stdout.write(_ROW_WRITERS[args.format](rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        design = designs.load(Path(args.design).read_bytes())
        results = verify.full_check(design, args.t)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    for result in results:
        print("\n".join(result.lines))
    return EXIT_OK if all(result.ok for result in results) else EXIT_VERIFY_FAILED


def _cmd_construct(args) -> int:
    try:
        if args.kind == "hadamard":
            if args.m < 3:  # -1 % 4 == 3
                raise constructions.BadOrder(f"m = {args.m} needs m >= 3")
            if args.m % 4 != 3:
                raise constructions.BadOrder(f"m = {args.m} needs m = 3 (mod 4)")
            # Sylvester's when m + 1 is a power of two, else Paley's, whose error names m
            design = constructions.hadamard_design(constructions.hadamard_source(args.m + 1)())
        else:
            if args.plane is not None:
                symmetric = constructions.projective_geometry(2, args.plane)
            else:
                symmetric = constructions.paley_design(args.paley)
            if args.complement:
                symmetric = constructions.complement_design(symmetric)
            if args.variant == "residual":
                design = constructions.from_symmetric_residual(symmetric, args.base_point)
            else:
                design = constructions.from_symmetric_complemented(symmetric, args.base_point)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    if not all(result.ok for result in verify.full_check(design)):
        print("error: constructed design failed verification", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    try:
        Path(args.out).write_bytes(designs.save(design))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    profile = designs.shells_of(design)
    shells = ", ".join(f"X_{r}: {c} points (w={w})" for r, c, w in profile.shells)
    print(f"verified design in H({design.n},2) written to {args.out}: {shells}")
    return EXIT_OK


def _cmd_decide(args) -> int:
    budget = args.budget
    env = os.environ.get("DESIGNS_SEARCH_BUDGET")
    if env is not None:
        try:
            budget = int(env)
        except ValueError:
            print(f"error: DESIGNS_SEARCH_BUDGET must be an integer, got {env!r}",
                  file=sys.stderr)
            return EXIT_MALFORMED
    if budget < 0:
        print(f"error: search budget must be nonnegative, got {budget}", file=sys.stderr)
        return EXIT_MALFORMED
    try:
        rows = feasibility.enumerate_rows(args.n, args.n)
        if args.row_index is not None:
            if not 1 <= args.row_index <= len(rows):
                raise ValueError(f"row index {args.row_index} outside 1..{len(rows)}")
            rows = [rows[args.row_index - 1]]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    any_undecided = False
    for i, row in enumerate(rows, start=1 if args.row_index is None else args.row_index):
        verdict = nonexistence.decide(row, budget=budget)
        any_undecided = any_undecided or verdict.undecided
        if args.format == "json":
            print(json.dumps(nonexistence.verdict_to_dict(row, verdict)))
        else:
            label = f"{row.n}({i})"
            summary = verdict.detail if not verdict.refuted else \
                f"{verdict.cause}: {verdict.detail}"
            print(f"{label} r1={row.r1} r2={row.r2} N1={row.n1} N2={row.n2} "
                  f"w={row.w}: {verdict.status.upper()} [{summary}]")
    return EXIT_BUDGET if any_undecided else EXIT_OK


def _cmd_selftest(_args) -> int:
    from . import selftest

    return EXIT_OK if selftest.run(sys.stdout) else EXIT_VERIFY_FAILED


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "enumerate": _cmd_enumerate,
        "verify": _cmd_verify,
        "construct": _cmd_construct,
        "decide": _cmd_decide,
        "selftest": _cmd_selftest,
    }[args.command]
    return handler(args)


def main() -> None:
    raw = getattr(sys.stdout, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        # unbuffered stdout (PYTHONUNBUFFERED) drops what a short write to a pipe
        # leaves over; a buffered layer retries it, so a closed pipe raises
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding=sys.stdout.encoding,
                                      errors=sys.stdout.errors, line_buffering=True)
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; the interpreter's last flush must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
