"""Command line interface.

Subcommands: construct, verify, sparsity, pave, errata.  Exit codes:
0 success / property holds, 1 verification failure, 2 usage error,
3 internal invariant breach (a constructed matrix failed its own
re-verification before emission).

Exact scalar parameters are given in the scalar text grammar
(e.g. ``2/3`` or ``1/2*sqrt(5)``); floats are rejected so nothing
inexact can enter a construction.  The rational flags (``--a`` and
``--b`` of ap-two-tight and abcd-outline, ``--c``, ``--d``, ``--m`` and
each ``--values`` item) take the same grammar and must be rational.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Sequence

from exactframes import errata as errata_mod
from exactframes import hyperplane, io, paving, two_tight, unitary, verify
from exactframes.errors import (DomainError, ExactFramesError, ParseError,
                                ResourceLimitError)
from exactframes.matrices import ExactMatrix
from exactframes.radicals import parse_scalar

OK, FAILED, USAGE, BREACH = 0, 1, 2, 3

# Largest --n of the sized families.  two-constant-diag, the costliest,
# takes about 20 s and 530 MiB to construct, re-check and write at
# n = 1024 (Python 3.11, 2-CPU Xeon), and time grows about as n^2.
MAX_DIMENSION = 1024


def _rational(text: str) -> Fraction:
    """A rational flag, read in the scalar text grammar."""
    try:
        return parse_scalar(text).as_fraction()
    except (ParseError, DomainError) as exc:
        raise ParseError(f"{text!r} is not a rational (use p or p/q; "
                         f"floats are not accepted): {exc}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactframes",
        description="Exact construction and certification of unitary "
                    "matrices and tight frames.")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser(
        "construct", help="build a matrix family member and emit it")
    con.add_argument("family", choices=[
        "hyperplane", "constant-first-row", "constant-two-rows",
        "two-constant-diag", "third-case", "block-pair", "mub-r4",
        "ap-two-tight", "weight-in-front", "abcd-outline",
        "iterate-two-tight", "weave"])
    con.add_argument("--n", type=int, help="dimension for sized families")
    con.add_argument("--a", help="scalar parameter (text grammar)")
    con.add_argument("--b", help="scalar parameter (text grammar)")
    con.add_argument("--c", help="rational parameter")
    con.add_argument("--d", help="rational parameter")
    con.add_argument("--values", help="comma-separated rationals")
    con.add_argument("--m", help="table column pair sum (rational)")
    con.add_argument("--form", choices=["plain", "balanced"],
                     default="balanced", help="block-pair layout")
    con.add_argument("--left", help="file with the first input matrix")
    con.add_argument("--right", help="file with the second input matrix")
    con.add_argument("--coeffs", help="file with the weave coefficients")
    con.add_argument("--blocks", nargs="+",
                     help="files with the weave blocks")
    con.add_argument("--normalize", action="store_true",
                     help="normalize rows exactly before emitting")
    con.add_argument("--format", dest="fmt", choices=io.FORMATS,
                     default="exact-json")
    con.add_argument("--out", help="output file (default stdout)")

    ver = sub.add_parser("verify", help="certify a matrix property")
    ver.add_argument("file", help="matrix file (exact-json or csv)")
    ver.add_argument("--check", required=True,
                     choices=["unitary", "tight", "hyperplane",
                              "orthogonal-columns", "mub"])
    ver.add_argument("--against",
                     help="second matrix file for the mub check")

    spa = sub.add_parser("sparsity", help="count nonzero entries")
    spa.add_argument("file")

    pav = sub.add_parser(
        "pave", help="search 2-pavings of a tight frame's Gram projection")
    pav.add_argument("file", help="frame matrix file")
    pav.add_argument("--gram", action="store_true",
                     help="treat the input as the projection itself")
    pav.add_argument("--sample", type=int,
                     help="random partitions to try instead of all")
    pav.add_argument("--seed", type=int, default=0)

    sub.add_parser("errata", help="print the verified discrepancies "
                                  "between the published constructions "
                                  "and exact arithmetic")
    return parser


def _read_matrix(path: str) -> ExactMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    notes: list[str] = []
    matrix = io.deserialize(text, notes)
    for note in notes:
        print(f"note: {path}: {note}", file=sys.stderr)
    return matrix


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _need(args: argparse.Namespace, parser_error, *names: str) -> list:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        parser_error("missing required option(s): "
                     + ", ".join(f"--{n}" for n in missing))
    return [getattr(args, n) for n in names]


_SIZED = ("hyperplane", "constant-first-row", "constant-two-rows",
          "two-constant-diag")


def _construct(args: argparse.Namespace, fail_usage) -> tuple:
    """Build the requested family member; returns (matrix, checker)."""
    fam = args.family
    if fam in _SIZED:
        (n,) = _need(args, fail_usage, "n")
        if n > MAX_DIMENSION:
            raise ResourceLimitError(
                f"--n {n} is beyond the dimension cap of {MAX_DIMENSION}")
    if fam == "hyperplane":
        basis = hyperplane.build(n)
        return basis.matrix, verify.check_hyperplane_basis
    if fam == "constant-first-row":
        return unitary.constant_first_row(n), verify.check_unitary
    if fam == "constant-two-rows":
        return unitary.constant_two_rows(n), verify.check_unitary
    if fam == "two-constant-diag":
        return unitary.two_constant_diag(n), verify.check_unitary
    if fam == "third-case":
        return unitary.third_case(), verify.check_unitary
    if fam == "block-pair":
        a_text, b_text, left, right = _need(
            args, fail_usage, "a", "b", "left", "right")
        form = (unitary.BlockForm.PLAIN if args.form == "plain"
                else unitary.BlockForm.BALANCED)
        matrix = unitary.block_pair(
            _read_matrix(left), _read_matrix(right),
            parse_scalar(a_text), parse_scalar(b_text), form)
        return matrix, verify.check_unitary
    if fam == "ap-two-tight":
        a_text, b_text = _need(args, fail_usage, "a", "b")
        return (two_tight.ap_two_tight(_rational(a_text), _rational(b_text)),
                verify.check_tight_frame)
    if fam == "weight-in-front":
        values_text, m = _need(args, fail_usage, "values", "m")
        values = [_rational(v) for v in values_text.split(",")]
        table = two_tight.make_two_row_table(values, _rational(m))
        return two_tight.weight_in_front(table), verify.check_tight_frame
    if fam == "abcd-outline":
        a, b, c, d = _need(args, fail_usage, "a", "b", "c", "d")
        table = two_tight.abcd_outline(*map(_rational, (a, b, c, d)))
        return two_tight.weight_in_front(table), verify.check_tight_frame
    if fam == "iterate-two-tight":
        left, right = _need(args, fail_usage, "left", "right")
        matrix = two_tight.iterate_two_tight(
            _read_matrix(left), _read_matrix(right))
        return matrix, verify.check_tight_frame
    if fam == "weave":
        coeffs_path, blocks = _need(args, fail_usage, "coeffs", "blocks")
        coeffs = unitary.WeaveCoefficients(_read_matrix(coeffs_path))
        matrix = unitary.weave(coeffs, [_read_matrix(p) for p in blocks])
        return matrix, verify.check_orthogonal_columns
    raise AssertionError(fam)


def _cmd_construct(args: argparse.Namespace, fail_usage) -> int:
    if args.family == "mub-r4":
        bases = unitary.mub_r4()
        for b in bases:
            report = verify.check_unitary(b)
            if not report.passed:
                print("internal invariant breach: a constructed basis "
                      "failed re-verification", file=sys.stderr)
                return BREACH
        if args.fmt == "exact-json":
            docs = [json.loads(io.serialize(b, "exact-json")) for b in bases]
            text = json.dumps({"matrices": docs},
                              separators=(",", ":"), sort_keys=True) + "\n"
        else:
            text = "\n".join(io.serialize(b, args.fmt) for b in bases)
        _emit(text, args.out)
        return OK
    matrix, checker = _construct(args, fail_usage)
    if args.normalize:
        matrix = matrix.normalize_rows()
    report = checker(matrix)
    if not report.passed:
        print("internal invariant breach: construction failed its own "
              f"checker: {json.dumps(report.to_json_dict())}",
              file=sys.stderr)
        return BREACH
    _emit(io.serialize(matrix, args.fmt), args.out)
    return OK


def _cmd_verify(args: argparse.Namespace, fail_usage) -> int:
    matrix = _read_matrix(args.file)
    if args.check == "unitary":
        report = verify.check_unitary(matrix)
    elif args.check == "tight":
        report = verify.check_tight_frame(matrix)
    elif args.check == "hyperplane":
        report = verify.check_hyperplane_basis(matrix)
    elif args.check == "orthogonal-columns":
        report = verify.check_orthogonal_columns(matrix)
    else:
        if not args.against:
            fail_usage("--check mub needs --against FILE")
        report = verify.check_unbiased_pair(matrix,
                                            _read_matrix(args.against))
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return OK if report.passed else FAILED


def _cmd_pave(args: argparse.Namespace) -> int:
    matrix = _read_matrix(args.file)
    if args.gram:
        gram = matrix
    else:
        report = verify.check_tight_frame(matrix)
        if not report.passed:
            print(json.dumps(report.to_json_dict(), sort_keys=True))
            return FAILED
        gram = paving.scaled_gram(matrix, report.k_value)
    result = paving.paving_epsilon(gram, sample=args.sample, seed=args.seed)
    print(json.dumps(result.to_json_dict(), sort_keys=True))
    return OK


def _cmd_errata() -> int:
    all_reproduced = True
    for finding in errata_mod.findings():
        all_reproduced &= finding.reproduced
        status = "reproduced" if finding.reproduced else "NOT REPRODUCED"
        print(f"[{finding.ident}] ({status})")
        print(f"  published: {finding.claim}")
        print(f"  verified:  {finding.actual}")
        print(f"  witness:   {finding.witness}")
    return OK if all_reproduced else FAILED


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    def fail_usage(message: str) -> None:
        parser.error(message)

    try:
        if args.command == "construct":
            return _cmd_construct(args, fail_usage)
        if args.command == "verify":
            return _cmd_verify(args, fail_usage)
        if args.command == "sparsity":
            print(_read_matrix(args.file).sparsity())
            return OK
        if args.command == "pave":
            return _cmd_pave(args)
        if args.command == "errata":
            return _cmd_errata()
    except (ExactFramesError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
