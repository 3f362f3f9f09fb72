"""Command line interface.

Subcommands: construct, verify, sparsity, pave, errata; each
subparser names the function that runs it.  Exit codes: 0 success /
property holds, 1 verification failure, 2 usage error, 3 internal
invariant breach (a constructed matrix failed its own re-verification
before emission).

``_FAMILIES`` gives each construct family its builder and the verify
check that re-certifies what it builds; ``_CHECKS`` gives each
``--check`` name its verify check.  The argparse choices are read from
these two tables.  Every construction, the three bases of mub-r4
included, is built, row-normalized on request, re-checked and written.

Exact scalar parameters are given in the scalar text grammar
(e.g. ``2/3`` or ``1/2*sqrt(5)``); floats are rejected so nothing
inexact can enter a construction.  The rational flags (``--a`` and
``--b`` of ap-two-tight and abcd-outline, ``--c``, ``--d``, ``--m`` and
each ``--values`` item) take the same grammar and must be rational.

The argument parser is built once per process, on the first ``main``
call, and reused: building it costs about 1 ms, more than the work of
a small ``verify`` job, and callers such as the benchmark and the tests
run ``main`` many times in one process.  Each ``parse_args`` starts
from a fresh namespace, so no option of one call reaches the next.
The parser holds the ``_cmd_*`` functions, which look their modules'
functions up when called.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache, partial
from typing import Sequence

from exactframes import errata as errata_mod
from exactframes import hyperplane, io, paving, two_tight, unitary, verify
from exactframes.errors import (DomainError, ExactFramesError, ParseError,
                                ResourceLimitError)
from exactframes.matrices import ExactMatrix
from exactframes.radicals import _quote, parse_scalar

OK, FAILED, USAGE, BREACH = 0, 1, 2, 3

# Largest --n of the sized families.  two-constant-diag, the costliest,
# takes about 5.7 s and 154 MiB to construct, re-check and write at
# n = 1024 (Python 3.11, 2-CPU Xeon), of which 0.11 s is the writing.
MAX_DIMENSION = 1024


def _rational(text: str) -> Fraction:
    """A rational flag, read in the scalar text grammar."""
    try:
        return parse_scalar(text).as_fraction()
    except (ParseError, DomainError) as exc:
        raise ParseError(f"{_quote(text)} is not a rational (use p or p/q; "
                         f"floats are not accepted): {exc}") from None


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactframes",
        description="Exact construction and certification of unitary "
                    "matrices and tight frames.")
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser(
        "construct", help="build a matrix family member and emit it")
    con.set_defaults(run=_cmd_construct)
    con.add_argument("family", choices=list(_FAMILIES))
    con.add_argument("--n", type=int, help="dimension for sized families")
    con.add_argument("--a", help="scalar parameter (text grammar)")
    con.add_argument("--b", help="scalar parameter (text grammar)")
    con.add_argument("--c", help="rational parameter")
    con.add_argument("--d", help="rational parameter")
    con.add_argument("--values", help="comma-separated rationals")
    con.add_argument("--m", help="table column pair sum (rational)")
    con.add_argument("--form", choices=[f.value for f in unitary.BlockForm],
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
    ver.set_defaults(run=_cmd_verify)
    ver.add_argument("file", help="matrix file (exact-json or csv)")
    ver.add_argument("--check", required=True, choices=list(_CHECKS))
    ver.add_argument("--against",
                     help="second matrix file for the mub check")

    spa = sub.add_parser("sparsity", help="count nonzero entries")
    spa.set_defaults(run=_cmd_sparsity)
    spa.add_argument("file")

    pav = sub.add_parser(
        "pave", help="search 2-pavings of a tight frame's Gram projection")
    pav.set_defaults(run=_cmd_pave)
    pav.add_argument("file", help="frame matrix file")
    pav.add_argument("--gram", action="store_true",
                     help="treat the input as the projection itself")
    pav.add_argument("--sample", type=int,
                     help="random partitions to try instead of all")
    pav.add_argument("--seed", type=int, default=0)

    era = sub.add_parser("errata", help="print the verified discrepancies "
                                        "between the published "
                                        "constructions and exact arithmetic")
    era.set_defaults(run=_cmd_errata)
    return parser


def _read_matrix(path: str) -> ExactMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    notes: list[str] = []
    matrix = io.deserialize(text, notes)
    sys.stderr.write("".join(f"note: {path}: {note}\n" for note in notes))
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


def _sized(build):
    """The builder of a family sized by ``--n``, under MAX_DIMENSION."""
    def sized(args: argparse.Namespace, need):
        (n,) = need("n")
        if n > MAX_DIMENSION:
            raise ResourceLimitError(
                f"--n {n} is beyond the dimension cap of {MAX_DIMENSION}")
        return build(n)
    return sized


def _block_pair(args: argparse.Namespace, need) -> ExactMatrix:
    a, b, left, right = need("a", "b", "left", "right")
    return unitary.block_pair(_read_matrix(left), _read_matrix(right),
                              parse_scalar(a), parse_scalar(b),
                              unitary.BlockForm(args.form))


def _weight_in_front(args: argparse.Namespace, need) -> ExactMatrix:
    values, m = need("values", "m")
    return two_tight.weight_in_front(two_tight.make_two_row_table(
        [_rational(v) for v in values.split(",")], _rational(m)))


def _weave(args: argparse.Namespace, need) -> ExactMatrix:
    coeffs, blocks = need("coeffs", "blocks")
    return unitary.weave(unitary.WeaveCoefficients(_read_matrix(coeffs)),
                         [_read_matrix(p) for p in blocks])


# Each construct family, in --help order: its builder, called with the
# arguments and the reader of required options, and the name of the
# verify check that re-certifies what it built.  Builders and checks
# look module functions up when called, so that rebinding a module
# attribute (a tracer, a test's stand-in) reaches them.
_FAMILIES = {
    "hyperplane": (_sized(lambda n: hyperplane.build(n).matrix),
                   "check_hyperplane_basis"),
    "constant-first-row": (_sized(lambda n: unitary.constant_first_row(n)),
                           "check_unitary"),
    "constant-two-rows": (_sized(lambda n: unitary.constant_two_rows(n)),
                          "check_unitary"),
    "two-constant-diag": (_sized(lambda n: unitary.two_constant_diag(n)),
                          "check_unitary"),
    "third-case": (lambda args, need: unitary.third_case(), "check_unitary"),
    "block-pair": (_block_pair, "check_unitary"),
    # a bundle of three bases, each re-certified and emitted
    "mub-r4": (lambda args, need: unitary.mub_r4(), "check_unitary"),
    "ap-two-tight": (lambda args, need: two_tight.ap_two_tight(
        *map(_rational, need("a", "b"))), "check_tight_frame"),
    "weight-in-front": (_weight_in_front, "check_tight_frame"),
    "abcd-outline": (lambda args, need: two_tight.weight_in_front(
        two_tight.abcd_outline(*map(_rational, need("a", "b", "c", "d")))),
        "check_tight_frame"),
    "iterate-two-tight": (lambda args, need: two_tight.iterate_two_tight(
        *map(_read_matrix, need("left", "right"))), "check_tight_frame"),
    "weave": (_weave, "check_orthogonal_columns"),
}

# Each --check, in --help order: the name of its verify check, and
# whether that check compares the file with the --against file.
_CHECKS = {"unitary": ("check_unitary", False),
           "tight": ("check_tight_frame", False),
           "hyperplane": ("check_hyperplane_basis", False),
           "orthogonal-columns": ("check_orthogonal_columns", False),
           "mub": ("check_unbiased_pair", True)}


def _cmd_construct(args: argparse.Namespace, fail_usage) -> int:
    build, check = _FAMILIES[args.family]
    built = build(args, partial(_need, args, fail_usage))
    bundle = isinstance(built, tuple)
    matrices = built if bundle else (built,)
    if args.normalize:
        matrices = tuple(m.normalize_rows() for m in matrices)
    for matrix in matrices:
        report = getattr(verify, check)(matrix)
        if not report.passed:
            print("internal invariant breach: construction failed its own "
                  f"checker: {json.dumps(report.to_json_dict())}",
                  file=sys.stderr)
            return BREACH
    texts = [io.serialize(m, args.fmt) for m in matrices]
    if not bundle:
        (text,) = texts
    elif args.fmt == "exact-json":
        text = json.dumps({"matrices": [json.loads(t) for t in texts]},
                          separators=(",", ":"), sort_keys=True) + "\n"
    else:
        text = "\n".join(texts)
    _emit(text, args.out)
    return OK


def _cmd_verify(args: argparse.Namespace, fail_usage) -> int:
    check, paired = _CHECKS[args.check]
    matrices = [_read_matrix(args.file)]
    if paired:
        if not args.against:
            fail_usage(f"--check {args.check} needs --against FILE")
        matrices.append(_read_matrix(args.against))
    report = getattr(verify, check)(*matrices)
    print(json.dumps(report.to_json_dict(), sort_keys=True))
    return OK if report.passed else FAILED


def _cmd_sparsity(args: argparse.Namespace, fail_usage) -> int:
    print(_read_matrix(args.file).sparsity())
    return OK


def _cmd_pave(args: argparse.Namespace, fail_usage) -> int:
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


def _cmd_errata(args: argparse.Namespace, fail_usage) -> int:
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
    try:
        return args.run(args, parser.error)
    except (ExactFramesError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
