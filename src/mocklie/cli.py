"""Command-line front end.

Verbs: check, subadjacent, semidirect, double, classify, iso, table.
Exit codes: 0 = pass/success, 1 = a check ran and failed, 2 = usage, IO,
parse or shape errors: any ``MockLieError``, ``CliError`` included, which
``main`` reports as one ``error:`` line.  All outputs are deterministic JSON
except ``table``, which renders a human-readable multiplication table.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog
from .algebra import DEFAULT_MAX_WITNESSES, check_identity, sub_adjacent
from .classify import DEFAULT_MAX_SCAN, classify, find_isomorphism
from .doubles import (
    assemble_jj_double,
    assemble_prejj_double,
    check_invariance,
    conformance_diff,
)
from .errors import MockLieError, PreconditionError
from .fields import PrimeField, QQ
from .formats import (
    algebra_from_json,
    algebra_to_json,
    bimodule_from_json,
    census_to_json,
    coerce_algebra,
    double_to_json,
    dumps,
    field_to_json,
    matrix_to_json,
    rep_from_json,
    report_to_json,
    table_fixture_from_json,
)
from .reps import jj_semidirect, prejj_semidirect

IDENTITY_ALIASES = {
    "antiassoc": "antiassociative",
    "antiassociative": "antiassociative",
    "left-prejj": "left_pre_jj",
    "left_pre_jj": "left_pre_jj",
    "right-prejj": "right_pre_jj",
    "right_pre_jj": "right_pre_jj",
    "jj": "jj",
    "operad": "operad",
}


class CliError(MockLieError):
    """A refused argument, or a file that cannot be read, parsed or written."""


def _parse_field(text):
    if text is None:
        return None
    if text == "rational":
        return QQ
    kind, _, modulus = text.partition(":")
    if kind == "prime" and modulus.strip().isdecimal():
        try:
            p = int(modulus)
        except ValueError:
            raise CliError(f"--field modulus has {len(modulus)} digits, too many") from None
        return PrimeField(p)
    raise CliError(f"bad --field value {text!r}; use 'rational' or 'prime:P'")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"{path}: no such file") from None
    except OSError as exc:
        raise CliError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise CliError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:
        # int() refuses integer literals past the interpreter's digit limit
        raise CliError(f"{path}: integer has too many digits") from None
    except RecursionError:
        raise CliError(f"{path}: arrays or objects nested too deeply") from None


def _parse(path, parse, obj, *args):
    """``parse(obj, *args)``, with a malformed document reported against ``path``."""
    try:
        return parse(obj, *args)
    except MockLieError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_algebra(path, field_text):
    field = _parse_field(field_text)
    alg = _parse(path, algebra_from_json, _load_json(path))
    if field is not None:
        alg = _parse(path, coerce_algebra, alg, field)
    return alg


def _write(path, text):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"{path}: cannot write: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _report_doc(command, args_echo, payload):
    doc = {"schema_version": 1, "command": command, "arguments": args_echo}
    doc.update(payload)
    return doc


def _witness_cap(args):
    # a failing report always carries a witness, so a cap below 1 is refused
    if args.max_witnesses < 1:
        raise CliError(f"--max-witnesses must be at least 1, got {args.max_witnesses}")
    return args.max_witnesses


def cmd_check(args):
    cap = _witness_cap(args)
    kind = IDENTITY_ALIASES.get(args.identity)
    if kind is None:
        raise CliError(f"unknown identity {args.identity!r}")
    alg = _load_algebra(args.file, args.field)
    report = check_identity(alg, kind, max_witnesses=cap)
    doc = _report_doc(
        "check",
        {"file": args.file, "identity": kind},
        {"field": field_to_json(alg.field), **report_to_json(report, alg.field)},
    )
    _write(args.out, dumps(doc))
    return 0 if report.passed else 1


def cmd_subadjacent(args):
    alg = _load_algebra(args.file, args.field)
    result = sub_adjacent(alg, halved=args.halved)
    _write(args.out, dumps(algebra_to_json(result)))
    return 0


def cmd_semidirect(args):
    obj = _load_json(args.file)
    if args.jj or isinstance(obj, dict) and "rho" in obj:
        rep = _parse(args.file, rep_from_json, obj)
        try:
            result = jj_semidirect(rep)
        except PreconditionError as exc:
            name, report = exc.failures[0]
            doc = _report_doc(
                "semidirect",
                {"file": args.file, "jj": True},
                {"error": str(exc),
                 "precondition": report_to_json(report, rep.algebra.field)},
            )
            _write(args.out, dumps(doc))
            return 1
    else:
        result = prejj_semidirect(_parse(args.file, bimodule_from_json, obj))
    _write(args.out, dumps(algebra_to_json(result)))
    return 0


def cmd_double(args):
    cap = _witness_cap(args)
    primal = _load_algebra(args.file_a, args.field)
    dual = _load_algebra(args.file_astar, args.field)
    if args.kind == "jj":
        double = assemble_jj_double(primal, dual)
    else:
        double = assemble_prejj_double(primal, dual)
    invariance = check_invariance(double, max_witnesses=cap)
    conformance = None
    if args.conformance:
        path = args.conformance
        if path in catalog.CASE_NAMES:
            path = catalog.case_table_path(path)
        table = _parse(path, table_fixture_from_json, _load_json(path), primal.field)
        conformance = _parse(path, conformance_diff, double, table)
    _write(args.out, dumps(double_to_json(double, invariance, conformance)))
    return 0 if invariance.passed else 1


def cmd_classify(args):
    # 0 stays the solver's own refusal: every search tries at least one value
    if args.max_scan < 0:
        raise CliError(f"--max-scan must be non-negative, got {args.max_scan}")
    field = PrimeField(args.prime)
    census = classify(args.dim, field, IDENTITY_ALIASES.get(args.kind, args.kind),
                      max_scan=args.max_scan)
    _write(args.out, dumps(census_to_json(census)))
    return 0


def cmd_iso(args):
    a = _load_algebra(args.file_a, args.field)
    b = _load_algebra(args.file_b, args.field)
    iso = find_isomorphism(a, b, bound=args.bound)
    doc = _report_doc(
        "iso",
        {"file_a": args.file_a, "file_b": args.file_b},
        {
            "found": iso is not None,
            "matrix": matrix_to_json(iso) if iso is not None else None,
        },
    )
    _write(args.out, dumps(doc))
    return 0 if iso is not None else 1


def _coefficient_text(field, vec, labels):
    one = field.one
    terms = []
    for x, label in zip(vec, labels):
        if x == field.zero:
            continue
        if x == one:
            terms.append(label)
        else:
            text = field.render(x)
            if " mod " in text:
                text = text.split(" mod ")[0]
            terms.append(f"{text}*{label}")
    return " + ".join(terms) if terms else "0"


def cmd_table(args):
    alg = _load_algebra(args.file, args.field)
    lines = [f"dim {alg.dim} over {alg.field!r}"]
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = f"{alg.labels[i]}*{alg.labels[j]}"
            lines.append(f"{lhs} = {_coefficient_text(alg.field, alg.c[i][j], alg.labels)}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser():
    parser = argparse.ArgumentParser(
        prog="mocklie",
        description="Exact checks and constructions for Jacobi-Jordan and "
                    "pre-Jacobi-Jordan algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, field=True, witnesses=False):
        if field:
            p.add_argument("--field", help="reinterpret scalars: 'rational' or 'prime:P'")
        p.add_argument("--out", help="output path (stdout when omitted)")
        if witnesses:
            p.add_argument("--max-witnesses", type=int, default=DEFAULT_MAX_WITNESSES)

    p = sub.add_parser("check", help="check a defining identity")
    p.add_argument("file")
    p.add_argument("--identity", required=True,
                   help="antiassoc | left-prejj | right-prejj | jj | operad")
    common(p, witnesses=True)
    p.set_defaults(run=cmd_check)

    p = sub.add_parser("subadjacent", help="anticommutator algebra")
    p.add_argument("file")
    p.add_argument("--halved", action="store_true",
                   help="use (xy+yx)/2 instead of xy+yx")
    common(p)
    p.set_defaults(run=cmd_subadjacent)

    p = sub.add_parser("semidirect", help="semidirect sum from a container file")
    p.add_argument("file", help="bimodule container {algebra, l, r} or "
                                "representation container {algebra, rho}")
    p.add_argument("--jj", action="store_true",
                   help="treat the container as a JJ representation")
    common(p, field=False)
    p.set_defaults(run=cmd_semidirect)

    p = sub.add_parser("double", help="double construction on A + A*")
    p.add_argument("file_a")
    p.add_argument("file_astar")
    p.add_argument("--kind", choices=("prejj", "jj"), default="prejj")
    p.add_argument("--conformance",
                   help="fixture table to diff against: a path, or one of "
                        f"{', '.join(catalog.CASE_NAMES)}")
    common(p, witnesses=True)
    p.set_defaults(run=cmd_double)

    p = sub.add_parser("classify", help="census of solutions over GF(p)")
    p.add_argument("--dim", type=int, required=True, choices=(1, 2))
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--kind", default="antiassoc")
    p.add_argument("--max-scan", type=int, default=DEFAULT_MAX_SCAN,
                   help="bound on the (variable, value) assignments the solver tries")
    common(p, field=False)
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("iso", help="search for a basis change mapping A onto B")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--bound", type=int, default=2,
                   help="entry bound for the integer matrices searched over "
                        "the rationals")
    common(p)
    p.set_defaults(run=cmd_iso)

    p = sub.add_parser("table", help="render the multiplication table")
    p.add_argument("file")
    common(p)
    p.set_defaults(run=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except MockLieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
