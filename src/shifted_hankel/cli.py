"""Command line driver.

Subcommands: moments (print sequence terms), poly (print a closed-form
polynomial), hankel (table of exact shifted determinants), verify (run a
named identity suite and report per-cell results), enumerate-pp (stream
bounded staircase plane partitions), bijection (map partitions to path
families and check the round trip).

All rationals cross the boundary as exact 'p/q' strings; output is byte
deterministic for identical invocations, with run metadata segregated
under a 'meta' key.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from functools import partial

from . import __version__
from .exact_core import B, Poly, _as_fraction, series_mul
from .hankel_identities import (
    PolyFamily,
    condensation_check,
    hankel_row,
    theorem10_check,
    verify_theorem,
)
from .ortho_moments import (
    SEQUENCE_FAMILIES,
    JacobiSpec,
    MomentSequence,
    gf_coeffs,
    param_seq,
    sequence_term,
    triangle_entry,
    verify_basis_expansion,
)
from .report import INDETERMINATE, PASS, VerificationReport
from .staircase_combinatorics import (
    count_nonintersecting_brute,
    count_pp,
    count_pp_vs_formulas,
    dyck_endpoints,
    dyck_to_pp,
    enumerate_pp,
    hv_endpoints,
    hv_to_pp,
    lgv_count,
    partition_to_text,
    path_to_text,
    pp_to_dyck,
    pp_to_hv,
)

MAX_INDEX = 64

_LIBRARY_SUITES = (
    "th1",
    "th2",
    "th4",
    "th5",
    "cor7",
    "lemma8",
    "eq1_6",
    "h1_equals_h0_shift",
)
_COMPOSITE_SUITES = (
    "th10",
    "condensation",
    "gf",
    "basis",
    "pp-count",
    "bijection-roundtrip",
)
ALL_SUITES = _LIBRARY_SUITES + _COMPOSITE_SUITES

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


# ---------------------------------------------------------------------------
# argument parsing


def parse_rational(text: str) -> Fraction:
    value = text.strip()
    if not _RATIONAL_RE.match(value):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational 'p' or 'p/q', got {text!r}"
        )
    num, _, den = value.partition("/")
    if den:
        if int(den) == 0:
            raise argparse.ArgumentTypeError("denominator must be nonzero")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def parse_range(text: str) -> tuple[int, int]:
    value = text.strip()
    if ".." in value:
        lo_s, _, hi_s = value.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected 'n' or 'lo..hi', got {text!r}"
            ) from None
    else:
        try:
            lo = hi = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected 'n' or 'lo..hi', got {text!r}"
            ) from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty or negative")
    if hi > MAX_INDEX:
        raise argparse.ArgumentTypeError(
            f"range {text!r} exceeds the hard cap {MAX_INDEX}"
        )
    return lo, hi


def _bounded_int(lo: int, what: str, hi: int | None = MAX_INDEX):
    """Parser for an integer in [lo, hi]; hi=None leaves it unbounded."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer, got {text!r}"
            ) from None
        if value < lo or (hi is not None and value > hi):
            span = f"be at least {lo}" if hi is None else f"lie in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(
                f"{what} must {span}, got {value}"
            )
        return value

    return parse


def _parse_poly_literal(text: str) -> Poly:
    """Polynomial in b: signed terms like '2', '-1/2*b', 'b^3', '3*b^2'."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise ValueError("empty polynomial literal")
    terms = re.findall(r"[+-]?[^+-]+", stripped)
    if "".join(terms) != stripped:
        raise ValueError(f"malformed polynomial literal {text!r}")
    total = Poly.const(0)
    for term in terms:
        sign = 1
        if term[0] == "+":
            term = term[1:]
        elif term[0] == "-":
            sign = -1
            term = term[1:]
        if "*" in term:
            coeff_s, var_s = term.split("*", 1)
        elif term.startswith("b"):
            coeff_s, var_s = "1", term
        else:
            coeff_s, var_s = term, ""
        if not _RATIONAL_RE.match(coeff_s):
            raise ValueError(f"bad coefficient in term {term!r}")
        coeff = Fraction(coeff_s)
        if var_s:
            match = re.fullmatch(r"b(?:\^(\d+))?", var_s)
            if not match:
                raise ValueError(f"bad variable part in term {term!r}")
            power = int(match.group(1)) if match.group(1) else 1
            total = total + sign * coeff * B**power
        else:
            total = total + Poly.const(sign * coeff)
    return total


def parse_jacobi_text(text: str) -> JacobiSpec:
    """Recurrence parameters as 's: [p0, p1, ...], tail; t: [...], tail'."""
    chunks = text.split(";")
    if len(chunks) != 2:
        raise ValueError(
            "recurrence text must be 's: [...], tail; t: [...], tail'"
        )

    def side(chunk: str, name: str):
        chunk = chunk.strip()
        if not chunk.startswith(name + ":"):
            raise ValueError(f"expected the {name!r} clause, got {chunk!r}")
        body = chunk[len(name) + 1 :].strip()
        if not body.startswith("[") or "]" not in body:
            raise ValueError(f"missing bracketed prefix in {chunk!r}")
        close = body.index("]")
        inner = body[1:close].strip()
        prefix = tuple(
            _parse_poly_literal(tok) for tok in inner.split(",") if tok.strip()
        )
        rest = body[close + 1 :].strip()
        if not rest.startswith(","):
            raise ValueError(f"missing tail value in {chunk!r}")
        tail = _parse_poly_literal(rest[1:].strip())
        return param_seq(prefix, tail)

    return JacobiSpec(side(chunks[0], "s"), side(chunks[1], "t"))


# ---------------------------------------------------------------------------
# composite verification suites


def _suite_condensation(n_max: int) -> VerificationReport:
    families = ("H", "Hb", "H2", "V", "h")
    report = VerificationReport(
        suite="condensation",
        grid={
            "n_max": n_max,
            "families": list(families),
            "k_column": "index into families",
        },
    )
    for idx, kind in enumerate(families):
        sub = condensation_check(kind, n_max)
        for cell in sub.cells:
            report.add(
                n=cell.n, k=idx, status=cell.status, lhs=cell.lhs, rhs=cell.rhs
            )
    return report


_FINE_ANCHOR = (1, 0, 1, 2, 6, 18, 57, 186)


def _suite_gf(order: int, b_values) -> VerificationReport:
    if b_values:
        params = tuple(_as_fraction(v) for v in b_values)
    else:
        params = (Fraction(-1), Fraction(2), Fraction(3))
    report = VerificationReport(
        suite="gf",
        grid={
            "order": order,
            "b_values": [str(v) for v in params],
            "sections": [
                "catalan-functional-equation",
                "fine-anchor",
                "coefficients-vs-moments",
            ],
            "k_column": "index into sections",
        },
    )
    series = gf_coeffs("catalan", order)
    squared = series_mul(series, series)
    for n in range(order):
        rhs = Fraction(1) if n == 0 else squared.coeffs[n - 1]
        report.add(
            n=n,
            k=0,
            ok=series.coeffs[n] == rhs,
            lhs=str(series.coeffs[n]),
            rhs=str(rhs),
        )
    for n, expected in enumerate(_FINE_ANCHOR):
        got = sequence_term("Mb", n, b=Fraction(-1))
        report.add(
            n=n, k=1, b=Fraction(-1), ok=got == expected,
            lhs=str(got), rhs=str(expected),
        )
    for bv in params:
        coeffs = gf_coeffs("Bb", order, b=bv)
        for n in range(order):
            want = sequence_term("Mb", n, b=bv)
            report.add(
                n=n, k=2, b=bv, ok=coeffs.coeffs[n] == want,
                lhs=str(coeffs.coeffs[n]), rhs=str(want),
            )
    return report


def _suite_basis(n_max: int) -> VerificationReport:
    sections = [
        "fibonacci",
        "lucas",
        "catalan-triangle-row-sums",
        "a046899-partial-sums",
    ]
    report = VerificationReport(
        suite="basis",
        grid={
            "n_max": n_max,
            "sections": sections,
            "k_column": "index into sections",
        },
    )
    for idx, kind in enumerate(("fibonacci", "lucas")):
        sub = verify_basis_expansion(kind, n_max)
        for cell in sub.cells:
            report.add(
                n=cell.n, k=idx, status=cell.status, lhs=cell.lhs, rhs=cell.rhs
            )
    for n in range(n_max + 1):
        row_sum = sum(
            triangle_entry("catalan_triangle", n, k) for k in range(n + 1)
        )
        want = sequence_term("catalan", n + 1)
        report.add(n=n, k=2, ok=row_sum == want, lhs=str(row_sum), rhs=str(want))
    for n in range(1, n_max + 1):
        row = [triangle_entry("a046899", n, j) for j in range(n + 1)]
        prev = [triangle_entry("a046899", n - 1, j) for j in range(n)]
        partial = []
        acc = 0
        for value in prev:
            acc += value
            partial.append(acc)
        partial.append(2 * partial[-1])
        report.add(
            n=n,
            k=3,
            ok=row == partial,
            lhs=",".join(str(v) for v in row),
            rhs=",".join(str(v) for v in partial),
        )
    return report


def _staircase_grid(suite: str, n_max: int, k_max: int) -> list:
    combos = [(n, k) for n in range(1, n_max + 1) for k in range(k_max + 1)]
    if not combos:
        raise ValueError(
            f"suite {suite} has an empty grid: n-max must be at least 1"
        )
    return combos


def _suite_pp_count(n_max: int, k_max: int) -> VerificationReport:
    combos = _staircase_grid("pp-count", n_max, k_max)
    results = [count_pp_vs_formulas(n, k) for n, k in combos]
    report = VerificationReport(
        suite="pp-count", grid={"n_max": n_max, "k_max": k_max}
    )
    for (n, k), sub in zip(combos, results):
        values = sub.grid["values"]
        rhs = ";".join(
            f"{name}={values[name]}"
            for name in ("product", "binomial_det", "hankel")
        )
        report.add(n=n, k=k, ok=sub.passed, lhs=values["enumeration"], rhs=rhs)
    return report


def _bijection_cell(n: int, k: int, cap: int):
    partitions = list(enumerate_pp(n, k))
    out = []
    for model in ("dyck", "hv"):
        encode = pp_to_dyck if model == "dyck" else pp_to_hv
        decode = dyck_to_pp if model == "dyck" else hv_to_pp
        images = set()
        roundtrip = True
        for p in partitions:
            family = encode(p)
            images.add(family)
            # an empty Dyck family carries no shape information to invert
            if model == "dyck" and k == 0:
                continue
            if decode(family) != p:
                roundtrip = False
        starts, ends = (
            dyck_endpoints(n, k) if model == "dyck" else hv_endpoints(n, k)
        )
        det_count = lgv_count(starts, ends, model)
        try:
            brute = count_nonintersecting_brute(starts, ends, model, cap=cap)
        except ValueError:
            brute = None
        ok = (
            roundtrip
            and len(images) == len(partitions) == det_count
            and (brute is None or brute == det_count)
        )
        lhs = f"images={len(images)},roundtrip={'ok' if roundtrip else 'fail'}"
        rhs = f"det={det_count},brute={'skipped' if brute is None else brute}"
        out.append((model, ok, lhs, rhs))
    return out


def _suite_bijection(n_max: int, k_max: int, cap: int) -> VerificationReport:
    combos = _staircase_grid("bijection-roundtrip", n_max, k_max)
    results = [_bijection_cell(n, k, cap) for n, k in combos]
    report = VerificationReport(
        suite="bijection-roundtrip",
        grid={
            "n_max": n_max,
            "k_max": k_max,
            "cap": cap,
            "models": ["dyck", "hv"],
        },
    )
    for (n, k), cells in zip(combos, results):
        for _model, ok, lhs, rhs in cells:
            report.add(n=n, k=k, ok=ok, lhs=lhs, rhs=rhs)
    return report


def run_suite(
    tag: str,
    n_max=None,
    k_max=None,
    b_values=None,
    cap: int = 100_000,
) -> VerificationReport:
    """Run one verification suite by tag and return its report."""
    if tag in _LIBRARY_SUITES:
        return verify_theorem(tag, n_max=n_max, k_max=k_max, b_values=b_values)
    if b_values is not None and tag != "gf":
        raise ValueError(f"suite {tag} does not take b values")
    if tag == "th10":
        return theorem10_check(
            8 if n_max is None else n_max, 6 if k_max is None else k_max
        )
    if tag == "condensation":
        return _suite_condensation(6 if n_max is None else n_max)
    if tag == "gf":
        return _suite_gf(20 if n_max is None else n_max, b_values)
    if tag == "basis":
        return _suite_basis(12 if n_max is None else n_max)
    if tag == "pp-count":
        return _suite_pp_count(
            5 if n_max is None else n_max, 4 if k_max is None else k_max
        )
    if tag == "bijection-roundtrip":
        return _suite_bijection(
            4 if n_max is None else n_max,
            3 if k_max is None else k_max,
            cap,
        )
    raise ValueError(f"unknown suite tag {tag!r}")


# ---------------------------------------------------------------------------
# output plumbing


def _render_value(value) -> str:
    if isinstance(value, Poly):
        return value.render()
    return str(Fraction(value))


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Fraction):
        return str(value)
    return value


def _meta() -> dict:
    return {"generator": "shifted-hankel", "version": __version__}


def _cell_sort_key(cell):
    return (
        cell.n is None,
        cell.n if cell.n is not None else 0,
        cell.k is None,
        cell.k if cell.k is not None else 0,
        cell.b is None,
        cell.b if cell.b is not None else "",
    )


def report_exit_code(report: VerificationReport) -> int:
    return 0 if report.passed else 1


def _report_payload(report: VerificationReport) -> dict:
    cells = sorted(report.cells, key=_cell_sort_key)
    npass, nfail = report.counts()
    summary = {"pass": npass, "fail": nfail}
    indeterminate = sum(1 for c in report.cells if c.status == INDETERMINATE)
    if indeterminate:
        summary["indeterminate"] = indeterminate
    return {
        "suite": report.suite,
        "grid": _jsonable(report.grid),
        "cells": [
            {
                "n": c.n,
                "k": c.k,
                "b": c.b,
                "status": c.status,
                "lhs": c.lhs,
                "rhs": c.rhs,
            }
            for c in cells
        ],
        "summary": summary,
        "meta": _meta(),
    }


def _report_text(report: VerificationReport) -> list[str]:
    npass, nfail = report.counts()
    lines = [
        f"suite: {report.suite}",
        f"grid: {json.dumps(_jsonable(report.grid), sort_keys=True)}",
    ]
    for cell in sorted(report.cells, key=_cell_sort_key):
        if cell.status != PASS:
            lines.append(
                f"{cell.status.upper()} n={cell.n} k={cell.k} b={cell.b}: "
                f"{cell.lhs} != {cell.rhs}"
            )
    lines.append(f"cells: {npass} pass, {nfail} fail")
    lines.append("result: " + ("PASS" if report.passed else "FAIL"))
    return lines


def _report_csv(report: VerificationReport) -> list[list[str]]:
    rows = [["suite", "n", "k", "b", "status", "lhs", "rhs"]]
    for c in sorted(report.cells, key=_cell_sort_key):
        rows.append(
            [
                report.suite,
                "" if c.n is None else str(c.n),
                "" if c.k is None else str(c.k),
                "" if c.b is None else c.b,
                c.status,
                c.lhs,
                c.rhs,
            ]
        )
    return rows


def _write(args, *, text, json_obj, csv_rows):
    """Build and write only the format args.format names.

    Each keyword is a zero-argument builder: text returns the lines,
    json_obj the object to dump and csv_rows the rows.
    """
    if args.format == "json":
        content = json.dumps(json_obj(), indent=2) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerows(csv_rows())
        content = buffer.getvalue()
    else:
        lines = text()
        content = "\n".join(lines) + "\n" if lines else ""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(content)
    else:
        sys.stdout.write(content)


# ---------------------------------------------------------------------------
# subcommand handlers


def _sequence_from_args(args) -> MomentSequence:
    if args.family == "jacobi":
        if not args.jacobi:
            raise ValueError("family 'jacobi' requires --jacobi SPEC")
        return MomentSequence.from_jacobi(parse_jacobi_text(args.jacobi))
    return MomentSequence(args.family, b=args.b)


def _cmd_moments(args) -> int:
    seq = _sequence_from_args(args)
    rendered = [_render_value(seq.term(n)) for n in range(args.count)]
    b_text = None if args.b is None else str(args.b)
    spec = {"spec": args.jacobi} if args.family == "jacobi" else {}
    _write(
        args,
        text=lambda: [" ".join(rendered)],
        json_obj=lambda: {
            "family": args.family,
            "b": b_text,
            "count": args.count,
            "terms": rendered,
            "meta": _meta(),
            **spec,
        },
        csv_rows=lambda: [["family", "n", "b", "value"]]
        + [
            [args.family, str(n), b_text or "", value]
            for n, value in enumerate(rendered)
        ],
    )
    return 0


def _cmd_poly(args) -> int:
    rendered = PolyFamily(args.which).member(args.n).render()
    _write(
        args,
        text=lambda: [rendered],
        json_obj=lambda: {
            "which": args.which,
            "n": args.n,
            "poly": rendered,
            "meta": _meta(),
        },
        csv_rows=lambda: [
            ["which", "n", "poly"],
            [args.which, str(args.n), rendered],
        ],
    )
    return 0


def _aligned(rows: list[list[str]]) -> list[str]:
    widths = [max(map(len, column)) for column in zip(*rows)]
    return [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def _cmd_hankel(args) -> int:
    seq = _sequence_from_args(args)
    ns = range(args.n[0], args.n[1] + 1)
    ks = range(args.k[0], args.k[1] + 1)
    table = [[_render_value(v) for v in hankel_row(seq, n, ks)] for n in ns]
    b_text = None if args.b is None else str(args.b)
    _write(
        args,
        text=lambda: _aligned(
            [["n\\k"] + [str(k) for k in ks]]
            + [[str(n)] + row for n, row in zip(ns, table)]
        ),
        json_obj=lambda: {
            "family": args.family,
            "b": b_text,
            "n": list(args.n),
            "k": list(args.k),
            "values": table,
            "meta": _meta(),
        },
        csv_rows=lambda: [["family", "n", "k", "b", "value"]]
        + [
            [args.family, str(n), str(k), b_text or "", value]
            for n, row in zip(ns, table)
            for k, value in zip(ks, row)
        ],
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(
        args.suite,
        n_max=args.n_max,
        k_max=args.k_max,
        b_values=tuple(args.b) if args.b else None,
        cap=args.cap,
    )
    _write(
        args,
        text=partial(_report_text, report),
        json_obj=partial(_report_payload, report),
        csv_rows=partial(_report_csv, report),
    )
    return report_exit_code(report)


def _cmd_enumerate_pp(args) -> int:
    n, k = args.n, args.k
    listed = []
    if args.list:
        listed = [partition_to_text(p) for p in enumerate_pp(n, k)]
    count = len(listed) if args.list else count_pp(n, k)
    listing = {"partitions": listed} if args.list else {}
    _write(
        args,
        text=lambda: [f"count: {count}"]
        + [line or "(empty)" for line in listed],
        json_obj=lambda: {
            "n": n, "k": k, "count": count, **listing, "meta": _meta()
        },
        csv_rows=lambda: (
            [["n", "k", "partition"]]
            + [[str(n), str(k), line] for line in listed]
            if args.list
            else [["n", "k", "count"], [str(n), str(k), str(count)]]
        ),
    )
    return 0


def _cmd_bijection(args) -> int:
    encode = pp_to_dyck if args.which == "dyck" else pp_to_hv
    decode = dyck_to_pp if args.which == "dyck" else hv_to_pp
    failures = 0

    def cells():
        # (partition, image, status) per partition, produced while the one
        # requested format is built, so no other form is ever held.
        nonlocal failures
        for p in enumerate_pp(args.n, args.k):
            family = encode(p)
            if args.which == "dyck" and args.k == 0:
                ok = True
            else:
                try:
                    ok = decode(family) == p
                except ValueError:
                    ok = False
            failures += not ok
            yield (
                partition_to_text(p),
                ";".join(path_to_text(path) for path in family.paths),
                "ok" if ok else "fail",
            )

    n_text, k_text = str(args.n), str(args.k)
    _write(
        args,
        text=lambda: [
            f"{ptext or '(empty)'} -> {ftext or '(no paths)'} [{status}]"
            for ptext, ftext, status in cells()
        ],
        json_obj=lambda: {
            "n": args.n,
            "k": args.k,
            "model": args.which,
            "cells": [
                {"partition": ptext, "image": ftext, "status": status}
                for ptext, ftext, status in cells()
            ],
            "meta": _meta(),
        },
        csv_rows=lambda: [["n", "k", "model", "partition", "image", "status"]]
        + [
            [n_text, k_text, args.which, ptext, ftext, status]
            for ptext, ftext, status in cells()
        ],
    )
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shifted-hankel",
        description=(
            "Exact shifted Hankel determinants, closed-form polynomial "
            "families, and staircase plane partition combinatorics."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    common.add_argument("--output", metavar="PATH")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    family_choices = SEQUENCE_FAMILIES + ("jacobi",)

    moments = sub.add_parser(
        "moments", parents=[common], help="print leading sequence terms"
    )
    moments.add_argument("--family", required=True, choices=family_choices)
    moments.add_argument("--b", type=parse_rational)
    moments.add_argument("--jacobi", metavar="SPEC")
    moments.add_argument(
        "--count", type=_bounded_int(1, "count"), default=8
    )

    poly = sub.add_parser(
        "poly", parents=[common], help="print a closed-form polynomial"
    )
    poly.add_argument(
        "--which", required=True, choices=("H", "Hb", "H2", "V", "h")
    )
    poly.add_argument("--n", required=True, type=_bounded_int(0, "n"))

    hankel = sub.add_parser(
        "hankel", parents=[common], help="table of exact shifted determinants"
    )
    hankel.add_argument("--family", required=True, choices=family_choices)
    hankel.add_argument("--b", type=parse_rational)
    hankel.add_argument("--jacobi", metavar="SPEC")
    hankel.add_argument("--n", required=True, type=parse_range)
    hankel.add_argument("--k", required=True, type=parse_range)

    verify = sub.add_parser(
        "verify", parents=[common], help="run a verification suite"
    )
    verify.add_argument("--suite", required=True, choices=ALL_SUITES)
    verify.add_argument("--n-max", dest="n_max", type=_bounded_int(0, "n-max"))
    verify.add_argument("--k-max", dest="k_max", type=_bounded_int(0, "k-max"))
    verify.add_argument("--b", action="append", type=parse_rational)
    verify.add_argument(
        "--cap", type=_bounded_int(0, "cap", hi=None), default=100_000
    )

    enum_pp = sub.add_parser(
        "enumerate-pp",
        parents=[common],
        help="count (and list) bounded staircase plane partitions",
    )
    enum_pp.add_argument("--n", required=True, type=_bounded_int(1, "n"))
    enum_pp.add_argument("--k", required=True, type=_bounded_int(0, "k"))
    enum_pp.add_argument("--list", action="store_true")

    bijection = sub.add_parser(
        "bijection",
        parents=[common],
        help="map partitions to path families and check the round trip",
    )
    bijection.add_argument("--n", required=True, type=_bounded_int(1, "n"))
    bijection.add_argument("--k", required=True, type=_bounded_int(0, "k"))
    bijection.add_argument("--which", required=True, choices=("dyck", "hv"))

    return parser


_HANDLERS = {
    "moments": _cmd_moments,
    "poly": _cmd_poly,
    "hankel": _cmd_hankel,
    "verify": _cmd_verify,
    "enumerate-pp": _cmd_enumerate_pp,
    "bijection": _cmd_bijection,
}


def _merge_rational_flags(argv) -> list[str]:
    # argparse reads "-3/2" as an option name; fuse "--b -3/2" into "--b=-3/2"
    merged = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token == "--b"
            and i + 1 < len(argv)
            and _RATIONAL_RE.match(argv[i + 1].strip())
        ):
            merged.append(f"--b={argv[i + 1]}")
            i += 2
            continue
        merged.append(token)
        i += 1
    return merged


def run(argv) -> int:
    """Parse argv and execute; 0 success, 1 verification failure, 2 usage."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_rational_flags(list(argv)))
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _HANDLERS[args.subcommand](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
