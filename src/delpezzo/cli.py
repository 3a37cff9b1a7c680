"""Command-line interface: exact text/JSON front end for the library.

Every subcommand is a thin adapter over one library operation; all output is
deterministic.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import DelPezzoError, Infeasible, InvalidWeight, ParseError
from .hilbert import (
    DeltaVector,
    assemble_series,
    orbifold_contribution,
    parse_rational_function,
)
from .quiver import delta_lattice, residual_quiver
from .reconstruct import (
    analyze_series,
    count_bound,
    degree_bounds,
    enumerate_reduced_baskets,
)
from .singularity import SINGULARITY_TEXT, Singularity, basket, residue


# ---------------------------------------------------------------------------
# formatting helpers


def fmt_frac(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fmt_poly(coeffs) -> str:
    """Ascending-degree polynomial text, e.g. `t - 2*t^2 + t^3`."""
    pieces = []
    for deg, c in enumerate(coeffs):
        if c == 0:
            continue
        if deg == 0:
            mono = fmt_frac(abs(c))
        else:
            t = "t" if deg == 1 else f"t^{deg}"
            mono = t if abs(c) == 1 else f"{fmt_frac(abs(c))}*{t}"
        sign = "-" if c < 0 else "+"
        pieces.append((sign, mono))
    if not pieces:
        return "0"
    first_sign, first = pieces[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, mono in pieces[1:]:
        out += f" {sign} {mono}"
    return out


def fmt_rational_function(rf) -> str:
    return f"({fmt_poly(rf.num)})/({fmt_poly(rf.den)})"


def fmt_delta(dv: DeltaVector, full: bool = False) -> str:
    entries = dv.full() if full else dv.entries
    return "(" + ",".join(str(x) for x in entries) + ")"


def fmt_contribution(dv: DeltaVector) -> str:
    """Uncancelled display (delta_1 t + ...)/(l*(1 - t^l))."""
    ell = dv.local_index
    return f"({fmt_poly((0, *dv.entries))})/({ell}*(1 - t^{ell}))"


def fmt_basket(b) -> str:
    return ", ".join(str(s) for s in b) if b else "{}"


def fmt_terms(rf, count: int) -> str:
    return "terms=[" + ", ".join(fmt_frac(c) for c in rf.series_coefficients(count)) + "]"


# ---------------------------------------------------------------------------
# input parsing


def parse_basket_text(text: str):
    matches = list(SINGULARITY_TEXT.finditer(text))
    leftover = "".join(SINGULARITY_TEXT.sub("", text).split())
    if leftover.strip("{},"):
        raise ParseError(f"cannot parse basket {text!r}")
    return basket(Singularity.parse(m.group(0)) for m in matches)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {text!r}") from exc


# an integer argument: ASCII digits 0-9, a minus sign where negatives are valid
INTEGER_TEXT = re.compile(r" *(-?)([0-9]+) *")


def ascii_int(text: str, signed: bool) -> int:
    """The integer spelled by text; ValueError for any other text."""
    m = INTEGER_TEXT.fullmatch(text)
    if not m or (m.group(1) and not signed):
        raise ValueError(f"not an integer in the digits 0-9: {text!r}")
    return int(m.group(1) + m.group(2))


def int_at_least(low: int):
    """argparse type for integers >= low; other values are usage errors."""

    def integer(text: str) -> int:
        value = ascii_int(text, signed=low < 0)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value

    return integer


def parse_delta_entries(text: str):
    try:
        return tuple(ascii_int(x, signed=True) for x in text.replace("(", "").replace(")", "").split(","))
    except ValueError as exc:
        raise ParseError(f"cannot parse delta-vector {text!r}") from exc


# ---------------------------------------------------------------------------
# JSON schema


def schema(
    local_index=0,
    delta=(),
    baskets=(),
    rk_squared=(),
    verdict="OK",
    bounds=None,
):
    return {
        "localIndex": local_index,
        "delta": list(delta),
        "baskets": [[str(s) for s in b] for b in baskets],
        "rkSquared": [fmt_frac(r) for r in rk_squared],
        "verdict": verdict,
        "bounds": (
            {"m": fmt_frac(bounds[0]), "M": fmt_frac(bounds[1])}
            if bounds is not None
            else None
        ),
    }


def emit(args, payload: dict, lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_contrib(args) -> int:
    s = Singularity.parse(args.singularity)
    if s.is_smooth:
        raise InvalidWeight(f"{s} is the smooth point: no orbifold contribution")
    dv = orbifold_contribution(s)
    lines = [
        f"delta={fmt_delta(dv, args.full_delta)}",
        f"Q={fmt_contribution(dv)}",
    ]
    if args.terms:
        lines.append(fmt_terms(dv.rational_function(), args.terms))
    emit(args, schema(dv.local_index, dv.entries), lines)
    return 0


def cmd_series(args) -> int:
    b = parse_basket_text(args.basket)
    k2 = parse_fraction(args.k2)
    h = assemble_series(b, k2)
    lines = [f"K2={fmt_frac(k2)}", f"H={fmt_rational_function(h.series)}"]
    if args.terms:
        lines.append(fmt_terms(h.series, args.terms))
    emit(args, schema(0, (), [b], verdict="OK"), lines)
    return 0


def cmd_residue(args) -> int:
    s = Singularity.parse(args.singularity)
    res, t_parts = residue(s)
    lines = [f"residue={res if res is not None else 'none'}"]
    for part in t_parts:
        lines.append(f"T: d={part.d} n={part.n} c={part.c}")
    emit(
        args,
        schema(s.local_index, baskets=[(res,)] if res is not None else []),
        lines,
    )
    return 0


def cmd_quiver(args) -> int:
    q = residual_quiver(args.local_index)
    cycle = " -> ".join(str(v) for v in q.vertices)
    if q.vertices:
        cycle += f" -> {q.vertices[0]}"
    lines = [cycle if cycle else "(empty)"]
    payload = schema(args.local_index, baskets=[q.vertices])
    emit(args, payload, lines)
    return 0


def cmd_delta_rank(args) -> int:
    ell = args.local_index
    lat = delta_lattice(ell)
    phi = len(residual_quiver(ell).vertices)
    ok = "OK" if 2 * lat.rank == phi else "MISMATCH"
    line = f"rank={lat.rank} phi/2={phi // 2} {ok}"
    emit(args, schema(ell, verdict=ok), [line])
    return 0 if ok == "OK" else 1


def _bounds_or_none(baskets):
    out = None
    for b in baskets:
        try:
            m, big = degree_bounds(b)
        except Infeasible:
            continue
        out = (min(out[0], m), max(out[1], big)) if out else (m, big)
    return out


def cmd_reduce(args) -> int:
    entries = parse_delta_entries(args.delta)
    dv = DeltaVector(args.local_index, entries)
    result = enumerate_reduced_baskets(args.local_index, dv)
    if not result.realizable:
        emit(
            args,
            schema(args.local_index, entries, verdict="NOT_REALIZABLE"),
            ["verdict=NOT_REALIZABLE"],
        )
        return 0
    lines = [f"count={len(result.baskets)}"]
    for vec, b, rk2 in zip(result.vectors, result.baskets, result.per_basket_rk2):
        coords = ",".join(str(x) for x in vec)
        lines.append(f"({coords}): {fmt_basket(b)} RK2={fmt_frac(rk2)}")
    payload = schema(
        args.local_index,
        entries,
        result.baskets,
        result.per_basket_rk2,
        "OK",
        _bounds_or_none(result.baskets),
    )
    emit(args, payload, lines)
    return 0


def cmd_analyze(args) -> int:
    h = parse_rational_function(args.series)
    report = analyze_series(h)
    verdict = "NO_SURFACE" if report.verdict == "NoSurface" else "FEASIBLE"
    # each choice's basket, flattened over its local indices
    baskets = [tuple([s for _, b in c.selection for s in b]) for c in report.per_choice]
    lines = [f"K2={fmt_frac(report.k_squared)}"]
    for i, (choice, flat) in enumerate(zip(report.per_choice, baskets), start=1):
        lines.append(
            f"choice {i}: {fmt_basket(flat)} RK2={fmt_frac(choice.rk_squared)} "
            f"IK2={fmt_frac(choice.invisible_budget)} {choice.verdict.upper()}"
        )
    lines.append(f"verdict={verdict}")
    if report.toric_impossible:
        lines.append("toric=IMPOSSIBLE")
    if args.terms:
        lines.append(fmt_terms(h, args.terms))
    indices = sorted(report.bodies)
    payload = schema(
        indices[0] if len(indices) == 1 else 0,
        report.bodies[indices[0]].delta.entries if len(indices) == 1 else (),
        baskets,
        [c.rk_squared for c in report.per_choice],
        verdict,
        _bounds_or_none([b for c, b in zip(report.per_choice, baskets) if c.verdict == "Feasible"]),
    )
    emit(args, payload, lines)
    return 0


def cmd_bounds(args) -> int:
    b = parse_basket_text(args.basket)
    m, big = degree_bounds(b, args.nmin)
    emit(
        args,
        schema(baskets=[b], bounds=(m, big)),
        [f"m={fmt_frac(m)} M={fmt_frac(big)}"],
    )
    return 0


def cmd_count_bound(args) -> int:
    q = {}
    for item in args.contribution:
        if ":" not in item:
            raise ParseError(f"expected ell:d1,d2,... in {item!r}")
        ell_text, entries_text = item.split(":", 1)
        try:
            ell = ascii_int(ell_text, signed=False)
        except ValueError as exc:
            raise ParseError(f"bad local index in {item!r}") from exc
        if ell in q:
            raise ParseError(f"local index {ell} given twice, again in {item!r}")
        q[ell] = DeltaVector(ell, parse_delta_entries(entries_text))
    n = count_bound(q, args.ell_star)
    emit(args, schema(verdict=str(n)), [f"N={n}"])
    return 0


def cmd_selftest(args) -> int:
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{name}: {'OK' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    for ell in range(3, 35):
        lat = delta_lattice(ell)
        phi = len(residual_quiver(ell).vertices)
        check(f"delta-rank {ell}", 2 * lat.rank == phi)
    dv = orbifold_contribution(Singularity(5, 1))
    check("contrib 1/5(1,1)", dv.entries == (1, -2, 1))
    result = enumerate_reduced_baskets(5, DeltaVector(5, (2, 1, 2)))
    check("reduce 5 (2,1,2)", len(result.baskets) == 4)
    check(
        "reduce RK2", all(r == Fraction(-8, 5) for r in result.per_basket_rk2)
    )
    check("count-bound 82", count_bound({5: DeltaVector(5, (2, 1, 2))}, 5) == 82)
    print("selftest " + ("OK" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Exact calculus of cyclic quotient singularities on "
        "orbifold del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, terms=False):
        p.add_argument("--json", action="store_true", help="emit JSON output")
        if terms:
            p.add_argument(
                "--terms", type=int_at_least(0), default=0, metavar="N",
                help="append the first N series coefficients",
            )

    p = sub.add_parser("contrib", help="orbifold contribution of a singularity")
    p.add_argument("singularity")
    p.add_argument("--full-delta", action="store_true",
                   help="print the delta-vector with its zero ends")
    common(p, terms=True)
    p.set_defaults(func=cmd_contrib)

    p = sub.add_parser("series", help="assemble a Hilbert series from a basket")
    p.add_argument("basket")
    p.add_argument("--k2", required=True, help="degree K^2 as p/q")
    common(p, terms=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("residue", help="strip T-parts from a singularity")
    p.add_argument("singularity")
    common(p)
    p.set_defaults(func=cmd_residue)

    p = sub.add_parser("quiver", help="residual quiver cycle at a local index")
    p.add_argument("local_index", type=int_at_least(1))
    common(p)
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("delta-rank", help="delta-lattice rank vs phi/2")
    p.add_argument("local_index", type=int_at_least(1))
    common(p)
    p.set_defaults(func=cmd_delta_rank)

    p = sub.add_parser("reduce", help="enumerate reduced baskets for a delta-vector")
    p.add_argument("local_index", type=int_at_least(1))
    p.add_argument("delta", help="comma-separated entries, e.g. 2,1,2")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("analyze", help="feasibility report for a Hilbert series")
    p.add_argument("series")
    common(p, terms=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="degree bounds for a basket of residues")
    p.add_argument("basket")
    p.add_argument("--nmin", type=int_at_least(0), default=0,
                   help="minimum Euler number of the smooth locus")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("count-bound", help="singularity-count bound N(Q, l*)")
    p.add_argument("ell_star", type=int_at_least(1))
    p.add_argument("contribution", nargs="+",
                   help="per-index contributions as ell:d1,d2,...")
    common(p)
    p.set_defaults(func=cmd_count_bound)

    p = sub.add_parser("selftest", help="reproduce the headline computations")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DelPezzoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
