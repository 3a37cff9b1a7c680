"""Exact Dedekind sums, orbifold contributions and their delta-vectors,
degree contributions, and Hilbert-series assembly/decomposition.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from .errors import (
    AmbiguousDecomposition,
    InvalidFraction,
    InvalidWeight,
    LengthMismatch,
    NonIntegralDelta,
    NotASurfaceSeries,
    ParseError,
)
from .exactalg import (
    RationalFunction,
    cyclotomic,
    poly,
    poly_content,
    poly_divmod,
    poly_mul,
    poly_primitive,
    poly_scale,
)
from .singularity import Basket, Singularity, basket_pieces

# ---------------------------------------------------------------------------
# Dedekind sums


@lru_cache(maxsize=None)
def dedekind_sum(r: int, a: int, i: int) -> Fraction:
    """delta_{r,a,i} = (1/r) sum over nontrivial r-th roots xi of
    xi^i / ((1 - xi)(1 - xi^a)), evaluated exactly.

    Uses 1/(1-xi) = -(1/r) sum_j j xi^j and the power-sum identity for
    roots of unity, which collapses the double sum to a single O(r) pass.
    """
    if r < 2:
        raise InvalidWeight("order must be at least 2")
    a %= r
    if gcd(r, a) != 1:
        raise InvalidWeight(f"hcf({r},{a}) != 1")
    i %= r
    ainv = pow(a, -1, r)
    total = 0
    for j in range(r):
        total += j * ((ainv * (-i - j)) % r)
    return Fraction(total, r * r) - Fraction((r - 1) ** 2, 4 * r)


# ---------------------------------------------------------------------------
# delta-vectors


@dataclass(frozen=True)
class DeltaVector:
    """Abbreviated numerator (delta_1,...,delta_{l-2}) of an orbifold
    contribution over l(1 - t^l); the omitted ends are zero.
    """

    local_index: int
    entries: tuple

    def __post_init__(self) -> None:
        if len(self.entries) != max(0, self.local_index - 2):
            raise LengthMismatch("entry count must be local_index - 2")

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    def is_palindromic(self) -> bool:
        return self.entries == self.entries[::-1]

    def full(self) -> tuple:
        """(delta_0, ..., delta_{l-1}) including the zero ends."""
        return (0, *self.entries, 0) if self.local_index >= 2 else ()

    def __add__(self, other: "DeltaVector") -> "DeltaVector":
        if self.local_index != other.local_index:
            raise ValueError("local indices differ")
        return DeltaVector(
            self.local_index,
            tuple([x + y for x, y in zip(self.entries, other.entries)]),
        )

    def __neg__(self) -> "DeltaVector":
        return DeltaVector(self.local_index, tuple([-x for x in self.entries]))

    def rational_function(self) -> RationalFunction:
        """The contribution (delta_1 t + ... ) / (l (1 - t^l))."""
        ell = self.local_index
        num = poly([0, *self.entries])
        den = poly([ell] + [0] * (ell - 1) + [-ell])
        return RationalFunction.make(num, den)


def zero_delta(ell: int) -> DeltaVector:
    return DeltaVector(ell, (0,) * max(0, ell - 2))


def _dedekind_totals(r: int, a: int) -> list[int]:
    """T(i) = sum_j j*(u(i+j) mod r) for i = 0..r-1, where u = -a^-1 mod r,
    so that dedekind_sum(r, a, i) = T(i)/r^2 - (r-1)^2/(4r).

    One O(r) sum gives T(0); shifting j by one gives the O(1) step
    T(i+1) = T(i) + r*(u*i mod r) - r(r-1)/2.
    """
    u = -pow(a, -1, r) % r
    half = r * (r - 1) // 2
    totals = [sum(j * (u * j % r) for j in range(r))]
    for i in range(r - 1):
        totals.append(totals[-1] + r * (u * i % r) - half)
    return totals


def _periodic_quotient(coeffs: Sequence[int], ell: int) -> list[int]:
    """coeffs / (1 + t^l + ... + t^(n-l)) for n = len(coeffs), a multiple of l.

    The quotient has degree below l, so the division is exact exactly when
    the n coefficients are l-periodic, and the quotient is then the first l.
    """
    head = list(coeffs[:ell])
    if any(x != head[k % ell] for k, x in enumerate(coeffs)):
        raise RuntimeError(f"numerator is not {ell}-periodic: inexact division")
    return head


@lru_cache(maxsize=None)
def orbifold_contribution(s: Singularity) -> DeltaVector:
    """Delta-vector of Q_s; the zero vector exactly for T-singularities.

    Coefficient k of the numerator of Q_s over 1 - t^r is
    dedekind_sum(r, a, (a+1)(k+1)) - dedekind_sum(r, a, 0), i.e.
    (T((a+1)(k+1)) - T(0))/r^2 with T from _dedekind_totals, so the whole
    computation takes O(r) integer steps.
    """
    ell = s.local_index
    if s.is_smooth:
        return zero_delta(ell)
    r, a = s.r, s.a
    totals = _dedekind_totals(r, a)
    # r^2 times the numerator over 1 - t^r, reduced to the l(1 - t^l) form
    num = [totals[(a + 1) * (k + 1) % r] - totals[0] for k in range(r)]
    full = []
    for x in _periodic_quotient(num, ell):
        q, rem = divmod(ell * x, r * r)
        if rem:
            raise RuntimeError(f"non-integral delta for {s}")
        full.append(q)
    if full[0] or full[-1]:
        raise RuntimeError(f"nonzero delta ends for {s}")
    entries = tuple(full[1:-1])
    if entries != entries[::-1]:
        raise RuntimeError(f"delta-vector of {s} not palindromic")
    return DeltaVector(ell, entries)


# ---------------------------------------------------------------------------
# Hirzebruch-Jung expansions and degree contributions


@dataclass(frozen=True)
class HJExpansion:
    target: Fraction
    terms: tuple


def hj_expansion(p: int, q: int) -> HJExpansion:
    """Continued-fraction expansion p/q = b1 - 1/(b2 - 1/(...)), b_i >= 2."""
    if q <= 0 or p < q:
        raise InvalidFraction(f"need p >= q >= 1, got {p}/{q}")
    g = gcd(p, q)
    p, q = p // g, q // g
    target = Fraction(p, q)
    terms = []
    while p > q:
        b = -(-p // q)  # ceil
        terms.append(b)
        p, q = q, b * q - p
        if q == 0:
            break
        g = gcd(p, q)
        p, q = p // g, q // g
    return HJExpansion(target, tuple(terms))


def discrepancies(expansion: HJExpansion) -> list[Fraction]:
    """d_i from the adjunction system -b_i d_i + d_{i-1} + d_{i+1} = b_i - 2
    with d_0 = d_{m+1} = 0; all values lie in (-1, 0].
    """
    b = expansion.terms
    m = len(b)
    if m == 0:
        return []
    # tridiagonal solve by forward elimination
    diag = [Fraction(-bi) for bi in b]
    rhs = [Fraction(bi - 2) for bi in b]
    for i in range(1, m):
        f = 1 / diag[i - 1]
        diag[i] -= f
        rhs[i] -= f * rhs[i - 1]
    d = [Fraction(0)] * m
    d[m - 1] = rhs[m - 1] / diag[m - 1]
    for i in range(m - 2, -1, -1):
        d[i] = (rhs[i] - d[i + 1]) / diag[i]
    return d


@lru_cache(maxsize=None)
def degree_contribution(s: Singularity) -> Fraction:
    """A_s = m + 3 - sum (b_i - 2) - (2 + a + a^-1 mod r)/r.

    Here b_1..b_m is the Hirzebruch-Jung expansion of r/a, the chain of the
    minimal resolution (the reading r/(a+1) fails the T-singularity law
    A = d).  This closed form equals m + 1 - sum d_i^2 b_i
    + 2 sum d_i d_{i+1} with d = discrepancies(...), without the solve.
    """
    if s.is_smooth:
        return Fraction(0)
    r, a = s.r, s.a
    b = hj_expansion(r, a).terms
    return len(b) + 3 - sum(x - 2 for x in b) - Fraction(2 + a + pow(a, -1, r), r)


# ---------------------------------------------------------------------------
# baskets and full series


def basket_contributions(b: Basket) -> tuple[dict[int, DeltaVector], Fraction]:
    """Per-local-index delta-vector sums and the total degree contribution."""
    parts: dict[int, DeltaVector] = {}
    total_a = Fraction(0)
    for s in b:
        total_a += degree_contribution(s)
        q = orbifold_contribution(s)
        if q.is_zero:
            continue
        ell = q.local_index
        parts[ell] = parts.get(ell, zero_delta(ell)) + q
    return {ell: v for ell, v in sorted(parts.items()) if not v.is_zero}, total_a


@dataclass(frozen=True)
class HilbertSeries:
    series: RationalFunction
    degree: Fraction
    orbifold_parts: dict[int, DeltaVector] = field(hash=False)

    def coefficients(self, count: int) -> list[Fraction]:
        return self.series.series_coefficients(count)


def initial_term(k_squared: Fraction) -> RationalFunction:
    """(1 + (K^2 - 2) t + t^2) / (1 - t)^3 with exact rational K^2."""
    k = Fraction(k_squared)
    num = poly(
        [k.denominator, k.numerator - 2 * k.denominator, k.denominator]
    )
    den = poly_mul(
        (k.denominator,), poly_mul((1, -1), poly_mul((1, -1), (1, -1)))
    )
    return RationalFunction.make(num, den)


def assemble_series(b: Basket, k_squared) -> HilbertSeries:
    k = Fraction(k_squared)
    parts, _ = basket_contributions(b)
    series = initial_term(k)
    for v in parts.values():
        series = series + v.rational_function()
    return HilbertSeries(series, k, parts)


def split_series(H: RationalFunction) -> tuple[Fraction, dict[int, DeltaVector]]:
    """Recover (K^2, per-local-index delta-vectors) from a Hilbert series.

    Inverse of assemble_series.  The initial term is the unique part with a
    triple pole at t=1; the remainder is matched against numerators over
    l(1 - t^l) for candidate indices read off the cyclotomic factors of its
    denominator.
    """
    if H.is_zero() or H.series_coefficients(1)[0] != 1:
        raise NotASurfaceSeries("constant term must be 1")
    if H.pole_order_at_one() != 3:
        raise NotASurfaceSeries("series must have a triple pole at t=1")
    cube = RationalFunction.make(
        poly_mul((1, -1), poly_mul((1, -1), (1, -1))), (1,)
    )
    k_squared = (H * cube).eval(1)
    remainder = H - initial_term(k_squared)
    if remainder.is_zero():
        return k_squared, {}

    base, closed = _candidate_indices(remainder.den)
    if not base:
        raise NotASurfaceSeries("remainder has no cyclotomic pole structure")
    # the un-closed candidate set almost always suffices and keeps the
    # linear system small; fall back to the lcm closure (indices whose
    # primitive cyclotomic part cancels) only when it does not
    attempts = [base, closed] if closed != base else [base]
    solution = None
    for i, candidates in enumerate(attempts):
        try:
            solution = _solve_delta_system(
                remainder, candidates, restrict_lattice=False
            )
            if solution is None:
                solution = _solve_delta_system(
                    remainder, candidates, restrict_lattice=True
                )
        except NotASurfaceSeries:
            if i == len(attempts) - 1:
                raise
            continue
        if solution is not None:
            break
    if solution is None:
        raise AmbiguousDecomposition(
            "decomposition solver has a nontrivial nullspace"
        )
    parts: dict[int, DeltaVector] = {}
    for ell, values in solution.items():
        ints = []
        for x in values:
            if Fraction(x).denominator != 1:
                raise NonIntegralDelta(f"non-integer delta at index {ell}")
            ints.append(int(x))
        v = DeltaVector(ell, tuple(ints))
        if not v.is_zero:
            parts[ell] = v
    return k_squared, dict(sorted(parts.items()))


def _candidate_indices(den: Sequence) -> tuple[list[int], list[int]]:
    """(base, closed): the sorted indices l >= 2 whose cyclotomic polynomial
    divides den, and that set closed under least common multiples (within
    the scan bound)."""
    den = poly(den)
    deg = len(den) - 1
    # phi(n) <= deg is necessary; phi(n) >= sqrt(n/2) bounds the scan
    bound = 2 * deg * deg + 1
    scale = max(abs(float(c)) for c in den)
    tol = 1e-8 * max(scale, 1.0) * (deg + 1)
    base = []
    for n in range(2, bound + 1):
        if _totient(n) > deg:
            continue
        # cheap necessary test: den must vanish at a primitive n-th root;
        # an exact zero evaluates to mere rounding noise, far below tol
        x = cmath.exp(2j * cmath.pi / n)
        val = 0j
        for c in reversed(den):
            val = val * x + float(c)
        if abs(val) > tol:
            continue
        phi = cyclotomic(n)
        if not poly_divmod(den, phi)[1]:
            base.append(n)
    closed = set(base)
    changed = True
    while changed:
        changed = False
        items = sorted(closed)
        for x in items:
            for y in items:
                join = x * y // gcd(x, y)
                if join <= bound and join not in closed:
                    closed.add(join)
                    changed = True
    return sorted(base), sorted(closed)


def _totient(n: int) -> int:
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _palindromic_basis(ell: int) -> list[tuple]:
    """Basis of palindromic (delta_1..delta_{l-2}) vectors."""
    n = ell - 2
    out = []
    for i in range((n + 1) // 2):
        v = [0] * n
        v[i] = 1
        v[n - 1 - i] = 1 if n - 1 - i != i else v[i]
        out.append(tuple(v))
    return out


def _solve_delta_system(
    remainder: RationalFunction, candidates: list[int], restrict_lattice: bool
) -> Optional[dict[int, tuple]]:
    """Match remainder = sum_l N_l/(l(1-t^l)) by exact linear algebra.

    Unknowns are palindromic numerator coordinates, optionally restricted to
    the rational span of each index's delta-lattice.  Returns None when the
    system is singular (nullspace) and raises on inconsistency.
    """
    from .quiver import delta_lattice  # deferred: quiver builds on this module

    bases: list[tuple[int, tuple]] = []  # (ell, delta-entry vector)
    for ell in candidates:
        if restrict_lattice:
            gens = delta_lattice(ell).basis
            for g in gens:
                bases.append((ell, tuple(g)))
        else:
            for g in _palindromic_basis(ell):
                bases.append((ell, g))
    if not bases:
        return None

    # remainder = num / (c * den') with den' primitive; over the common
    # denominator prod (1 - t^l) every part is an integer polynomial
    one_minus = {ell: poly([1] + [0] * (ell - 1) + [-1]) for ell in candidates}
    common = poly((1,))
    for f in one_minus.values():
        common = poly_mul(common, f)
    c = poly_content(remainder.den)
    cofactor, rest = poly_divmod(common, poly_primitive(remainder.den))
    if rest:
        # remainder denominator must divide the product of (1 - t^l)
        raise NotASurfaceSeries("denominator has non-cyclotomic factors")

    # times L * c * common, L = lcm of the candidates, the part
    # N_l / (l (1 - t^l)) is c * L/l * N_l * common/(1 - t^l) and the
    # remainder is L * num * cofactor
    lcm = 1
    for ell in candidates:
        lcm = lcm * ell // gcd(lcm, ell)
    rhs_poly = poly_scale(poly_mul(remainder.num, cofactor), lcm)
    scaled = {
        ell: poly_scale(poly_divmod(common, f)[0], c * (lcm // ell))
        for ell, f in one_minus.items()
    }
    col_polys = [poly_mul(poly([0, *entries]), scaled[ell]) for ell, entries in bases]

    nrows = max([len(rhs_poly)] + [len(col) for col in col_polys])
    matrix = [
        [col[i] if i < len(col) else 0 for col in col_polys] for i in range(nrows)
    ]
    rhs = [rhs_poly[i] if i < len(rhs_poly) else 0 for i in range(nrows)]

    coeffs = _gauss_solve_unique(matrix, rhs)
    if coeffs is None:
        return None
    out: dict[int, list] = {}
    for (ell, entries), x in zip(bases, coeffs):
        acc = out.setdefault(ell, [0] * (ell - 2))
        for i, e in enumerate(entries):
            acc[i] += x * e
    return {ell: tuple(v) for ell, v in out.items()}


def _gauss_solve_unique(matrix, rhs):
    """Solve an overdetermined integer system exactly; None if
    underdetermined, NotASurfaceSeries if inconsistent.

    Fraction-free forward elimination (after Bareiss, Sylvester's identity
    and multistep integer-preserving Gaussian elimination, Math. Comp. 1968):
    each update cross-multiplies with the pivot row and divides the new row
    by its content.  Only the back-substitution forms Fractions, so a
    non-integral solution comes out as one.
    """
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    rank_row = 0
    for c in range(ncols):
        piv = next((i for i in range(rank_row, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank_row], rows[piv] = rows[piv], rows[rank_row]
        prow = rows[rank_row]
        p = prow[c]
        for i in range(rank_row + 1, len(rows)):
            f = rows[i][c]
            if f:
                g = gcd(p, f)
                s, f = p // g, f // g
                row = [s * x - f * y for x, y in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        rank_row += 1
    for i in range(rank_row, len(rows)):
        if rows[i][ncols]:
            raise NotASurfaceSeries("series is not a sum of orbifold parts")
    if len(pivots) < ncols:
        return None
    sol = [Fraction(0)] * ncols
    for i in range(rank_row - 1, -1, -1):
        row = rows[i]
        acc = row[ncols] - sum(row[j] * sol[j] for j in range(i + 1, ncols))
        sol[i] = Fraction(acc) / row[i]
    return sol


# ---------------------------------------------------------------------------
# rational-function text grammar


def parse_rational_function(text: str) -> RationalFunction:
    """Parse `(1+7*t+t^2)/(1-t)^3`-style expressions.

    Grammar: integer literals, `t`, the operators + - * / ^ and parentheses.
    """
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ParseError(f"unexpected token {tok!r} in {text!r}")
        pos[0] += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        node = parse_atom()
        while peek() == "^":
            take("^")
            exp = take()
            if not isinstance(exp, int) or exp < 0:
                raise ParseError(f"exponent must be a nonnegative integer in {text!r}")
            base, node = node, RationalFunction.make(poly([1]))
            for _ in range(exp):
                node = node * base
        return node if sign == 1 else -node

    def parse_atom():
        tok = peek()
        if tok == "(":
            take("(")
            node = parse_expr()
            take(")")
            return node
        if tok == "t":
            take()
            return RationalFunction.make(poly([0, 1]))
        if isinstance(tok, int):
            take()
            return RationalFunction.make(poly([tok]))
        raise ParseError(f"unexpected token {tok!r} in {text!r}")

    node = parse_expr()
    if pos[0] != len(tokens):
        raise ParseError(f"trailing input after position {pos[0]} in {text!r}")
    return node


def _tokenize(text: str) -> list:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch in "t+-*/^()":
            out.append(ch)
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in {text!r}")
    if not out:
        raise ParseError("empty input")
    return out
