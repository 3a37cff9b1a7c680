"""Exact Dedekind sums, orbifold contributions and their delta-vectors,
degree contributions, and Hilbert-series assembly/decomposition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Sequence

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
    _column_echelon,
    cyclotomic,
    echelon_substitute,
    poly,
    poly_add,
    poly_content,
    poly_div_exact,
    poly_divmod,
    poly_mul,
    poly_neg,
    poly_primitive,
    poly_scale,
    poly_sub,
)
from .singularity import Basket, Singularity

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


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """F(n, m, a, b) = sum_{i<n} floor((a*i + b)/m) for m >= 1, a, b >= 0,
    by the Euclid-like reduction that swaps (m, a): O(log m) rounds."""
    total = 0
    while n:
        total += n * (n - 1) // 2 * (a // m) + n * (b // m)
        a, b = a % m, b % m
        n, b = divmod(a * n + b, m)
        m, a = a, m
    return total


def _prefix_sums(r: int, u: int, ell: int) -> list[int]:
    """S(j*g) for j = 0..l-1, where g = r/l and S(i) = sum_{i'<i} (u*i' mod r):
    block j adds sum_{m<g} (u*m + c) mod r, c = g*(u*j mod l), which is
    g*c + u*g(g-1)/2 - r*F(g, r, u, c), at most one floor sum per block."""
    g = r // ell
    base = u * g * (g - 1) // 2
    sums = [0]
    for j in range(ell - 1):
        c = g * (u * j % ell)
        # sum of floor((u*m + c)/r), zero when the largest term u(g-1) + c is below r
        wraps = _floor_sum(g, r, u, c) if u * (g - 1) + c >= r else 0
        sums.append(sums[-1] + g * c + base - r * wraps)
    return sums


@lru_cache(maxsize=None)
def orbifold_contribution(s: Singularity) -> DeltaVector:
    """Delta-vector of Q_s; the zero vector exactly for T-singularities.

    With u = -a^-1 mod r and S as in _prefix_sums, r^2 times coefficient k
    of the numerator of Q_s over 1 - t^r is r*S(i) - i*r(r-1)/2 for
    i = (a+1)(k+1) mod r, the difference of the Dedekind sums at i and 0.
    As g = r/l divides a+1, i = g*j with j = ((a+1)/g)(k+1) mod l, so the
    coefficients repeat with period l: the division by 1 + t^l + ... +
    t^(r-l) keeps the first l, and only l prefix sums are needed.  The cost
    is O(l log r) time and O(l) memory, in proportion to the delta.
    """
    ell = s.local_index
    if s.is_smooth:
        return zero_delta(ell)
    r, a = s.r, s.a
    if ell * (a + 1) % r:
        raise RuntimeError(f"numerator of {s} is not {ell}-periodic: inexact division")
    g, sums = r // ell, _prefix_sums(r, -pow(a, -1, r) % r, ell)
    full = []
    for k in range(1, ell + 1):
        # l/r^2 times the coefficient: S(g*j)/g - j(r-1)/2
        j = (a + 1) // g * k % ell
        q, rem = divmod(2 * sums[j] - g * j * (r - 1), 2 * g)
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
        p, q = q, b * q - p  # gcd(q, b*q - p) = gcd(q, p) = 1
        if q == 0:
            break
    return HJExpansion(target, tuple(terms))


def discrepancies(expansion: HJExpansion) -> list[Fraction]:
    """d_i from the adjunction system -b_i d_i + d_{i-1} + d_{i+1} = b_i - 2
    with d_0 = d_{m+1} = 0; all values lie in (-1, 0].

    With r/a the target in lowest terms, d_i = (p_i + s_i)/r - 1, where
    p = (r, a, ...) and s = (0, 1, ...) both obey x_{i+1} = b_i x_i - x_{i-1}.
    So each equation holds and d_0 = 0; d_{m+1} = 0 as the expansion ends
    at p_{m+1} = 0, and p_i s_{i+1} - p_{i+1} s_i = r with p_m = 1 gives
    s_{m+1} = r.
    """
    r = expansion.target.numerator
    p, s = (r, expansion.target.denominator), (0, 1)
    out = []
    for b in expansion.terms:
        out.append(Fraction(p[1] + s[1], r) - 1)
        p, s = (p[1], b * p[1] - p[0]), (s[1], b * s[1] - s[0])
    return out


@lru_cache(maxsize=None)
def degree_contribution(s: Singularity) -> Fraction:
    """A_s = m + 3 - sum (b_i - 2) - (2 + a + a^-1 mod r)/r.

    Here b_1..b_m is the Hirzebruch-Jung expansion of r/a, the chain of the
    minimal resolution (the reading r/(a+1) fails the T-singularity law
    A = d).  This closed form equals m + 1 - sum d_i^2 b_i
    + 2 sum d_i d_{i+1} with d = discrepancies(...), without forming d.
    """
    if s.is_smooth:
        return Fraction(0)
    r, a = s.r, s.a
    b = hj_expansion(r, a).terms
    return len(b) + 3 - sum(x - 2 for x in b) - Fraction(2 + a + pow(a, -1, r), r)


# ---------------------------------------------------------------------------
# baskets and full series


def basket_contributions(b: Basket) -> dict[int, DeltaVector]:
    """The nonzero per-local-index delta-vector sums."""
    parts: dict[int, DeltaVector] = {}
    for s in b:
        q = orbifold_contribution(s)
        if q.is_zero:
            continue
        ell = q.local_index
        parts[ell] = parts.get(ell, zero_delta(ell)) + q
    return {ell: v for ell, v in sorted(parts.items()) if not v.is_zero}


@dataclass(frozen=True)
class HilbertSeries:
    series: RationalFunction
    degree: Fraction
    orbifold_parts: dict[int, DeltaVector] = field(hash=False)

    def coefficients(self, count: int) -> list[Fraction]:
        return self.series.series_coefficients(count)


class _Frame:
    """The common denominator of the series system over candidate indices.

    D = (1-t)^3 times Phi_n over the n >= 2 that divide a candidate, so
    (1-t)^3 and every 1 - t^l divide D; L is the lcm of the candidates.
    Times L*D, 1/(1-t) is `geometric`, K^2 t/(1-t)^3 is K^2 times `degree`
    and N_l/(l(1-t^l)) is N_l times `parts[l]`, all in Z[t].
    """

    def __init__(self, candidates: tuple):
        self.orders = sorted({n for ell in candidates for n in range(2, ell + 1) if ell % n == 0})
        cube = self.den = (1, -3, 3, -1)
        for n in self.orders:
            self.den = poly_mul(self.den, cyclotomic(n))
        self.lcm = lcm(*candidates)
        self.geometric = poly_scale(poly_div_exact(self.den, (1, -1)), self.lcm)
        self.degree = poly_scale((0, *poly_div_exact(self.den, cube)), self.lcm)
        self.parts = {ell: poly_scale(poly_div_exact(self.den, (1, *[0] * (ell - 1), -1)), self.lcm // ell)
                      for ell in candidates}

    @cached_property
    def system(self) -> tuple[tuple, list]:
        """(_column_echelon(M), bases) for the integer matrix M, a row per
        power of t, of columns `degree` and t*b*parts[l] for each (l, b),
        b in the delta-lattice basis."""
        from .quiver import delta_lattice  # deferred: quiver builds on this module

        bases = [(ell, b) for ell in self.parts for b in delta_lattice(ell).basis]
        cols = [self.degree] + [poly_mul(self.parts[ell], (0, *b)) for ell, b in bases]
        nrows = max(map(len, cols))
        return _column_echelon([[*col, *[0] * (nrows - len(col))] for col in cols]), bases


_frame = lru_cache(maxsize=None)(_Frame)


def _divisor_closure(indices) -> tuple:
    """The sorted l >= 3 that divide one of the indices."""
    return tuple(sorted({d for n in indices for d in range(3, n + 1) if n % d == 0}))


def assemble_series(b: Basket, k_squared) -> HilbertSeries:
    """(1 + (K^2 - 2)t + t^2)/(1 - t)^3 plus the orbifold parts of b.

    With K^2 = p/q, the numerator over q*L*D in the frame of the parts'
    indices is q*geometric + p*degree + q*sum N_l*parts[l]; it is reduced
    once, by the Phi_n of D that divide it and then the content and sign.
    """
    k = Fraction(k_squared)
    parts = basket_contributions(b)
    frame = _frame(_divisor_closure(parts))
    p, q = k.numerator, k.denominator
    num = poly_add(poly_scale(frame.geometric, q), poly_scale(frame.degree, p))
    for ell, v in parts.items():
        num = poly_add(num, poly_scale(poly_mul(frame.parts[ell], (0, *v.entries)), q))
    den = poly_scale(frame.den, q * frame.lcm)
    for n in (1, 1, 1, *frame.orders):
        quotient, rest = poly_divmod(num, cyclotomic(n))
        if not rest:
            num, den = quotient, poly_div_exact(den, cyclotomic(n))
    # den is q*L times a product of cyclotomic polynomials, of content 1
    g = gcd(poly_content(num), q * frame.lcm) * (1 if den[0] > 0 else -1)
    series = RationalFunction(tuple([x // g for x in num]), tuple([x // g for x in den]))
    return HilbertSeries(series, k, parts)


def split_series(H: RationalFunction) -> tuple[Fraction, dict[int, DeltaVector]]:
    """Recover (K^2, per-local-index delta-vectors) from a Hilbert series.

    Inverse of assemble_series.  The candidate indices are read off the
    cyclotomic factors of H's denominator c*den'.  Over L*D in their frame,
    H - 1/(1-t) = K^2 t/(1-t)^3 + sum_l N_l/(l(1-t^l)), with N_l in the
    delta-lattice at l, is one integer system with K^2 as one more unknown:
    L*num*(D/den') - c*geometric = c*(K^2*degree + sum x_i*column_i).
    The frame keeps the column echelon form (A, U, pivots) of its matrix,
    so a split is one forward substitution for y and then x = U y, a sum of
    the columns of U.
    """
    if H.den[0] == 0:
        raise NotASurfaceSeries("series has a pole at t=0")
    if not H.num or H.num[0] != H.den[0]:
        raise NotASurfaceSeries("constant term must be 1")
    if H.pole_order_at_one() != 3:
        raise NotASurfaceSeries("series must have a triple pole at t=1")
    frame = _frame(tuple(_candidate_indices(H.den)))
    c = poly_content(H.den)
    cofactor, rest = poly_divmod(frame.den, poly_primitive(H.den))
    if rest:
        raise NotASurfaceSeries("denominator has non-cyclotomic factors")
    rhs = poly_sub(poly_scale(poly_mul(H.num, cofactor), frame.lcm), poly_scale(frame.geometric, c))
    echelon, bases = frame.system
    A, U, pivots = echelon
    nrows = len(A[0])  # the frame always has its `degree` column
    if len(rhs) > nrows:
        raise NotASurfaceSeries("series is not a sum of orbifold parts")
    y = echelon_substitute(echelon, [*rhs, *[0] * (nrows - len(rhs))])
    if y is None:
        raise NotASurfaceSeries("series is not a sum of orbifold parts")
    if len(pivots) < len(U):
        kernel = U[len(pivots)]  # U's first non-pivot column
        named = [f"l={ell}:{tuple([x for (e, _), x in zip(bases, kernel[1:]) if e == ell])}"
                 for ell in frame.parts]
        raise AmbiguousDecomposition(f"decomposition solver has a nontrivial nullspace: "
                                     f"kernel vector K^2={kernel[0]}, {', '.join(named)}")
    solution = [0] * len(U)
    for u, v in zip(U, y):
        if v:
            solution = [a + v * x for a, x in zip(solution, u)]
    sums = {ell: [0] * (ell - 2) for ell in frame.parts}
    for (ell, g), x in zip(bases, solution[1:]):
        sums[ell] = [a + x * e for a, e in zip(sums[ell], g)]
    parts = {}
    for ell, acc in sums.items():
        if any(x % c for x in acc):
            raise NonIntegralDelta(f"non-integer delta at index {ell}")
        if any(acc):
            parts[ell] = DeltaVector(ell, tuple([int(x // c) for x in acc]))
    return Fraction(solution[0], c), parts


def _candidate_indices(den: Sequence) -> list[int]:
    """The sorted indices l >= 3 that divide the order of a cyclotomic
    factor of den; den must be a product of cyclotomic polynomials times
    its content, else NotASurfaceSeries.

    Each Phi_n with phi(n) at most the degree left is divided out for as
    long as it divides, until den is a unit.  No nonzero element of the
    delta-lattice vanishes at the primitive l-th roots of unity, so an index
    whose multiples carry no part keeps Phi_l in den; every index with a
    part divides such an index, hence the closure under divisors.
    """
    den = poly_primitive(poly(den))
    if abs(den[0]) != 1 or abs(den[-1]) != 1:
        raise NotASurfaceSeries("denominator has non-cyclotomic factors")
    bound = _scan_bound(len(den) - 1)
    phi = _phi_sieve(bound)
    orders = []
    for n in range(1, bound):
        if len(den) == 1:
            break
        if phi[n] >= len(den):
            continue
        quotient, rest = poly_divmod(den, cyclotomic(n))
        if not rest:
            orders.append(n)
        while not rest:
            den = quotient
            quotient, rest = poly_divmod(den, cyclotomic(n))
    if len(den) != 1:
        raise NotASurfaceSeries("denominator has non-cyclotomic factors")
    return list(_divisor_closure(orders))


def _scan_bound(d: int) -> int:
    """d*b > every n with phi(n) <= d, for b the least bit length with
    2^(b-1) >= d*(b+1): the i-th prime factor of n is at least i+1, so
    n/phi(n) <= log2(n) + 1 and n < d*(n.bit_length() + 1) < d*b."""
    b = 1
    while 1 << (b - 1) < d * (b + 1):
        b += 1
    return d * b


def _phi_sieve(bound: int) -> list[int]:
    """Euler's phi(n) for n = 0..bound, by a sieve over the primes."""
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for m in range(p, bound + 1, p):
                phi[m] -= phi[m] // p
    return phi


# ---------------------------------------------------------------------------
# rational-function text grammar

_NESTING_LIMIT = 100
_EXPONENT_LIMIT = 10_000
_TOKEN = re.compile(r"([0-9]{1,4000})|([-t+*/^()])|(\S)")


def parse_rational_function(text: str) -> RationalFunction:
    """Parse `(1+7*t+t^2)/(1-t)^3`-style expressions.

    Grammar: ASCII integer literals of at most 4000 digits (below the
    interpreter's int() limit), `t`, the operators + - * / ^ and
    parentheses.  Nesting past _NESTING_LIMIT (the recursion would exhaust
    the stack), an exponent past _EXPONENT_LIMIT (t^k is a k-term tuple)
    and division by zero raise ParseError.  Subexpressions stay unreduced
    pairs (num, den) over Z[t]; one final RationalFunction.make gives the
    canonical form that reducing at every node would, as Z[t] is a domain.
    """
    tokens = [*_tokenize(text), None]
    pos = [0, 0]  # next token, parentheses open

    def peek():
        return tokens[pos[0]]

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ParseError(f"unexpected token {tok!r} in {text!r}")
        pos[0] += 1
        return tok

    def parse_expr():
        num, den = parse_term()
        while peek() in ("+", "-"):
            op = take()
            n, d = parse_term()
            if d != den:  # the terms of a polynomial all have den 1
                num, n, den = poly_mul(num, d), poly_mul(n, den), poly_mul(den, d)
            num = poly_add(num, n) if op == "+" else poly_sub(num, n)
        return num, den

    def parse_term():
        num, den = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            n, d = parse_factor() if op == "*" else parse_factor()[::-1]
            if not d:  # only a divisor's num can be zero here
                raise ParseError(f"division by zero in {text!r}")
            num, den = poly_mul(num, n), poly_mul(den, d)
        return num, den

    def parse_factor():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        num, den = parse_atom()
        while peek() == "^":
            take("^")
            exp = take()
            if not isinstance(exp, int) or exp > _EXPONENT_LIMIT:
                raise ParseError(f"exponent must be an integer 0..{_EXPONENT_LIMIT} in {text!r}")
            num, den = _poly_pow(num, exp), _poly_pow(den, exp)
        return (num, den) if sign == 1 else (poly_neg(num), den)

    def parse_atom():
        tok = peek()
        if tok == "(":
            take("(")
            pos[1] += 1
            if pos[1] > _NESTING_LIMIT:
                raise ParseError(f"parentheses nested deeper than {_NESTING_LIMIT} in {text!r}")
            node = parse_expr()
            take(")")
            pos[1] -= 1
            return node
        if tok == "t" or isinstance(tok, int):
            take()
            return ((0, 1) if tok == "t" else poly([tok])), (1,)
        raise ParseError(f"unexpected token {tok!r} in {text!r}")

    num, den = parse_expr()
    if pos[0] != len(tokens) - 1:
        raise ParseError(f"trailing input after position {pos[0]} in {text!r}")
    return RationalFunction.make(num, den)


def _poly_pow(p: tuple, k: int) -> tuple:
    """p^k: c^k t^(jk) at once for a monomial c t^j, else by binary powering."""
    if p and not any(p[:-1]):
        return (0,) * ((len(p) - 1) * k) + (p[-1] ** k,)
    out = (1,)
    while k:
        if k & 1:
            out = poly_mul(out, p)
        k >>= 1
        p = poly_mul(p, p) if k else p
    return out


def _tokenize(text: str) -> list:
    """Literals, `t`, operators and parentheses; any other non-space raises."""
    out = []
    for digits, op, other in _TOKEN.findall(text):
        if other:
            raise ParseError(f"unexpected character {other!r} in {text!r}")
        out.append(int(digits) if digits else op)
    if not out:
        raise ParseError("empty input")
    return out
