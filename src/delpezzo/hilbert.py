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
    column_echelon,
    cyclotomic,
    poly,
    poly_add,
    poly_content,
    poly_div_binomial,
    poly_div_exact,
    poly_divmod,
    poly_mul,
    poly_mul_binomial,
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
        return not any(self.entries)

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
    is O(l log r) time and O(l) memory, in proportion to the delta; the l
    sums, each below r^2, must pass size_check before they are built.
    """
    ell = s.local_index
    if s.is_smooth:
        return zero_delta(ell)
    r, a = s.r, s.a
    size_check(ell, 2 * r.bit_length(), "a delta-vector", str(s))
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
    and N_l/(l(1-t^l)) is N_l times `parts[l]`, all in Z[t].  Each N_l is
    written in the window at l, the delta-vectors of the first phi(l)/2
    vertices of residual_quiver(l), which span Delta(l) (proof in `system`).
    """

    def __init__(self, candidates: tuple):
        self.orders = sorted({n for ell in candidates for n in range(2, ell + 1) if ell % n == 0})
        self.den = (1, -3, 3, -1)
        for n in self.orders:
            self.den = poly_mul(self.den, cyclotomic(n))
        self.lcm = lcm(*candidates)
        geometric = poly_div_binomial(self.den, 1)
        self.geometric = poly_scale(geometric, self.lcm)
        self.degree = poly_scale((0, *poly_div_binomial(poly_div_binomial(geometric, 1), 1)), self.lcm)
        self.parts = {ell: poly_scale(poly_div_binomial(self.den, ell), self.lcm // ell) for ell in candidates}

    @cached_property
    def system(self) -> tuple[tuple, list]:
        """(column_echelon(M_h), bases) for the integer matrix M, a row per
        power of t, of columns `degree` and t*b*parts[l] for each (l, b),
        b in the window at l, and M_h its first h = len(den)//2 rows.

        The window spans Delta(l) over Z.  Write the quiver's vertices as
        v_0..v_(n-1), n = phi(l), and g_i = delta(v_i).  residual_quiver
        checks that v_-i = v_i.dual(), and delta(s.dual()) = delta(s) since
        1/r(1,a) and 1/r(1,a^-1) are one point, so g_-i = g_i.  The cycle is
        the maximal shattering of an elementary T-singularity, and delta is
        additive over shattering and zero on T-singularities, so sum g_i = 0:
        g_(n/2) = -g_0 - 2(g_1 + ... + g_(n/2-1)).  So g_0..g_(n/2-1) span
        Delta(l), and rank Delta(l) <= phi(l)/2.  The window is independent
        exactly when the rank is phi(l)/2, which the tests check for
        l <= 150; were it not, the echelon form would have a kernel and the
        split would raise AmbiguousDecomposition, never a wrong answer.

        M has N = deg D rows, and each column, like `geometric`, is a
        palindrome of length N, c_i = c_(N-1-i).  A product of palindromes
        is one about the sum of their centres, and a quotient about the
        difference.  P = D/(1 - t)^3, the product of the Phi_n with n >= 2,
        is one about (N - 3)/2; t and (1 - t)^2 are about 1; t*b about
        (l - 1)/2, b being a palindromic delta-vector; and (1 - t^l)/(1 - t),
        the product of the Phi_n with 2 <= n | l, about (l - 1)/2.  So
        `degree` = L*t*P, `geometric` = L*(1 - t)^2*P and t*b*parts[l] =
        (L/l)*t*b*(1 - t)^2*P*(1 - t)/(1 - t^l) are all palindromes about
        (N - 1)/2.  Rows h..N - 1 of M thus repeat its first h rows in
        reverse, and as in delta_lattice: column_echelon makes the same
        steps on M and on M_h until it has passed row h - 1, when every
        non-pivot column is zero on the first h rows and, a palindrome,
        zero on all of them.  So M_h gives the column operations and pivots
        of M, and for a palindromic b of length N, M x = b exactly when
        M_h x is the first h entries of b.
        """
        from .quiver import residual_quiver  # deferred: quiver builds on this module

        windows = {ell: residual_quiver(ell).vertices for ell in self.parts}
        bases = [(ell, orbifold_contribution(v).entries) for ell, vs in windows.items() for v in vs[:len(vs) // 2]]
        # the first h coefficients of a product take the first h of each factor
        h = len(self.den) // 2
        cols = [self.degree[:h]] + [poly_mul(self.parts[ell][:h], (0, *b))[:h] for ell, b in bases]
        return column_echelon(cols), bases


_frame = lru_cache(maxsize=None)(_Frame)


def _divisor_closure(indices) -> tuple:
    """The sorted l >= 3 that divide one of the indices."""
    return tuple(sorted({d for n in indices for d in range(3, n + 1) if n % d == 0}))


def assemble_series(b: Basket, k_squared) -> HilbertSeries:
    """(1 + (K^2 - 2)t + t^2)/(1 - t)^3 plus the orbifold parts of b.

    With K^2 = p/q, the numerator over q*L*D in the frame of the parts'
    indices is q*geometric + p*degree + q*sum N_l*parts[l]; it is reduced
    once, by the Phi_n of D that divide it and then the content and sign.
    As Phi_n divides t^n - 1, it divides num exactly when it divides num's
    fold mod t^n - 1, of degree below n, so num is long-divided only by a
    Phi_n that divides it.
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
        phi = cyclotomic(n)
        if not poly_divmod(tuple([sum(num[j::n]) for j in range(n)]), phi)[1]:
            num, den = poly_div_exact(num, phi), poly_div_exact(den, phi)
    # den is q*L times a product of cyclotomic polynomials, of content 1
    g = gcd(poly_content(num), q * frame.lcm) * (1 if den[0] > 0 else -1)
    series = RationalFunction(tuple([x // g for x in num]), tuple([x // g for x in den]))
    return HilbertSeries(series, k, parts)


def split_series(H: RationalFunction) -> tuple[Fraction, dict[int, DeltaVector]]:
    """Recover (K^2, per-local-index delta-vectors) from a Hilbert series.

    Inverse of assemble_series.  The candidate indices are read off the
    cyclotomic factors of H's denominator c*den'.  Over L*D in their frame,
    H - 1/(1-t) = K^2 t/(1-t)^3 + sum_l N_l/(l(1-t^l)), with N_l in the
    delta-lattice at l written in the frame's window, is one integer system
    with K^2 as one more unknown:
    L*num*(D/den') - c*geometric = c*(K^2*degree + sum x_i*column_i).
    Every column is a palindrome of length deg D (see _Frame.system), so a
    right-hand side longer than that or not a palindrome has no solution.
    Otherwise the system is its first len(D)//2 rows, whose column echelon
    form the frame keeps, so a split is one Echelon.solve: a forward
    substitution for y and then x = U y, by the recorded column operations.
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
    if rest:  # _candidate_indices has refused any factor but a Phi_n
        raise NotASurfaceSeries("denominator has a cyclotomic factor that no orbifold part gives")
    rhs = poly_sub(poly_scale(poly_mul(H.num, cofactor), frame.lcm), poly_scale(frame.geometric, c))
    n = len(frame.den) - 1
    rhs = [*rhs, *[0] * (n - len(rhs))]
    if len(rhs) > n or rhs != rhs[::-1]:
        raise NotASurfaceSeries("series is not a sum of orbifold parts")
    echelon, bases = frame.system
    solved = echelon.solve(rhs[:len(frame.den) // 2])
    if solved is None:
        raise NotASurfaceSeries("series is not a sum of orbifold parts")
    if len(echelon.pivots) < len(echelon.A):
        kernel = echelon.kernel[0]
        named = [f"l={ell}:{tuple([x for (e, _), x in zip(bases, kernel[1:]) if e == ell])}"
                 for ell in frame.parts]
        raise AmbiguousDecomposition(f"decomposition solver has a nontrivial nullspace: "
                                     f"kernel vector K^2={kernel[0]}, {', '.join(named)}")
    # the solution of the system times scale, so that the sums stay in ints
    solution, scale = solved
    c *= scale
    sums = {ell: [0] * (ell - 2) for ell in frame.parts}
    for (ell, g), x in zip(bases, solution[1:]):
        sums[ell] = [a + x * e for a, e in zip(sums[ell], g)]
    parts = {}
    for ell, acc in sums.items():
        if any(x % c for x in acc):
            raise NonIntegralDelta(f"non-integer delta at index {ell}")
        if any(acc):
            parts[ell] = DeltaVector(ell, tuple([x // c for x in acc]))
    return Fraction(solution[0], c), parts


def _candidate_indices(den: Sequence) -> list[int]:
    """The sorted indices l >= 3 that divide the order of a cyclotomic
    factor of den; den must be a product of cyclotomic polynomials times
    its content, else NotASurfaceSeries.

    The primitive P = den/content, of degree D and signed so that P(0) = 1,
    is peeled into binomials.  From A = B = 1, step m = 1, 2, ... sets
    c_m = -[t^m](P*B - A) and multiplies A by (1 - t^m)^c_m if c_m > 0, or
    B by (1 - t^m)^-c_m if c_m < 0.  After step m, P*B = A mod t^(m+1): as
    P(0) = A(0) = 1, the new factor adds c_m t^m to P*B - A = O(t^m) and no
    lower term.  At the first m >= max(deg A, D + deg B), where the scan
    stops, both sides have degree at most m, so P*B = A and
    P = prod (1 - t^d)^c_d = prod Phi_n^e_n with e_n the sum of c_d over the
    multiples d of n (Moebius inversion of Phi_n = prod over d | n of
    (1 - t^d)^mu(n/d), up to sign).  The n with e_n != 0 and the d with
    c_d != 0 have the same divisors: c_d != 0 needs an e_n != 0 at a
    multiple n of d, and e_n != 0 a c_d != 0 at a multiple d of n.
    Conversely, if P = prod Phi_n^e_n, each d with c_d != 0 divides an n
    with phi(n) <= D, so d < _scan_bound(D) = D*b; |c_d| <= sum of e_n over
    the multiples n of d <= D/phi(d) <= D/max(1, sqrt(d/2)); and deg A +
    deg B = sum d*|c_d| <= sum e_n psi(n) < D*b^2, as psi(n), the sum of the
    d | n with n/d squarefree, is at most phi(n)(n/phi(n))^2 < phi(n) b^2.
    A c_m past any of these bounds raises NotASurfaceSeries, so a factor off
    the unit circle, whose c_m grow geometrically, is refused early.

    No nonzero element of the delta-lattice vanishes at the primitive l-th
    roots of unity, so an index whose multiples carry no part keeps Phi_l
    in den; every index with a part divides such an index, hence the
    closure under divisors.
    """
    den = poly_primitive(poly(den))
    if abs(den[0]) != 1 or abs(den[-1]) != 1:
        raise NotASurfaceSeries("denominator has non-cyclotomic factors")
    degree, bound = len(den) - 1, _scan_bound(len(den) - 1)
    pb = den if den[0] == 1 else poly_neg(den)  # P*B, with B = 1 so far
    a, peeled, m, width = (1,), [], 0, 0
    while m < max(len(a), len(pb)) - 1:
        m += 1
        c = (a[m] if m < len(a) else 0) - (pb[m] if m < len(pb) else 0)
        if c:
            width += m * abs(c)  # deg A + deg B
            if m >= bound or c * c * max(m, 2) > 2 * degree * degree or width * degree > bound * bound:
                raise NotASurfaceSeries("denominator has non-cyclotomic factors")
            peeled.append(m)
            for _ in range(abs(c)):
                if c > 0:
                    a = poly_mul_binomial(a, m)
                else:
                    pb = poly_mul_binomial(pb, m)
    return list(_divisor_closure(peeled))


def _scan_bound(d: int) -> int:
    """d*b > every n with phi(n) <= d, for b the least bit length with
    2^(b-1) >= d*(b+1): the i-th prime factor of n is at least i+1, so
    n/phi(n) <= log2(n) + 1 and n < d*(n.bit_length() + 1) < d*b."""
    b = 1
    while 1 << (b - 1) < d * (b + 1):
        b += 1
    return d * b


# ---------------------------------------------------------------------------
# rational-function text grammar

_NESTING_LIMIT = 100
_EXPONENT_LIMIT = 10_000
_SIZE_LIMIT = 1 << 24  # bits of one built object, see size_check
_TOKEN = re.compile(r"[0-9]{1,4000}|\S")


def parse_rational_function(text: str) -> RationalFunction:
    """Parse `(1+7*t+t^2)/(1-t)^3`-style expressions.

    Grammar: ASCII integer literals of at most 4000 digits (below the
    interpreter's int() limit), `t`, the operators + - * / ^ and
    parentheses.  Nesting past _NESTING_LIMIT (the recursion would exhaust
    the stack), an exponent past _EXPONENT_LIMIT, a product or power past
    _SIZE_LIMIT bits (checked before it is built) and division by zero
    raise ParseError.  A product of literals and powers of t stays a
    monomial (c, s) for c*t^s, which a run of + and - terms adds straight
    into coefficient s of its list; other subexpressions stay unreduced
    pairs (num, den) over Z[t].  One final RationalFunction.make gives the
    canonical form that reducing at every node would, as Z[t] is a domain.
    """
    tokens = [*_tokenize(text), None]

    # each rule takes the index of its first token and returns (num, den,
    # next index); den is None when num is a monomial (c, s)
    def expr(i, depth):
        acc, den, op = [], (1,), "+"
        while True:
            n, d, i = term(i, depth)
            if d is None and den == (1,):  # c*t^s adds into coefficient s
                acc += [0] * (n[1] + 1 - len(acc))
                acc[n[1]] += n[0] if op == "+" else -n[0]
            else:
                if d is None:
                    n, d = _monomial(n), (1,)
                if d != den:  # the terms of a polynomial all have den 1
                    acc, n, den = list(_product(poly(acc), d, text)), _product(n, den, text), _product(den, d, text)
                acc += [0] * (len(n) - len(acc))
                for j, x in enumerate(n):
                    acc[j] += x if op == "+" else -x
            op = tokens[i]
            if op != "+" and op != "-":
                return poly(acc), den, i
            i += 1

    def term(i, depth):
        num, den, i = factor(i, depth)
        op = tokens[i]
        while op == "*" or op == "/":
            n, d, i = factor(i + 1, depth)
            if op == "*" and den is None and d is None:  # checked as _product checks c*t^s
                c = num[0] * n[0]
                num = (c, num[1] + n[1]) if c else (0, 0)
                size_check(num[1] + 1, c.bit_length(), "a product or power", text)
            else:
                if den is None:
                    num, den = _monomial(num), (1,)
                if d is None:
                    n, d = _monomial(n), (1,)
                if op == "/":
                    if not n:  # only a divisor's num can be zero here
                        raise ParseError(f"division by zero in {text!r}")
                    n, d = d, n
                num, den = _product(num, n, text), _product(den, d, text)
            op = tokens[i]
        return num, den, i

    def factor(i, depth):
        sign, tok = 1, tokens[i]
        while tok == "+" or tok == "-":
            if tok == "-":
                sign = -sign
            i += 1
            tok = tokens[i]
        if tok == "(":
            if depth == _NESTING_LIMIT:
                raise ParseError(f"parentheses nested deeper than {_NESTING_LIMIT} in {text!r}")
            num, den, i = expr(i + 1, depth + 1)
            if tokens[i] != ")":
                raise ParseError(f"unexpected token {tokens[i]!r} in {text!r}")
            i += 1
        elif tok == "t" or isinstance(tok, int):
            num, den, i = (1, 1) if tok == "t" else (tok, 0), None, i + 1
        else:
            raise ParseError(f"unexpected token {tok!r} in {text!r}")
        while tokens[i] == "^":
            exp = tokens[i + 1]
            if not isinstance(exp, int) or exp > _EXPONENT_LIMIT:
                if exp is None:
                    raise ParseError(f"unexpected token None in {text!r}")
                raise ParseError(f"exponent must be an integer 0..{_EXPONENT_LIMIT} in {text!r}")
            if den is None:  # checked as _power checks c*t^s
                if num[0] and num != (1, 0):
                    size_check(exp * num[1] + 1, exp * (abs(num[0]) - 1).bit_length() + 1, "a product or power", text)
                num = num[0] ** exp, num[1] * exp
            else:
                num, den = _power(num, exp, text), _power(den, exp, text)
            i += 2
        if sign == 1:
            return num, den, i
        return ((-num[0], num[1]) if den is None else poly_neg(num)), den, i

    num, den, i = expr(0, 0)
    if i != len(tokens) - 1:
        raise ParseError(f"trailing input after position {i} in {text!r}")
    return RationalFunction.make(num, den)


def size_check(entries: int, bits: int, what: str, text: str) -> None:
    """ParseError naming `what` and `text` unless `entries` numbers of
    `bits` bits and a 64-bit pointer each fit in _SIZE_LIMIT bits."""
    if entries * (64 + bits) > _SIZE_LIMIT:
        raise ParseError(f"{what} past the size bound of {_SIZE_LIMIT} bits in {text!r}")


def _product(p: tuple, q: tuple, text: str) -> tuple:
    """p*q, checked before it is built: |p|_1 * |q|_1 bounds its coefficients."""
    if p == (1,) or q == (1,):
        return q if p == (1,) else p
    if not (p and q):
        return ()
    size_check(len(p) + len(q) - 1, (sum(map(abs, p)) * sum(map(abs, q))).bit_length(), "a product or power", text)
    return poly_mul(p, q)


def _monomial(m: tuple) -> tuple:
    """The polynomial c*t^s of the monomial m = (c, s)."""
    return (0,) * m[1] + (m[0],) if m[0] else ()


def _power(p: tuple, k: int, text: str) -> tuple:
    """p^k, checked before it is built, by J. C. P. Miller's recurrence
    (Knuth, TAOCP vol. 2, 4.7) on p = t^s (p_0 + ... + p_n t^n), p_0 != 0:
    q = (p/t^s)^k has q_0 = p_0^k and
    m p_0 q_m = sum_{j=1..min(m,n)} ((k+1)j - m) p_j q_(m-j),
    a division that is exact in integers.  The sum runs over the nonzero
    p_j only, so a base with w of them takes O(w n k) steps, and a monomial
    c t^s (n = 0) gives c^k t^(sk) with no step at all.  No coefficient
    exceeds N^k for N = |p|_1, and N <= 2^bit_length(N - 1)."""
    if not p:
        return p if k else (1,)
    size_check(k * (len(p) - 1) + 1, k * (sum(map(abs, p)) - 1).bit_length() + 1, "a product or power", text)
    s = next(i for i, x in enumerate(p) if x)
    p = p[s:]
    terms = [(j, x) for j, x in enumerate(p) if x and j]
    q = [p[0] ** k]
    for m in range(1, (len(p) - 1) * k + 1):
        total = sum([((k + 1) * j - m) * x * q[m - j] for j, x in terms if j <= m])
        q.append(total // (m * p[0]))
    return (0,) * (s * k) + tuple(q)


def _tokenize(text: str) -> list:
    """Literals, `t`, operators and parentheses; any other non-space raises."""
    out = _TOKEN.findall(text)
    for i, tok in enumerate(out):
        if tok[0] in "0123456789":  # not str.isdigit, which takes '\u0663' and '\u00b2'
            out[i] = int(tok)
        elif tok not in "-t+*/^()":
            raise ParseError(f"unexpected character {tok!r} in {text!r}")
    if not out:
        raise ParseError("empty input")
    return out
