"""Orbifold contributions, Dedekind sums, degree contributions, and
Hilbert-series assembly/splitting.

Two independent Dedekind-sum oracles are used: a high-precision numeric
root-of-unity sum (mpmath) and an exact polynomial-inverse route working
modulo 1 + t + ... + t^(r-1).
"""

import importlib.util
import random
import re
import time
import tracemalloc
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import mpmath
import pytest

from delpezzo import (
    DeltaVector,
    Singularity,
    assemble_series,
    basket,
    dedekind_sum,
    degree_contribution,
    discrepancies,
    hj_expansion,
    hyperplane_inverse,
    orbifold_contribution,
    parse_rational_function,
    shatterings,
    split_series,
)
from delpezzo import exactalg, hilbert, quiver, reconstruct
from delpezzo.cli import fmt_rational_function
from delpezzo.errors import (
    AmbiguousDecomposition,
    DelPezzoError,
    NonIntegralDelta,
    NotASurfaceSeries,
    ParseError,
)
from delpezzo.exactalg import (
    RationalFunction,
    column_echelon,
    cyclotomic,
    poly,
    poly_content,
    poly_div_exact,
    poly_divmod,
    poly_mul,
    poly_primitive,
    poly_scale,
    poly_sub,
)
from delpezzo.hilbert import (
    _candidate_indices,
    _divisor_closure,
    _floor_sum,
    _frame,
    _scan_bound,
    basket_contributions,
    zero_delta,
)
from delpezzo.quiver import delta_lattice
from delpezzo.reconstruct import residuals_of_index

rng = random.Random(20260824)


def poly_inverse_mod(f, h):
    """u with f*u = 1 (mod h), deg u < deg h, over Q, for coprime f and h:
    the extended Euclidean algorithm over Q[t]."""
    r0, r1 = h, f
    s0, s1 = (), (1,)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    return poly_divmod(poly_scale(s0, Fraction(1) / r0[0]), h)[1]


def initial_term(k_squared):
    """(1 + (K^2 - 2) t + t^2) / (1 - t)^3 with exact rational K^2."""
    p, q = Fraction(k_squared).as_integer_ratio()
    return RationalFunction.make((q, p - 2 * q, q), (q, -3 * q, 3 * q, -q))


def random_singularity(max_ell):
    while True:
        ell = rng.randint(2, max_ell)
        k = rng.randint(1, 2 * ell)
        c = rng.choice([x for x in range(1, ell) if gcd(x, ell) == 1])
        r, a = k * ell, k * c - 1
        if a >= 1 and gcd(r, a) == 1:
            return Singularity(r, a)


class TestDedekindSum:
    def test_pinned_small_values(self):
        assert dedekind_sum(5, 1, 0) == 0
        assert dedekind_sum(5, 1, 1) == Fraction(-2, 5)

    def test_against_numeric_root_of_unity_oracle(self):
        """delta_{r,a,i} = (1/r) sum_{xi^r=1, xi!=1} xi^i/((1-xi)(1-xi^a)),
        evaluated in 25-digit arithmetic; agreement within 1e-9 for r <= 60."""
        mpmath.mp.dps = 25
        for r in range(2, 61):
            roots = [mpmath.expjpi(mpmath.mpf(2 * j) / r) for j in range(1, r)]
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                weights = [1 / ((1 - x) * (1 - x**a)) for x in roots]
                for i in (0, 1, 2, a % r, (a + 1) % r, r - 1):
                    numeric = sum(x**i * w for x, w in zip(roots, weights)) / r
                    exact = dedekind_sum(r, a, i)
                    assert abs(numeric.real - float(exact)) < 1e-9
                    assert abs(numeric.imag) < 1e-9

    def test_against_polynomial_inverse_oracle(self):
        """Exact independent route: invert (1-t)(1-t^a) modulo
        1 + t + ... + t^(r-1) and read the sums off the coefficients."""
        for r in range(2, 31):
            h = poly([1] * r)
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                f = poly_mul(poly([1, -1]), poly([1] + [0] * (a - 1) + [-1]))
                g = poly_inverse_mod(f, h)
                total = sum(g)
                for i in range(r):
                    folded = sum(c for m, c in enumerate(g) if (m + i) % r == 0)
                    assert dedekind_sum(r, a, i) == Fraction(folded) - Fraction(total, r)

    def test_rejects_non_coprime(self):
        with pytest.raises(Exception):
            dedekind_sum(6, 2, 0)


class TestDeltaVectors:
    def test_pinned_res_plus_five(self):
        assert orbifold_contribution(Singularity(5, 1)).entries == (1, -2, 1)
        assert orbifold_contribution(Singularity(20, 3)).entries == (2, 1, 2)
        assert orbifold_contribution(Singularity(10, 1)).entries == (3, 4, 3)
        assert orbifold_contribution(Singularity(15, 2)).entries == (1, 3, 1)

    def test_inverse_negates_delta(self):
        for ell in range(3, 13):
            for s in residuals_of_index(ell):
                q = orbifold_contribution(s)
                qi = orbifold_contribution(hyperplane_inverse(s))
                assert tuple(-x for x in q.entries) == qi.entries

    def test_palindromic_integral_zero_ends(self):
        for ell in range(3, 21):
            for s in residuals_of_index(ell):
                q = orbifold_contribution(s)
                assert q.local_index == ell
                assert q.is_palindromic()
                full = q.full()
                assert full[0] == 0 and full[-1] == 0
                assert all(isinstance(x, int) for x in q.entries)

    def test_dual_invariance(self):
        for ell in range(3, 13):
            for s in residuals_of_index(ell):
                assert orbifold_contribution(s.dual()) == orbifold_contribution(s)

    def test_additivity_over_shatterings(self):
        for _ in range(200):
            s = random_singularity(8)
            q = orbifold_contribution(s)
            a = degree_contribution(s)
            for parts in shatterings(s):
                q_sum = zero_delta(s.local_index)
                for p in parts:
                    q_sum = q_sum + orbifold_contribution(p)
                assert q_sum == q
                assert sum(degree_contribution(p) for p in parts) == a


def _contribution_by_division(s):
    """The defining formula, kept as the oracle: r Dedekind sums give the
    numerator over 1 - t^r, then an exact division over Q by
    1 + t^l + ... + t^(r-l) gives the numerator over l(1 - t^l)."""
    ell, r, a = s.local_index, s.r, s.a
    d0 = dedekind_sum(r, a, 0)
    num = poly([dedekind_sum(r, a, (a + 1) * i) - d0 for i in range(1, r + 1)])
    if not num:
        return zero_delta(ell)
    comb = poly([1 if i % ell == 0 else 0 for i in range(r - ell + 1)])
    full = [Fraction(0)] * ell
    for i, x in enumerate(poly_div_exact(num, comb)):
        full[i] = ell * Fraction(x)
    assert all(x.denominator == 1 for x in full)
    assert full[0] == 0 and full[ell - 1] == 0
    return DeltaVector(ell, tuple(int(x) for x in full[1 : ell - 1]))


def _dedekind_totals(r, a):
    """T(i) = sum_j j*(u(i+j) mod r) for i = 0..r-1, where u = -a^-1 mod r,
    so that dedekind_sum(r, a, i) = T(i)/r^2 - (r-1)^2/(4r).  The O(r)
    kernel that the floor-sum prefix sums replaced, kept as their oracle:
    one O(r) sum gives T(0), and T(i+1) = T(i) + r*(u*i mod r) - r(r-1)/2.
    """
    u = -pow(a, -1, r) % r
    half = r * (r - 1) // 2
    totals = [sum(j * (u * j % r) for j in range(r))]
    for i in range(r - 1):
        totals.append(totals[-1] + r * (u * i % r) - half)
    return totals


def _periodic_quotient(coeffs, ell):
    """coeffs / (1 + t^l + ... + t^(n-l)) for n = len(coeffs), a multiple of
    l: exact exactly when the coefficients are l-periodic, and the quotient
    is then the first l."""
    head = list(coeffs[:ell])
    if any(x != head[k % ell] for k, x in enumerate(coeffs)):
        raise RuntimeError(f"numerator is not {ell}-periodic: inexact division")
    return head


def _contribution_by_totals(s):
    """The O(r) delta-vector: the r totals give r^2 times the numerator over
    1 - t^r, and the periodic quotient divides it down to l(1 - t^l)."""
    ell, r, a = s.local_index, s.r, s.a
    totals = _dedekind_totals(r, a)
    num = [totals[(a + 1) * (k + 1) % r] - totals[0] for k in range(r)]
    full = []
    for x in _periodic_quotient(num, ell):
        q, rem = divmod(ell * x, r * r)
        assert not rem
        full.append(q)
    assert full[0] == full[-1] == 0
    return DeltaVector(ell, tuple(full[1:-1]))


class TestIntegerKernel:
    """orbifold_contribution uses l floor-sum prefix sums; the O(r) totals
    recurrence, the Dedekind sums and the long division over Q are its
    oracles."""

    def test_totals_recurrence_matches_dedekind_sums(self):
        for r in (2, 3, 12, 35, 97):
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                totals = _dedekind_totals(r, a)
                assert len(totals) == r
                for i, t in enumerate(totals):
                    assert Fraction(t, r * r) - Fraction((r - 1) ** 2, 4 * r) == (
                        dedekind_sum(r, a, i)
                    ), (r, a, i)

    def test_floor_sum_matches_the_direct_sum(self):
        local = random.Random(99)
        for _ in range(2000):
            n, m = local.randint(0, 60), local.randint(1, 80)
            a, b = local.randint(0, 200), local.randint(0, 200)
            assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

    def test_agrees_with_totals_for_every_point_up_to_200(self):
        for r in range(2, 201):
            for a in range(1, r):
                if gcd(r, a) == 1:
                    s = Singularity(r, a)
                    assert orbifold_contribution.__wrapped__(s) == _contribution_by_totals(s), s

    def test_agrees_with_totals_at_random_orders_up_to_5000(self):
        local = random.Random(8128)
        for _ in range(300):
            r = local.randint(2, 5000)
            a = local.randrange(1, r)
            while gcd(r, a) != 1:
                a = local.randrange(1, r)
            s = Singularity(r, a)
            assert orbifold_contribution.__wrapped__(s) == _contribution_by_totals(s), s

    def test_agrees_with_division_on_random_points(self):
        local = random.Random(4711)
        for _ in range(300):
            r = local.randint(2, 300)
            a = local.choice([x for x in range(1, r) if gcd(r, x) == 1])
            s = Singularity(r, a)
            assert orbifold_contribution(s) == _contribution_by_division(s), s

    @pytest.mark.parametrize("r,a", [(1001, 3), (2003, 5)])
    def test_agrees_with_division_at_large_order(self, r, a):
        s = Singularity(r, a)
        assert orbifold_contribution(s) == _contribution_by_division(s)

    def test_periodic_quotient_is_exact_division(self):
        """Dividing by 1 + t^l + ... + t^(n-l) is exact exactly when the n
        coefficients are l-periodic; the quotient is then the first l."""
        local = random.Random(1729)
        for _ in range(400):
            ell, m = local.randint(1, 8), local.randint(1, 6)
            coeffs = [local.randint(-5, 5) for _ in range(ell)] * m
            if m > 1 and local.random() < 0.5:
                coeffs[local.randrange(ell * m)] += local.choice((-1, 1))
            comb = poly([1 if i % ell == 0 else 0 for i in range(ell * (m - 1) + 1)])
            try:
                expected = poly_div_exact(poly(coeffs), comb)
            except ValueError:
                with pytest.raises(RuntimeError, match="periodic"):
                    _periodic_quotient(coeffs, ell)
            else:
                assert poly(_periodic_quotient(coeffs, ell)) == expected

    @pytest.mark.parametrize(
        "bump,message",
        [
            # +1 on every S(jg) but S(0): delta_k moves by 1/g = 1/2
            (lambda S: [S[0]] + [x + 1 for x in S[1:]], "non-integral"),
            # +g at S(g*j_0), j_0 = (a+1)/g = 1, raises delta_0 by 1
            (lambda S: S[:1] + [S[1] + 2] + S[2:], "ends"),
            # +g at S(g*j_1), j_1 = 2, raises delta_1 but not delta_3
            (lambda S: S[:2] + [S[2] + 2] + S[3:], "palindromic"),
        ],
        ids=["integral", "ends", "palindrome"],
    )
    def test_soundness_checks_raise(self, monkeypatch, bump, message):
        """Corrupted prefix sums are caught by an explicit raise, which also
        runs under python -O.  1/10(1,1) has l = 5 and width g = 2."""
        s = Singularity(10, 1)
        sums = hilbert._prefix_sums(10, 9, 5)  # u = -1^-1 mod 10 = 9
        assert orbifold_contribution.__wrapped__(s).entries == (3, 4, 3)
        monkeypatch.setattr(hilbert, "_prefix_sums", lambda r, u, ell: bump(sums))
        with pytest.raises(RuntimeError, match=message):
            orbifold_contribution.__wrapped__(s)


class TestDegreeContribution:
    def test_pinned_values(self):
        assert degree_contribution(Singularity(5, 1)) == Fraction(1, 5)
        assert degree_contribution(Singularity(20, 11)) == Fraction(4, 5)
        assert degree_contribution(Singularity(20, 3)) == Fraction(-8, 5)
        assert degree_contribution(Singularity(10, 1)) == Fraction(-22, 5)

    def test_hj_expansion_pinned(self):
        exp = hj_expansion(5, 2)
        assert exp.terms == (3, 2)
        assert exp.target == Fraction(5, 2)

    def test_hj_reconstructs_target(self):
        for _ in range(100):
            q = rng.randint(2, 60)
            p = rng.choice([x for x in range(q + 1, 3 * q) if gcd(x, q) == 1])
            exp = hj_expansion(p, q)
            val = Fraction(exp.terms[-1])
            for b in reversed(exp.terms[:-1]):
                val = b - 1 / val
            assert val == Fraction(p, q)
            assert all(b >= 2 for b in exp.terms)

    def test_discrepancies_in_range(self):
        for _ in range(100):
            s = random_singularity(8)
            if s.is_smooth:
                continue
            d = discrepancies(hj_expansion(s.r, s.a))
            assert all(Fraction(-1) < x <= 0 for x in d)

    def test_discrepancies_solve_the_adjunction_system(self):
        """-b_i d_i + d_{i-1} + d_{i+1} = b_i - 2 with d_0 = d_{m+1} = 0,
        checked by substitution for every 1/r(1,a) with r <= 150; the
        system is negative definite, so this pins d."""
        for r in range(2, 151):
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                b = hj_expansion(r, a).terms
                d = [0, *discrepancies(hj_expansion(r, a)), 0]
                assert len(d) == len(b) + 2
                for i, bi in enumerate(b, start=1):
                    assert -bi * d[i] + d[i - 1] + d[i + 1] == bi - 2, (r, a, i)

    def test_a_plus_a_inverse_is_one(self):
        for ell in range(3, 13):
            for s in residuals_of_index(ell):
                total = degree_contribution(s) + degree_contribution(
                    hyperplane_inverse(s)
                )
                assert total == 1

    def test_closed_form_matches_discrepancies(self):
        """A = m + 1 - sum d_i^2 b_i + 2 sum d_i d_{i+1}, with d from the
        adjunction system, is the oracle for the closed form."""
        for r in range(2, 151):
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                s = Singularity(r, a)
                if s.is_smooth:
                    continue
                exp = hj_expansion(r, a)
                b, d, m = exp.terms, discrepancies(exp), len(exp.terms)
                expected = (
                    m
                    + 1
                    - sum(d[i] ** 2 * b[i] for i in range(m))
                    + 2 * sum(d[i] * d[i + 1] for i in range(m - 1))
                )
                assert degree_contribution(s) == expected, s


class TestTSingularityLaws:
    def test_q_zero_and_a_equals_d(self):
        for d in range(1, 5):
            for n in range(2, 6):
                for c in range(1, n + 1):
                    if gcd(n, c) != 1:
                        continue
                    r, a = d * n * n, d * n * c - 1
                    if gcd(r, a) != 1:
                        continue
                    s = Singularity(r, a)
                    assert orbifold_contribution(s).is_zero
                    assert degree_contribution(s) == d

    def test_converse_residuals_have_nonzero_q(self):
        """Every residual with r <= 200 has Q != 0, witnessed by a Dedekind
        coefficient differing from the constant one (early exit keeps this
        an exact but fast sweep)."""
        for r in range(2, 201):
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                s = Singularity(r, a)
                if not 0 < s.width < s.local_index:
                    continue
                d0 = dedekind_sum(r, a, 0)
                assert any(
                    dedekind_sum(r, a, (a + 1) * i) != d0 for i in range(1, r)
                ), s


class TestSeriesRoundTrip:
    def random_basket(self, max_ell=10, max_size=4):
        return basket(
            [random_singularity(max_ell) for _ in range(rng.randint(0, max_size))]
        )

    def test_split_of_assemble_is_identity(self):
        for _ in range(100):
            b = self.random_basket()
            k2 = Fraction(rng.randint(1, 60), rng.randint(1, 10))
            hs = assemble_series(b, k2)
            k2_back, parts = split_series(hs.series)
            assert k2_back == k2
            assert parts == hs.orbifold_parts
            expected = {}
            for s in b:
                q = orbifold_contribution(s)
                if q.is_zero:
                    continue
                ell = q.local_index
                expected[ell] = expected.get(ell, zero_delta(ell)) + q
            expected = {k: v for k, v in expected.items() if not v.is_zero}
            assert parts == expected

    def test_initial_term_series(self):
        rf = initial_term(Fraction(9))
        assert rf.series_coefficients(4) == [1, 10, 28, 55]
        assert split_series(rf) == (Fraction(9), {})

    def test_smooth_coefficients_match_riemann_roch(self):
        hs = assemble_series(basket([]), Fraction(1))
        # h^0(-mK) = 1 + m(m+1)/2 K^2 for the smooth del Pezzo of degree 1
        assert hs.coefficients(6) == [1 + m * (m + 1) // 2 for m in range(6)]

    @pytest.mark.parametrize(
        "points",
        [
            ((6, 1), (24, 19), (24, 19)),
            ((3, 1), (12, 1), (12, 1)),
            ((8, 1), (16, 5), (16, 5)),
            ((5, 1), (40, 11), (40, 11)),
            ((12, 1), (48, 19), (48, 19)),
            ((12, 1), (48, 19), (120, 49)),
        ],
        ids=lambda points: "+".join(f"1/{r}(1,{a})" for r, a in points),
    )
    def test_split_keeps_a_part_whose_cyclotomic_factor_cancels(self, points):
        """Baskets over two nested indices l | l'.  For the first, the l=3
        part t/(3(1-t^3)) is also (2t + 2t^4)/(6(1-t^6)), and Phi_3 is gone
        from the denominator of the sum; the split must still return the
        assembled parts at both indices."""
        b = basket([Singularity(r, a) for r, a in points])
        hs = assemble_series(b, 1)
        small, large = sorted(hs.orbifold_parts)
        assert large % small == 0
        assert split_series(hs.series) == (Fraction(1), hs.orbifold_parts)

    @pytest.mark.parametrize("text", ["1/t", "(1+t)/(t-t^2)"])
    def test_pole_at_zero_is_not_a_surface_series(self, text):
        with pytest.raises(NotASurfaceSeries, match="pole at t=0"):
            split_series(parse_rational_function(text))

    def test_fold_example_parts(self):
        b = basket([Singularity(6, 1), Singularity(24, 19), Singularity(24, 19)])
        assert assemble_series(b, 1).orbifold_parts == {
            3: DeltaVector(3, (1,)),
            6: DeltaVector(6, (-8, -12, -12, -8)),
        }


def _assemble_by_addition(b, k2) -> RationalFunction:
    """Oracle: the earlier assembly, the initial term plus each part's
    rational_function(), one reducing gcd per addition."""
    parts = basket_contributions(b)
    series = initial_term(Fraction(k2))
    for v in parts.values():
        series = series + v.rational_function()
    return series


def _split_by_remainder(H):
    """Oracle: the earlier split, K^2 from the triple pole at t=1 and then the
    remainder H - initial_term(K^2) solved over the delta-lattices."""
    if H.den[0] == 0:
        raise NotASurfaceSeries("series has a pole at t=0")
    if H.is_zero() or H.series_coefficients(1)[0] != 1:
        raise NotASurfaceSeries("constant term must be 1")
    if H.pole_order_at_one() != 3:
        raise NotASurfaceSeries("series must have a triple pole at t=1")
    cube = RationalFunction.make(poly_mul((1, -1), poly_mul((1, -1), (1, -1))), (1,))
    k_squared = (H * cube).eval(1)
    remainder = H - initial_term(k_squared)
    if remainder.is_zero():
        return k_squared, {}
    candidates = _candidate_indices(remainder.den)
    if not candidates:
        raise NotASurfaceSeries("remainder has no cyclotomic pole structure")
    bases = [(ell, g) for ell in candidates for g in delta_lattice(ell).basis]
    common = poly((1,))
    for n in {n for ell in candidates for n in range(1, ell + 1) if ell % n == 0}:
        common = poly_mul(common, cyclotomic(n))
    c = poly_content(remainder.den)
    cofactor, rest = poly_divmod(common, poly_primitive(remainder.den))
    if rest:
        raise NotASurfaceSeries("denominator has non-cyclotomic factors")
    lcm = 1
    for ell in candidates:
        lcm = lcm * ell // gcd(lcm, ell)
    rhs = poly_scale(poly_mul(remainder.num, cofactor), lcm)
    scaled = {
        ell: poly_scale(poly_divmod(common, poly([1] + [0] * (ell - 1) + [-1]))[0], c * (lcm // ell))
        for ell in candidates
    }
    cols = [poly_mul(poly([0, *g]), scaled[ell]) for ell, g in bases]
    nrows = max([len(rhs)] + [len(col) for col in cols])
    matrix = [[col[i] if i < len(col) else 0 for col in cols] for i in range(nrows)]
    coeffs = _gauss_solve_over_q(matrix, [rhs[i] if i < len(rhs) else 0 for i in range(nrows)])
    if coeffs is None:
        raise AmbiguousDecomposition("decomposition solver has a nontrivial nullspace")
    out = {}
    for (ell, g), x in zip(bases, coeffs):
        acc = out.setdefault(ell, [0] * (ell - 2))
        for i, e in enumerate(g):
            acc[i] += x * e
    parts = {}
    for ell, values in out.items():
        if any(Fraction(x).denominator != 1 for x in values):
            raise NonIntegralDelta(f"non-integer delta at index {ell}")
        v = DeltaVector(ell, tuple(int(x) for x in values))
        if not v.is_zero:
            parts[ell] = v
    return k_squared, dict(sorted(parts.items()))


def _outcome(split, H):
    """The split's value, or the class of the library error it raised."""
    try:
        return split(H)
    except DelPezzoError as exc:
        return type(exc)


class TestFrameOracle:
    """assemble_series and split_series over the cached frame against the
    RationalFunction arithmetic that they replaced."""

    NESTED = ((3, 6), (3, 9), (3, 12), (4, 8), (4, 12), (5, 10), (5, 15), (6, 12), (7, 14))

    def point(self, local, ell):
        """A point 1/r(1,a) of local index l, with r = k*l and a = k*c - 1."""
        while True:
            k = local.randint(1, 2 * ell)
            c = local.choice([x for x in range(1, ell) if gcd(x, ell) == 1])
            if k * c > 1 and gcd(k * ell, k * c - 1) == 1:
                return Singularity(k * ell, k * c - 1)

    def baskets(self, local, count):
        """Baskets of up to 4 points with l <= 15, every other one holding
        two points at nested indices l | l'."""
        for i in range(count):
            ells = [local.randint(2, 15) for _ in range(local.randint(0, 4))]
            if i % 2:
                ells[:2] = local.choice(self.NESTED)
            yield basket([self.point(local, ell) for ell in ells])

    def test_assemble_and_split_match_the_oracle(self):
        local = random.Random(20261018)
        nested = 0
        for b in self.baskets(local, 320):
            k2 = Fraction(local.randint(1, 120), local.randint(1, 30))
            hs = assemble_series(b, k2)
            expected = _assemble_by_addition(b, k2)
            assert (hs.series.num, hs.series.den) == (expected.num, expected.den), b
            assert split_series(hs.series) == _split_by_remainder(expected) == (k2, hs.orbifold_parts)
            ells = sorted(hs.orbifold_parts)
            nested += any(m % l == 0 for l in ells for m in ells if m > l)
        assert nested >= 60

    @pytest.mark.parametrize(
        "points",
        [((8, 5),) * 4, ((3, 1),) * 9, ((48, 41), (16, 9)), ((6, 1), (16, 1), (24, 19))],
        ids=["4x1/8(1,5)", "9x1/3(1,1)", "1/48(1,41)+1/16(1,9)", "mixed"],
    )
    def test_assembly_where_the_poles_at_one_cancel(self, points):
        """At K^2 = 0 the initial term is 1/(1-t); where the parts' residues
        at t=1, sum(delta)/l^2, add up to -1, the pole at t=1 cancels and
        Phi_1 leaves the denominator three times."""
        b = basket([Singularity(r, a) for r, a in points])
        expected = _assemble_by_addition(b, 0)
        got = assemble_series(b, 0).series
        assert (got.num, got.den) == (expected.num, expected.den)

    def test_rejected_series_raise_the_same_class(self):
        """The series that `analyze` must refuse: a valid series scaled by 2
        or by 1 - t or plus a power of t (a numerator of higher degree than
        any part's), and the initial term plus a palindromic delta-vector off
        the delta-lattice; both paths give the same answer or error class."""
        local = random.Random(20261019)
        seen = set()
        for b in self.baskets(local, 60):
            hs = assemble_series(b, Fraction(local.randint(1, 60), local.randint(1, 12)))
            power = RationalFunction.make((0,) * local.randint(1, 40) + (1,))
            for H in (RationalFunction.make((2,)) * hs.series, RationalFunction.make((1, -1)) * hs.series,
                      hs.series + power):
                assert _outcome(split_series, H) is _outcome(_split_by_remainder, H) is NotASurfaceSeries
        for ell in (6, 8, 9, 10, 12, 14, 15):
            lattice, n = delta_lattice(ell), ell - 2
            for j in range((n + 1) // 2):
                delta = [int(i in (j, n - 1 - j)) for i in range(n)]
                for g in lattice.generators:
                    c = local.randint(-2, 2)
                    delta = [x + c * y for x, y in zip(delta, g)]
                k2 = Fraction(local.randint(1, 60), ell)
                H = initial_term(k2) + DeltaVector(ell, tuple(delta)).rational_function()
                got = _outcome(split_series, H)
                assert got == _outcome(_split_by_remainder, H), (ell, delta)
                seen.add(got if isinstance(got, type) else "split")
        assert {"split", NonIntegralDelta} <= seen

    def test_dependent_columns_raise_ambiguous(self, monkeypatch):
        """No frame has dependent columns, so the split's check is reached
        through a frame whose last column is given twice: the series still
        solves, but not uniquely."""
        hs = assemble_series(basket([Singularity(5, 1), Singularity(7, 1)]), Fraction(3))
        frame = _frame(tuple(_candidate_indices(hs.series.den)))
        _, bases = frame.system
        cols = [frame.degree] + [poly_mul(frame.parts[ell], (0, *b)) for ell, b in bases]
        cols.append(cols[-1])
        nrows = max(map(len, cols))
        padded = [[*col, *[0] * (nrows - len(col))] for col in cols]
        echelon = column_echelon(padded)
        monkeypatch.setitem(frame.__dict__, "system", (echelon, [*bases, bases[-1]]))
        with pytest.raises(AmbiguousDecomposition) as info:
            split_series(hs.series)
        # the message names a kernel vector: K^2, then basis coefficients per l
        k2 = re.search(r"K\^2=(-?\d+)", str(info.value))
        per_index = dict(re.findall(r"l=(\d+):\(([-\d, ]*)\)", str(info.value)))
        assert sorted(map(int, per_index)) == sorted(frame.parts)
        kernel = [int(k2.group(1))]
        for ell in frame.parts:
            kernel += [int(x) for x in per_index[str(ell)].split(",") if x.strip()]
        assert len(kernel) == len(cols) and any(kernel)
        assert not any(sum(x * r for x, r in zip(kernel, row)) for row in zip(*padded))
        monkeypatch.undo()
        assert split_series(hs.series) == (Fraction(3), hs.orbifold_parts)


class TestWorkPins:
    """Counted kernel calls, so that a regression in the work of the front
    end fails without a timing test."""

    def counter(self, monkeypatch, module, name):
        calls = [0]
        kernel = getattr(module, name)

        def counted(*args):
            calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_split_makes_no_gcd_and_assemble_at_most_one(self, monkeypatch):
        b = basket([Singularity(6, 1), Singularity(24, 19), Singularity(5, 2), Singularity(7, 1)])
        for cold in (True, False):
            if cold:
                _frame.cache_clear()
            gcds = self.counter(monkeypatch, exactalg, "poly_gcd_primitive")
            hs = assemble_series(b, Fraction(7, 3))
            assert gcds[0] <= 1
            gcds[0] = 0
            assert split_series(hs.series) == (Fraction(7, 3), hs.orbifold_parts)
            assert gcds[0] == 0
            monkeypatch.undo()

    def test_warm_split_runs_no_elimination(self, monkeypatch):
        """The frame keeps the column echelon form of its matrix: the first
        split over a frame eliminates once, every later one substitutes."""
        b = basket([Singularity(6, 1), Singularity(24, 19), Singularity(5, 2), Singularity(7, 1)])
        hs = assemble_series(b, Fraction(7, 3))
        _frame.cache_clear()
        modules = (hilbert, exactalg, quiver)
        for cold in (True, False):
            calls = [self.counter(monkeypatch, module, "column_echelon") for module in modules]
            assert split_series(hs.series) == (Fraction(7, 3), hs.orbifold_parts)
            assert calls[0][0] == cold and calls[1][0] == 0
            assert cold or calls[2][0] == 0
            monkeypatch.undo()

    def test_index_context_eliminates_phi_once(self, monkeypatch):
        """One elimination of Phi+ per local index: the kernel basis that G0
        is completed from is read off the echelon form that also gives the
        particular solutions."""
        delta = orbifold_contribution(Singularity(7, 1))
        delta_lattice(7)  # the lattice's own elimination is not of Phi+
        reconstruct._index_context.cache_clear()
        calls = [self.counter(monkeypatch, module, "column_echelon") for module in (reconstruct, exactalg)]
        assert len(reconstruct.enumerate_reduced_baskets(7, delta).baskets) == 35
        assert calls[0][0] + calls[1][0] == 1

    @pytest.mark.parametrize(
        "r,a,ell", [(1_000_000, 499_999, 2), (700_000, 199_999, 7), (3_003_000, 14_999, 1001)]
    )
    def test_delta_costs_l_floor_sums_and_no_list_of_length_r(self, monkeypatch, r, a, ell):
        """O(l log r) time and O(l) memory: at most l - 1 floor sums, and
        a peak allocation of at most a kilobyte per unit of l, below one
        byte per unit of r (a list of length r takes eight)."""
        s = Singularity(r, a)
        assert s.local_index == ell
        calls = self.counter(monkeypatch, hilbert, "_floor_sum")
        tracemalloc.start()
        dv = orbifold_contribution.__wrapped__(s)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert calls[0] <= s.local_index - 1
        assert peak < min(r, 1024 * ell), peak
        assert dv.is_palindromic() and dv.local_index == s.local_index

    @pytest.mark.parametrize(
        "text, most",
        [("t^500", 0), ("(3*t^2)^500", 2), ("(1+t)^500", 2 * 9), ("(1-t)^500/(1+t)^3", 2 * 9 + 2 * 2 + 1)],
    )
    def test_powers_take_logarithmically_many_products(self, monkeypatch, text, most):
        """A monomial base c*t^j is raised at once; any other by Miller's
        recurrence, which forms no product, so the count stays within two
        products per bit of the exponent.  `most` also counts the products
        that build the base and join the quotient."""
        muls = self.counter(monkeypatch, hilbert, "poly_mul")
        rf = parse_rational_function(text)
        assert muls[0] <= most
        assert rf == _parse_by_reduction(text)


def _phi_sieve(bound: int) -> list[int]:
    """Euler's phi(n) for n = 0..bound, by a sieve over the primes."""
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for m in range(p, bound + 1, p):
                phi[m] -= phi[m] // p
    return phi


def _candidates_by_division(den) -> list[int]:
    """The trial division that the binomial peel replaced, kept as its
    oracle: each Phi_n with phi(n) at most the degree left is divided out
    for as long as it divides, until den is a unit."""
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


def _workload_denominators() -> set:
    """The denominators of every series of analyze_text and series_roundtrip
    at seed 1, drawn as perfbench/run.py draws them (4 and 150 rounds)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    dens = set()
    rounds, _ = workloads.AnalyzeText().generate(random.Random("analyze_text:1"), 4)
    for op in (op for ops in rounds for op in ops):
        dens.add(parse_rational_function(op["text"]).den)
    rounds, _ = workloads.SeriesRoundtrip().generate(random.Random("series_roundtrip:1"), 150)
    for op in (op for ops in rounds for op in ops):
        dens.add(assemble_series(basket([Singularity(*p) for p in op["points"]]), op["k2"]).series.den)
    return dens


class TestCandidateIndices:
    """_candidate_indices peels binomials 1 - t^m off the denominator; its
    orders are those of trial division by every Phi_n."""

    def test_divisors_of_the_orders_found(self):
        den = poly_mul(cyclotomic(1), poly_mul(cyclotomic(12), cyclotomic(5)))
        assert _candidate_indices(poly_mul((3,), den)) == [3, 4, 5, 6, 12]

    @pytest.mark.parametrize("den", [(2, -1), (1, 1, 2), (1, -3, 1)])
    def test_non_cyclotomic_denominators_raise(self, den):
        with pytest.raises(NotASurfaceSeries):
            _candidate_indices(poly_mul(cyclotomic(7), den))

    def test_peel_matches_trial_division_on_random_products(self):
        """3,000 products of Phi_n, n < 40, with a content and a sign; one in
        five also has a random factor with unit ends, which is mostly not
        cyclotomic."""
        local = random.Random(17)
        rejected = 0
        for _ in range(3000):
            den = (local.choice((1, -1)) * local.randint(1, 6),)
            for _ in range(local.randint(0, 6)):
                den = poly_mul(den, cyclotomic(local.randrange(1, 40)))
            if local.random() < 0.2:
                extra = [local.choice((1, -1))] + [local.randint(-2, 2) for _ in range(local.randint(0, 5))]
                den = poly_mul(den, (*extra, local.choice((1, -1))))
            got, want = _outcome(_candidate_indices, den), _outcome(_candidates_by_division, den)
            assert got == want, den
            rejected += got is NotASurfaceSeries
        assert 300 < rejected < 600

    def test_peel_matches_trial_division_on_workload_denominators(self):
        dens = _workload_denominators()
        assert len(dens) > 500
        for den in dens:
            assert _candidate_indices(den) == _candidates_by_division(den), den

    def test_high_degree_binomial_takes_milliseconds(self):
        """(1 - t)^2 (1 - t^2000): the 18 divisors >= 3 of 2000, from two
        nonzero exponents, where trial division made one long division of the
        degree-2002 denominator for every n < 2000 with phi(n) below the
        degree.  The split of this series stays slow in _Frame.system's
        echelon form."""
        den = poly_mul((1, -2, 1), (1, *[0] * 1999, -1))
        start = time.perf_counter()
        got = _candidate_indices(den)
        assert time.perf_counter() - start < 1.0
        assert got == [d for d in range(3, 2001) if 2000 % d == 0] and len(got) == 18

    @pytest.mark.parametrize("den", [
        (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1),
        (1, -1, *[0] * 98, -1),
    ])
    def test_non_cyclotomic_factors_raise_quickly(self, den):
        """A non-cyclotomic factor makes the exponents c_m grow
        geometrically: Lehmer's polynomial fast, 1 - t - t^100 (a root of
        modulus about 1 - log(100)/100) slowly, from m = 100 on.  A c_m past
        D/phi(m), or deg A + deg B past D*b^2, raises long before A and B
        reach the degree the scan would stop at; without the second bound
        the second case takes several seconds."""
        for n in (12, 30, 35, 36, 39, 39):
            den = poly_mul(den, cyclotomic(n))
        start = time.perf_counter()
        with pytest.raises(NotASurfaceSeries, match="non-cyclotomic"):
            _candidate_indices(den)
        assert time.perf_counter() - start < 1.5

    def test_scan_bound_holds_for_every_degree_up_to_600(self):
        """Every n with phi(n) <= d lies below _scan_bound(d); phi(n) >=
        sqrt(n/2) puts every such n at most 2*600^2, where the sieve ends."""
        phi = _phi_sieve(2 * 600**2)
        largest = [0] * 601  # largest[d]: the largest n with phi(n) = d
        for n in range(1, len(phi)):
            if phi[n] <= 600:
                largest[phi[n]] = n
        for d in range(1, 601):
            largest[d] = max(largest[d], largest[d - 1])
            assert largest[d] < _scan_bound(d), d
        assert (_scan_bound(40), _scan_bound(2000)) == (400, 34_000)

    def test_lehmer_cubed_raises_quickly(self):
        """Lehmer's polynomial has unit end coefficients and no cyclotomic
        factor, so the exponents peeled off its cube grow until one passes
        its bound."""
        lehmer = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
        den = poly_mul(lehmer, poly_mul(lehmer, lehmer))
        h = initial_term(Fraction(3)) + RationalFunction.make((0, 1), den)
        assert (h - initial_term(Fraction(3))).den == den
        start = time.perf_counter()
        with pytest.raises(NotASurfaceSeries, match="non-cyclotomic"):
            split_series(h)
        assert time.perf_counter() - start < 5.0


def _gauss_solve_over_q(matrix, rhs):
    """The Gauss-Jordan solve over Fractions that the fraction-free one
    replaced, kept as its oracle."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    rank_row = 0
    for c in range(ncols):
        piv = next((i for i in range(rank_row, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank_row], rows[piv] = rows[piv], rows[rank_row]
        inv = 1 / rows[rank_row][c]
        rows[rank_row] = [x * inv for x in rows[rank_row]]
        for i in range(len(rows)):
            if i != rank_row and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank_row])]
        pivots.append(c)
        rank_row += 1
    for i in range(rank_row, len(rows)):
        if rows[i][ncols]:
            raise NotASurfaceSeries("series is not a sum of orbifold parts")
    if len(pivots) < ncols:
        return None
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = rows[i][ncols]
    return sol


def _echelon_substitute(echelon, b):
    """y over Q with A y = b and y zero off the pivot columns, or None when
    A y = b is inconsistent: the forward substitution that Echelon.solve
    took over, kept as its oracle."""
    A, U, pivots = echelon
    y = [0] * len(U)
    resid = list(b)
    pos = dict(pivots)
    for r in range(len(resid)):
        c = pos.get(r)
        if c is None:
            if resid[r]:
                return None
            continue
        col = A[c]
        q, rest = divmod(resid[r], col[r])
        y[c] = t = Fraction(resid[r], col[r]) if rest else q
        if t:
            for i in range(r + 1, len(resid)):
                if col[i]:
                    resid[i] -= t * col[i]
    return y


def _solve_by_echelon(matrix, rhs):
    """The split's solve, with the oracle's conventions: column_echelon,
    then Echelon.solve for (x, d); NotASurfaceSeries when inconsistent,
    None when the columns are dependent.  Every x/d found is also checked
    to solve the system and to be U y for the y of _echelon_substitute,
    which vanishes off the pivot columns."""
    echelon = column_echelon([[row[j] for row in matrix] for j in range(len(matrix[0]))])
    _, U, pivots = echelon
    y = _echelon_substitute(echelon, rhs)
    solved = echelon.solve(rhs)
    if y is None:
        assert solved is None
        raise NotASurfaceSeries("series is not a sum of orbifold parts")
    x = [Fraction(v, solved[1]) for v in solved[0]]
    assert x == [sum(u[i] * v for u, v in zip(U, y)) for i in range(len(U))]
    assert [sum(a * b for a, b in zip(row, x)) for row in matrix] == rhs
    assert not any(y[c] for c in set(range(len(U))) - {c for _, c in pivots})
    return None if len(pivots) < len(U) else x


class TestFractionFreeSolve:
    """The split solves by forward substitution against the column echelon
    form of its matrix; Gauss-Jordan over Q is its oracle."""

    def random_system(self, local, nrows, ncols, rank):
        """An nrows x ncols integer matrix of the given rank, with sparse
        rows as in the delta system."""
        basis = [
            [local.choice((0, 0, local.randint(-9, 9))) for _ in range(ncols)]
            for _ in range(rank)
        ]
        rows = []
        for _ in range(nrows):
            coeffs = [local.randint(-3, 3) for _ in basis]
            rows.append([sum(c * v[j] for c, v in zip(coeffs, basis)) for j in range(ncols)])
        return rows

    def test_unique_solutions_match_oracle(self):
        local = random.Random(9191)
        seen = 0
        while seen < 200:
            ncols = local.randint(1, 6)
            matrix = self.random_system(local, local.randint(ncols, 12), ncols, ncols)
            x = [Fraction(local.randint(-20, 20), local.choice((1, 1, 2, 3, 7)))
                 for _ in range(ncols)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
            den = 1
            for v in rhs:
                den = den * v.denominator // gcd(den, v.denominator)
            matrix = [[den * a for a in row] for row in matrix]
            rhs = [int(den * v) for v in rhs]
            expected = _gauss_solve_over_q(matrix, rhs)
            if expected is None:
                continue  # the drawn matrix lost rank
            assert expected == x
            assert _solve_by_echelon(matrix, rhs) == x
            seen += 1

    def test_singular_systems_return_none(self):
        local = random.Random(9292)
        for _ in range(100):
            ncols = local.randint(2, 6)
            matrix = self.random_system(
                local, local.randint(ncols, 12), ncols, local.randint(0, ncols - 1)
            )
            x = [local.randint(-9, 9) for _ in range(ncols)]
            rhs = [sum(a * b for a, b in zip(row, x)) for row in matrix]
            assert _gauss_solve_over_q(matrix, rhs) is None
            assert _solve_by_echelon(matrix, rhs) is None

    def test_inconsistent_systems_raise(self):
        local = random.Random(9393)
        raised = 0
        while raised < 100:
            ncols = local.randint(1, 5)
            matrix = self.random_system(
                local, local.randint(ncols + 1, 10), ncols, local.randint(0, ncols)
            )
            rhs = [local.randint(-9, 9) for _ in matrix]
            try:
                expected = _gauss_solve_over_q(matrix, rhs)
            except NotASurfaceSeries:
                with pytest.raises(NotASurfaceSeries):
                    _solve_by_echelon(matrix, rhs)
                raised += 1
            else:
                assert _solve_by_echelon(matrix, rhs) == expected


class TestParser:
    def test_golden_parse(self):
        rf = parse_rational_function("(1+11*t+t^2)/(1-t)^3")
        assert rf.series_coefficients(3) == [1, 14, 40]

    def test_arithmetic_equivalences(self):
        a = parse_rational_function("(1 - t^2)/((1-t)*(1+t))")
        assert a.series_coefficients(3) == [1, 0, 0]
        b = parse_rational_function("-(2 - t)/(t - 2)")
        assert b.series_coefficients(2) == [1, 0]

    def test_eval_matches_fraction_arithmetic(self):
        rf = parse_rational_function("(1+7*t+t^2)/(1-t)^3")
        x = Fraction(1, 3)
        expected = (1 + 7 * x + x**2) / (1 - x) ** 3
        assert rf.eval(x) == expected

    @pytest.mark.parametrize("bad", ["", "1+", "(1/t", "t^-1", "t**2", "2t"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_rational_function(bad)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("(1+t\u00b2)/(1-t)^3", "unexpected character '\u00b2'"),
            ("(1+\u0663*t)/(1-t)^3", "unexpected character '\u0663'"),  # an Arabic-Indic 3
            ("(" * 400 + "t" + ")" * 400, "parentheses nested deeper than 100"),
            ("(1-t)^10001", "exponent must be an integer 0..10000"),
            ("1" * 4001, "trailing input"),
        ],
        ids=["superscript", "arabic-indic", "nesting", "exponent", "digits"],
    )
    def test_refusals_name_their_reason(self, text, named):
        with pytest.raises(ParseError, match=re.escape(named)):
            parse_rational_function(text)

    @pytest.mark.parametrize("text", ["1/0", "(t)*(-(1)/(0))", "1/(t - t)", "t/(1 - 1)^2"])
    def test_division_by_zero_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="division by zero"):
            parse_rational_function(text)

    # malformed texts and their refusals, pinned byte for byte
    REFUSALS = [
        ("", "empty input"),
        ("   ", "empty input"),
        ("1+", "unexpected token None in '1+'"),
        ("(1/t", "unexpected token None in '(1/t'"),
        ("t^-1", "exponent must be an integer 0..10000 in 't^-1'"),
        ("t**2", "unexpected token '*' in 't**2'"),
        ("2t", "trailing input after position 1 in '2t'"),
        ("(1 2)", "unexpected token 2 in '(1 2)'"),
        ("t)", "trailing input after position 1 in 't)'"),
        ("((t)", "unexpected token None in '((t)'"),
        ("*t", "unexpected token '*' in '*t'"),
        ("t^", "unexpected token None in 't^'"),
        ("t^t", "exponent must be an integer 0..10000 in 't^t'"),
        ("t^(2)", "exponent must be an integer 0..10000 in 't^(2)'"),
        ("t/", "unexpected token None in 't/'"),
        ("()", "unexpected token ')' in '()'"),
        ("t^2^", "unexpected token None in 't^2^'"),
        ("2*(1 + t)/(1 - t", "unexpected token None in '2*(1 + t)/(1 - t'"),
        ("x", "unexpected character 'x' in 'x'"),
        ("1/(t-t)", "division by zero in '1/(t-t)'"),
        ("(1+\u0663*t)/(1-t)^3", "unexpected character '\u0663' in '(1+\u0663*t)/(1-t)^3'"),
        ("t^99999", "exponent must be an integer 0..10000 in 't^99999'"),
        ("1" * 4001, f"trailing input after position 1 in {'1' * 4001!r}"),
        ("(" * 101 + "t" + ")" * 101, f"parentheses nested deeper than 100 in {'(' * 101 + 't' + ')' * 101!r}"),
    ]

    @pytest.mark.parametrize("text, message", REFUSALS, ids=range(len(REFUSALS)))
    def test_refusal_messages_are_pinned(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_rational_function(text)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, most_bytes",
        [
            ("((t^10000)^10000)^10000", 1 << 20),
            ("((2^10000)^10000)^10000", 1 << 20),
            ("(t^10000)^100", 1 << 20),
            ("(t^10000)^20*(t^10000)^20", 1 << 23),  # builds its two factors only
            ("*".join(["t^10000"] * 30), 1 << 20),  # a monomial, refused at t^260000 unbuilt
        ],
    )
    def test_size_bound_refuses_before_building(self, text, most_bytes):
        """A product or power past _SIZE_LIMIT is refused before it is
        built, so parsing allocates no more than the operands before it."""
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as err:
                parse_rational_function(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"a product or power past the size bound of {1 << 24} bits in {text!r}"
        assert peak < most_bytes, peak

    def rendered_series(self, local, count):
        """The text the CLI prints for assembled series of 1-3 random points
        with r <= 60 and random K^2, and each series."""
        for _ in range(count):
            points, size = [], local.randint(1, 3)
            while len(points) < size:
                r, a = local.randint(2, 60), local.randint(1, 59)
                if a < r and gcd(r, a) == 1:
                    points.append(Singularity(r, a))
            h = assemble_series(basket(points), Fraction(local.randint(1, 60), local.randint(1, 12))).series
            yield fmt_rational_function(h), h

    def test_rendered_series_build_no_product(self, monkeypatch):
        """Each c*t^k term of a rendered series is a monomial added into
        its coefficient list: no poly_mul and no power, and the quotient of
        the two parenthesized polynomials takes a few products by 1 or by
        the empty sum, however many terms the series has."""
        texts = [text for text, _ in self.rendered_series(random.Random(22022), 40)]
        calls = {}
        for name in ("poly_mul", "_product", "_power"):
            calls[name] = TestWorkPins.counter(None, monkeypatch, hilbert, name)
        for text in texts:
            parse_rational_function(text)
        assert calls["poly_mul"] == calls["_power"] == [0]
        assert calls["_product"][0] <= 5 * len(texts)

    def test_rendered_series_parse_back(self):
        for text, h in self.rendered_series(random.Random(16016), 150):
            assert parse_rational_function(text) == h, text

    def test_rejected_shapes_match_reduction(self):
        """The benchmark's not-a-surface texts, a rendered series times 2 or
        times 1 - t, against the parser that reduces at every node."""
        for text, _ in self.rendered_series(random.Random(16017), 60):
            for shaped in (f"2*{text}", f"(1 - t)*{text}"):
                got, expected = parse_rational_function(shaped), _parse_by_reduction(shaped)
                assert (got.num, got.den) == (expected.num, expected.den), shaped

    def test_matches_reduction_at_every_node(self):
        """The unreduced Z[t] pairs give the canonical form that reducing
        at every node gives, or an error of the same class."""
        local = random.Random(20261018)
        errors = 0
        for _ in range(2000):
            text = _random_expression(local, 4)
            if local.random() < 0.1 and len(text) > 1:  # some malformed text
                i = local.randrange(len(text))
                text = text[:i] + text[i + 1 :]
            try:
                expected = _parse_by_reduction(text)
            except ParseError:
                errors += 1
                with pytest.raises(ParseError):
                    parse_rational_function(text)
                continue
            got = parse_rational_function(text)
            assert (got.num, got.den) == (expected.num, expected.den), text
        assert 0 < errors < 1000


def _power_by_squaring(p, k):
    """The binary powering that Miller's recurrence replaced in
    hilbert._power, kept as its oracle."""
    out = (1,)
    while k:
        if k & 1:
            out = poly_mul(out, p)
        k >>= 1
        p = poly_mul(p, p) if k else p
    return out


class TestPower:
    def test_matches_binary_powering(self):
        """The zero, constant, monomial and sparse bases and seeded random ones,
        with p(0) = 0 or not and either sign at both ends, each at the
        exponents 0, 1, 2 and one larger."""
        local = random.Random(20261019)
        bases = [(), (1,), (-1,), (0, 0, 5), (-2, 3), (0, 1, 1), (0, 3, 0, 0, -2)]
        for _ in range(400):
            low = [0] * local.choice((0, 0, 1, 3))
            bases.append(poly(low + [local.randint(-9, 9) for _ in range(local.randint(1, 7))]))
        for p in bases:
            for k in (0, 1, 2, local.randint(3, 40)):
                assert hilbert._power(p, k, "") == _power_by_squaring(p, k), (p, k)
        shapes = {(p[0] == 0, next(x for x in p if x) < 0, p[-1] < 0) for p in bases if any(p[:-1])}
        assert len(shapes) == 8

    def test_binomial_power_is_fast(self):
        """(1 - t)^4000 is near the size bound; binary powering by schoolbook
        products took 12-21 s on it."""
        start = time.perf_counter()
        rf = parse_rational_function("(1-t)^4000")
        assert time.perf_counter() - start < 1
        assert rf.den == (1,)
        assert rf.num == tuple((-1) ** i * comb(4000, i) for i in range(4001))


def _random_expression(r: random.Random, depth: int) -> str:
    """Series text over t, integers, + - * / ^, unary minus and parentheses,
    with exponents at most 3."""
    k = r.random()
    if depth == 0 or k < 0.25:
        return r.choice(["t", "t^2", "0", "1", "2", "3"])
    if k < 0.35:
        return "-" + _random_expression(r, depth - 1)
    if k < 0.5:
        return f"({_random_expression(r, depth - 1)})^{r.randint(0, 3)}"
    if k < 0.6:
        return f"({_random_expression(r, depth - 1)})"
    lhs, rhs = _random_expression(r, depth - 1), _random_expression(r, depth - 1)
    return f"{lhs}{r.choice('+-*/')}{rhs}"


def _parse_by_reduction(text: str) -> RationalFunction:
    """Oracle: the earlier parser, which builds a canonical RationalFunction
    at every atom and operator; division by zero raises ParseError."""
    tokens = hilbert._tokenize(text)
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
            if op == "/" and rhs.is_zero():
                raise ParseError(f"division by zero in {text!r}")
            if op == "*":
                node = node * rhs
            else:
                node = RationalFunction.make(poly_mul(node.num, rhs.den), poly_mul(node.den, rhs.num))
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
