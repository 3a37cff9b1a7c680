"""Exact polynomial / integer-linear-algebra kernel tests.

Oracles used here are deliberately independent of the implementation:
rank via Gaussian elimination over Fraction, lattice membership via
brute-force coordinate boxes, normal forms via a linear scan of the
elements, and algebraic identities (ring axioms, cyclotomic
factorization of t^n - 1).  A matrix is the list of its
columns, as in the library.
"""

import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd
from operator import le

import pytest

from delpezzo import Singularity, exactalg, orbifold_contribution
from delpezzo.errors import CapacityExceeded
from delpezzo.exactalg import (
    RationalFunction,
    Reducer,
    column_echelon,
    cyclotomic,
    graver_completion,
    graver_fiber,
    int_kernel,
    int_rank,
    int_solve,
    poly,
    poly_add,
    poly_content,
    poly_div_binomial,
    poly_div_exact,
    poly_divmod,
    poly_eval,
    poly_gcd_primitive,
    poly_mul,
    poly_mul_binomial,
    poly_neg,
    poly_scale,
    poly_sub,
    poly_to_int,
    signed,
)
from delpezzo.reconstruct import PAIR_BUDGET, res_plus

rng = random.Random(20260824)


def rand_poly(max_deg=5, lo=-6, hi=6):
    return poly([rng.randint(lo, hi) for _ in range(rng.randint(0, max_deg + 1))])


def deg(p):
    return len(p) - 1


# ---------------------------------------------------------------------------
# test-only kernels: no code of the library calls them


class NotCoprime(Exception):
    """Polynomials share a nontrivial common factor."""


def poly_gcd(a, b):
    """Monic gcd over Q."""
    g = poly_gcd_primitive(poly_to_int(a)[0], poly_to_int(b)[0])
    return tuple(Fraction(x, g[-1]) for x in g)


def poly_inverse_mod(f, h):
    """u with f*u = 1 (mod h), deg u < deg h, over Q.

    Raises NotCoprime when gcd(f, h) != 1.
    """
    if len(h) < 2:
        raise ValueError("modulus must have degree >= 1")
    # extended Euclid over Q[x]
    r0, r1 = h, f
    s0, s1 = (), (1,)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
    if len(r0) != 1:
        raise NotCoprime("polynomials are not coprime")
    inv = poly_scale(s0, Fraction(1, 1) / Fraction(r0[0]))
    return poly_divmod(inv, h)[1]


def normal_form(v, elems):
    """signed(v) minus the first element of elems under it, repeated: the
    linear scan that Reducer.normal_form replaced.

    Each element of elems comes from signed(), and u ⊑ w means u_i w_i >= 0
    and |u_i| <= |w_i| for all i.
    """
    s = signed(v)
    while s[1] | s[2]:
        v, off_pos, off_neg = s[0], ~s[1], ~s[2]
        size = [abs(x) for x in v]
        for g, gpos, gneg in elems:  # g ⊑ v, with v's side hoisted
            if not (gpos & off_pos or gneg & off_neg) and all(map(le, map(abs, g), size)):
                break
        else:
            return s
        s = signed(tuple([a - b for a, b in zip(v, g)]))
    return s


def graver_basis(cols, node_cap=PAIR_BUDGET):
    """Graver basis of the integer kernel of the matrix with these columns;
    g and -g both appear."""
    return [v[0] for v in graver_completion(int_kernel(cols), node_cap)[0]]


def columns(rows, ncols=None):
    """The columns of the matrix with these rows (ncols of them when there
    are no rows)."""
    ncols = len(rows[0]) if rows else ncols or 0
    return [[row[j] for row in rows] for j in range(ncols)]


def apply(cols, x):
    """M x for the matrix M with these columns."""
    out = [0] * (len(cols[0]) if cols else 0)
    for col, v in zip(cols, x):
        out = [a + v * c for a, c in zip(out, col)]
    return tuple(out)


class TestPolyRing:
    def test_ring_axioms_randomized(self):
        for _ in range(200):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert poly_add(a, b) == poly_add(b, a)
            assert poly_mul(a, b) == poly_mul(b, a)
            assert poly_mul(a, poly_mul(b, c)) == poly_mul(poly_mul(a, b), c)
            assert poly_mul(a, poly_add(b, c)) == poly_add(
                poly_mul(a, b), poly_mul(a, c)
            )
            assert poly_sub(a, a) == poly([])

    def test_eval_is_ring_homomorphism(self):
        for _ in range(100):
            a, b = rand_poly(), rand_poly()
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)
            assert poly_eval(poly_add(a, b), x) == poly_eval(a, x) + poly_eval(b, x)

    def test_divmod_invariant(self):
        for _ in range(200):
            a = rand_poly(max_deg=7)
            b = rand_poly(max_deg=4)
            if not b:
                continue
            q, r = poly_divmod(a, b)
            assert poly_add(poly_mul(q, b), r) == a
            assert not r or deg(r) < deg(b)

    def test_div_exact_roundtrip(self):
        for _ in range(100):
            a, b = rand_poly(), rand_poly()
            if not a or not b:
                continue
            assert poly_div_exact(poly_mul(a, b), b) == a

    def test_gcd_divides_and_is_maximal(self):
        for _ in range(100):
            a, b, g0 = rand_poly(3), rand_poly(3), rand_poly(3)
            a, b = poly_mul(a, g0), poly_mul(b, g0)
            if not a or not b:
                continue
            g = poly_gcd(a, b)
            _, ra = poly_divmod(a, g)
            _, rb = poly_divmod(b, g)
            assert not ra and not rb
            if g0:
                # the planted common factor divides the gcd
                _, rg = poly_divmod(g, g0)
                assert not rg or deg(g) >= deg(g0)

    def test_binomial_kernels_match_the_general_ones(self):
        """a*(1 - t^d) against poly_mul, and a/(1 - t^d) against poly_divmod:
        exact on every product, ValueError whenever the remainder is not
        zero, over ints and Fractions."""
        inexact = 0
        for _ in range(400):
            d = rng.randint(1, 9)
            binomial = (1, *[0] * (d - 1), -1)
            a = rand_poly(max_deg=12)
            if rng.random() < 0.25:
                a = poly([Fraction(x, rng.randint(1, 4)) for x in a])
            assert poly_mul_binomial(a, d) == poly_mul(a, binomial)
            assert poly_div_binomial(poly_mul(a, binomial), d) == a
            q, r = poly_divmod(a, binomial)
            if r:
                inexact += 1
                with pytest.raises(ValueError, match="not exact"):
                    poly_div_binomial(a, d)
            else:
                assert poly_div_binomial(a, d) == q
        assert inexact > 300
        assert poly_mul_binomial((), 3) == poly_div_binomial((), 3) == ()
        with pytest.raises(ValueError):
            poly_div_binomial((1, -1), 2)  # deg a < d

    def test_content_and_to_int(self):
        p = poly([Fraction(2, 3), Fraction(4, 3)])
        prim, scale = poly_to_int(p)
        assert all(isinstance(c, int) or c.denominator == 1 for c in prim)
        assert poly_content(poly([6, 9, 12])) == 3


class TestCyclotomic:
    def test_product_over_divisors_is_t_pow_n_minus_one(self):
        for n in range(1, 31):
            prod = poly([1])
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = poly_mul(prod, cyclotomic(d))
            expect = poly([-1] + [0] * (n - 1) + [1])
            assert prod == expect, n

    def test_is_t_pow_n_minus_one_over_its_proper_factors(self):
        """Phi_n = (t^n - 1)/prod of Phi_d over d | n, d < n, by long
        division, for n <= 300; by induction from n = 1 every value is
        checked against the definition."""
        for n in range(1, 301):
            num = poly([-1] + [0] * (n - 1) + [1])
            for d in range(1, n):
                if n % d == 0:
                    num, rest = poly_divmod(num, cyclotomic(d))
                    assert not rest, (n, d)
            assert cyclotomic(n) == num, n

    def test_known_small_values(self):
        assert cyclotomic(1) == poly([-1, 1])
        assert cyclotomic(2) == poly([1, 1])
        assert cyclotomic(5) == poly([1, 1, 1, 1, 1])
        assert cyclotomic(6) == poly([1, -1, 1])

    def test_matches_sympy(self):
        import sympy

        t = sympy.Symbol("t")
        for n in range(1, 201):
            expect = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
            assert cyclotomic(n) == tuple(int(c) for c in expect), n


class TestInverseMod:
    def test_inverse_of_one_minus_t_mod_cyclotomic(self):
        for n in (3, 5, 7, 9, 12):
            h = cyclotomic(n)
            f = poly([1, -1])
            inv = poly_inverse_mod(f, h)
            _, r = poly_divmod(poly_sub(poly_mul(f, inv), poly([1])), h)
            assert not r

    def test_random_coprime_inverses(self):
        for _ in range(60):
            h = rand_poly(4)
            f = rand_poly(3)
            if not h or not f or deg(h) < 1:
                continue
            if deg(poly_gcd(f, h)) != 0:
                continue
            inv = poly_inverse_mod(f, h)
            _, r = poly_divmod(poly_sub(poly_mul(f, inv), poly([1])), h)
            assert not r

    def test_not_coprime_raises(self):
        with pytest.raises(NotCoprime):
            poly_inverse_mod(cyclotomic(5), poly_mul(cyclotomic(5), cyclotomic(2)))


def fraction_rank(rows):
    """Independent rank oracle: Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rand_matrix(rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _row_major_echelon(rows, ncols):
    """The elimination before matrices became lists of columns, kept as the
    oracle of column_echelon: the same column operations in the same
    order, on A and U held as lists of rows."""
    A = [list(row) for row in rows]
    n = ncols
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_addmul(dst, src, s):
        for i in range(len(A)):
            A[i][dst] += s * A[i][src]
        for i in range(n):
            U[i][dst] += s * U[i][src]

    def col_swap(a, b):
        for i in range(len(A)):
            A[i][a], A[i][b] = A[i][b], A[i][a]
        for i in range(n):
            U[i][a], U[i][b] = U[i][b], U[i][a]

    def col_negate(c):
        for i in range(len(A)):
            A[i][c] = -A[i][c]
        for i in range(n):
            U[i][c] = -U[i][c]

    pivots = []
    pc = 0
    for r in range(len(A)):
        if pc >= n:
            break
        while True:
            nz = [j for j in range(pc, n) if A[r][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != pc:
                    col_swap(pc, nz[0])
                break
            nz.sort(key=lambda j: abs(A[r][j]))
            small = nz[0]
            for j in nz[1:]:
                col_addmul(j, small, -(A[r][j] // A[r][small]))
        if A[r][pc] != 0:
            if A[r][pc] < 0:
                col_negate(pc)
            pivots.append((r, pc))
            pc += 1
    return A, U, pivots


def _rand_shaped_matrix(local):
    """(rows, ncols): sizes from 0, with zero rows, zero columns and
    columns that are combinations of earlier ones mixed in."""
    nrows, ncols = local.randint(0, 6), local.randint(0, 6)
    cols = []
    for _ in range(ncols):
        kind = local.random()
        if kind < 0.15:
            cols.append([0] * nrows)
        elif kind < 0.4 and cols:
            a, b = local.choice(cols), local.choice(cols)
            s, t = local.randint(-3, 3), local.randint(-3, 3)
            cols.append([s * x + t * y for x, y in zip(a, b)])
        else:
            cols.append([local.randint(-9, 9) for _ in range(nrows)])
    rows = [[col[i] for col in cols] for i in range(nrows)]
    for i in range(nrows):
        if local.random() < 0.15:
            rows[i] = [0] * ncols
    return rows, ncols


class TestIntLinearAlgebra:
    def test_column_echelon_matches_row_major_oracle(self):
        """The same numbers as the row-major elimination, transposed, on 300
        seeded matrices of up to 6 x 6, including empty ones."""
        local = random.Random(1212)
        seen = set()
        for _ in range(300):
            rows, ncols = _rand_shaped_matrix(local)
            A, U, pivots = column_echelon(columns(rows, ncols))
            A0, U0, pivots0 = _row_major_echelon(rows, ncols)
            assert pivots == pivots0, rows
            assert len(A) == len(U) == ncols
            assert all(len(col) == len(rows) for col in A)
            assert A == columns(A0, ncols) and U == columns(U0, ncols), rows
            seen |= {
                "no columns" if not ncols else "no rows" if not rows else "columns and rows",
                *(["zero column"] if rows and any(not any(c) for c in columns(rows)) else []),
                *(["zero row"] if ncols and any(not any(r) for r in rows) else []),
                *(["dependent columns"] if rows and len(pivots) < ncols else []),
            }
        assert len(seen) == 6, seen

    def test_rank_matches_fraction_gauss(self):
        for _ in range(150):
            rows = rand_matrix(rng.randint(1, 4), rng.randint(1, 4))
            assert int_rank(rows) == fraction_rank(rows)

    def test_solve_produces_solutions(self):
        for _ in range(150):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            M = columns(rand_matrix(rows, cols))
            x = tuple(rng.randint(-3, 3) for _ in range(cols))
            b = apply(M, x)
            got = int_solve(M, b)
            assert got is not None
            assert apply(M, got) == tuple(b)

    def test_solve_detects_unsolvable(self):
        # 2x = 1 has no integer solution
        assert int_solve([[2]], (1,)) is None

    def test_kernel_annihilates_and_has_right_rank(self):
        for _ in range(150):
            rows_, cols = rng.randint(1, 4), rng.randint(1, 4)
            entries = rand_matrix(rows_, cols)
            M = columns(entries)
            ker = int_kernel(M)
            zero = (0,) * rows_
            for v in ker:
                assert apply(M, v) == zero
            assert len(ker) == cols - fraction_rank(entries)

    def test_kernel_spans_all_small_solutions(self):
        """Brute-force box oracle: every integral null vector in a small box
        must be an integer combination of the returned kernel basis."""
        for _ in range(30):
            entries = rand_matrix(2, 3, -2, 2)
            M = columns(entries)
            ker = int_kernel(M)
            for v in itertools.product(range(-3, 4), repeat=3):
                if apply(M, v) != (0, 0):
                    continue
                if not any(v):
                    continue
                assert ker
                assert int_solve(ker, v) is not None


    def test_echelon_solve_pads_a_short_b_and_checks_a_long_tail(self):
        """Echelon.solve reads b against the rows of M: a short b is
        padded with zeros, a long b must be zero past them."""
        echelon = column_echelon([[2, 1, 0], [0, 3, 1]])
        assert echelon.solve((4, 2)) == ((2, 0), 1)
        assert echelon.solve((4, 2, 0)) == ((2, 0), 1)
        assert echelon.solve((4, 2, 0, 0, 0)) == ((2, 0), 1)
        assert echelon.solve((4, 2, 0, 1)) is None
        assert column_echelon([[2, 0]]).solve((1,)) == ((1,), 2)
        # the columns of U past the pivots are the kernel, and no columns
        # solve only b = 0
        assert echelon.kernel == [] and column_echelon([[1, 2], [2, 4]]).kernel == [(-2, 1)]
        assert column_echelon([]).solve((0, 0)) == ((), 1)
        assert column_echelon([]).solve((0, 1)) is None

    def test_column_echelon_pads_short_columns(self):
        """Columns without their trailing zeros give the echelon form of
        the columns padded back to the longest of them."""
        local = random.Random(1313)
        ragged = 0
        for _ in range(100):
            rows, ncols = _rand_shaped_matrix(local)
            trimmed = [list(poly(col)) for col in columns(rows, ncols)]
            nrows = max(map(len, trimmed), default=0)
            padded = [[*col, *[0] * (nrows - len(col))] for col in trimmed]
            ragged += padded != trimmed
            assert column_echelon(trimmed) == column_echelon(padded), rows
        assert ragged > 20


class TestReducer:
    def test_normal_forms_equal_the_linear_scan(self):
        """500 seeded lists of nonzero elements with 1 to 8 coordinates,
        many of them zero: before each element is added, and once all are
        in, three random vectors get exactly the linear scan's normal form.
        The queries reach past the largest entries, and the first query of
        every list is made against no elements."""
        draw = random.Random(20261019)
        queries = 0
        for _ in range(500):
            n, size = draw.randint(1, 8), draw.randint(1, 4)
            entries = [0] * n + list(range(-size, size + 1))
            red, elems = Reducer(), []
            for _ in range(draw.randint(0, 12) + 1):
                for _ in range(3):
                    v = tuple([draw.randint(-3 * size, 3 * size) for _ in range(n)])
                    assert red.normal_form(v) == normal_form(v, elems), (v, elems)
                    queries += 1
                g = tuple([draw.choice(entries) for _ in range(n)])
                if any(g):
                    red.add(signed(g))
                    elems.append(signed(g))
            assert list(red) == elems
        assert queries > 4000

    @pytest.mark.parametrize("ell", [5, 7, 9])
    def test_reduce_is_the_bare_normal_form_under_g0(self, ell):
        """Against G0 of ker Phi+ at l, on seeded vectors: reduce(v) is
        normal_form(v) without its masks, and both give the linear scan's
        normal form."""
        phi = [orbifold_contribution(s).entries for s in res_plus(ell)]
        g0, _ = graver_completion(int_kernel(phi), PAIR_BUDGET)
        elems, draw, moved = list(g0), random.Random(ell), 0
        for _ in range(300):
            v = tuple([draw.randint(-4, 4) for _ in phi])
            got = g0.reduce(v)
            assert got == g0.normal_form(v)[0] == normal_form(v, elems)[0], v
            assert g0.normal_form(v) == signed(got) == normal_form(v, elems)
            moved += got != v
        assert moved > 100

    def test_under_is_the_set_of_elements_under(self):
        elems = [signed(g) for g in [(1, 0, -2), (0, 0, 1), (2, -1, 0), (1, 0, -1)]]
        red = Reducer(elems)
        assert red.under((3, 0, -5)) == 0b1001
        assert red.under((0, 0, 7)) == 0b0010
        assert red.under((2, -1, 0)) == 0b0100
        assert red.under((0, 0, 0)) == 0
        assert Reducer().under((1, 2)) == 0
        with pytest.raises(ValueError):
            red.add(signed((0, 0, 0)))


class TestGraverBasis:
    @pytest.mark.parametrize(
        "rows",
        # the int_kernel basis of the last holds (2, -2, -3, 3), which is
        # not a Graver element, so the final filter must drop it
        [[[1, 1, 1, 1], [0, 1, 2, 3]], [[1, 2, 3]], [[-3, -3, 2, 2], [0, 3, -2, 0]]],
    )
    def test_equals_minimal_kernel_vectors_in_a_box(self, rows):
        """The Graver elements of these matrices have entries of size at
        most 4, so they are the conformally minimal nonzero kernel vectors
        of the box [-4, 4]^n (anything under a box vector is in the box)."""
        m = columns(rows)
        box = itertools.product(range(-4, 5), repeat=len(m))
        kernel = [v for v in box if any(v) and not any(apply(m, v))]

        def under(u, v):
            return all(a * b >= 0 and abs(a) <= abs(b) for a, b in zip(u, v))

        expected = {v for v in kernel if not any(u != v and under(u, v) for u in kernel)}
        got = graver_basis(m)
        assert len(got) == len(set(got)) and set(got) == expected

    def test_node_cap_reports_work_done(self):
        with pytest.raises(CapacityExceeded, match="2 pairs reduced, \\|G\\| = "):
            graver_basis(columns([[1, 1, 1, 1], [0, 1, 2, 3]]), node_cap=2)

    def test_pinned_completion_at_seven(self):
        """[Phi+ | -delta] for the single point 1/7(1,1): the completion
        reduces 6,364 pairs and returns these 212 elements in this order,
        which holds only while the reducer scan finds the same first
        reducer as a plain scan of under() over the elements in order."""
        phi = [orbifold_contribution(s).entries for s in res_plus(7)]
        delta = orbifold_contribution(Singularity(7, 1)).entries
        assert delta == (3, 2, -3, 2, 3)
        m = phi + [tuple(-x for x in delta)]
        with pytest.raises(CapacityExceeded, match="6363 pairs reduced, \\|G\\| = 212$"):
            graver_basis(m, node_cap=6363)
        got = graver_basis(m, node_cap=6364)
        assert len(got) == 212
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "5bd9d90aad9b874c"

    def test_pinned_lift_at_seven(self):
        """The same point split by local index: ker Phi+ alone completes to
        |G0| = 142 in 2,979 pairs, and lifting G0 to the fiber of delta
        reduces 2,602 pairs and returns these 35 vectors in this order."""
        phi = [orbifold_contribution(s).entries for s in res_plus(7)]
        g0, steps = graver_completion(int_kernel(phi), 2979)
        assert (len(g0), steps) == (142, 2979)
        assert [v[0] for v in g0] == graver_basis(phi)
        x0 = int_solve(phi, orbifold_contribution(Singularity(7, 1)).entries)
        with pytest.raises(CapacityExceeded, match="2601 pairs reduced, \\|G0\\| = 142, "):
            graver_fiber(g0, x0, node_cap=2601)
        got, pairs = graver_fiber(g0, x0, node_cap=2602)
        assert (len(got), pairs) == (35, 2602)
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "59eb2a456ae9981f"

    def test_lift_masks_only_the_vectors_it_keeps(self, monkeypatch):
        """The lift at 1/7(1,1) reduces 2,602 pairs to 35 fiber vectors;
        it forms the sign masks of each vector it returns, and of no
        normal form it drops."""
        phi = [orbifold_contribution(s).entries for s in res_plus(7)]
        g0, _ = graver_completion(int_kernel(phi), PAIR_BUDGET)
        x0 = int_solve(phi, orbifold_contribution(Singularity(7, 1)).entries)
        calls = [0]

        def counted(v):
            calls[0] += 1
            return signed(v)

        monkeypatch.setattr(exactalg, "signed", counted)
        got, pairs = graver_fiber(g0, x0, PAIR_BUDGET)
        assert (len(got), pairs) == (35, 2602)
        assert calls[0] <= len(got) + 1


class TestRationalFunction:
    def test_series_of_geometric_cube(self):
        one_minus_t_cubed = poly_mul(poly([1, -1]), poly_mul(poly([1, -1]), poly([1, -1])))
        rf = RationalFunction.make(poly([1]), one_minus_t_cubed)
        coeffs = rf.series_coefficients(6)
        assert coeffs == [Fraction((n + 1) * (n + 2), 2) for n in range(6)]

    def test_pole_order_and_eval(self):
        rf = RationalFunction.make(poly([1, 1]), poly_mul(poly([1, -1]), poly([1, -1])))
        assert rf.pole_order_at_one() == 2
        assert rf.eval(Fraction(1, 2)) == Fraction(3, 2) / Fraction(1, 4)

    def test_normalization_cancels_common_factor(self):
        a = RationalFunction.make(poly_mul(poly([1, 1]), poly([2, 3])), poly_mul(poly([1, -1]), poly([2, 3])))
        b = RationalFunction.make(poly([1, 1]), poly([1, -1]))
        assert a.series_coefficients(8) == b.series_coefficients(8)


def _mul_schoolbook(a, b):
    """The product by the double loop over all coefficient pairs, kept as
    the oracle of poly_mul's scale and shift paths."""
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def _pole_order_by_division(rf):
    """The earlier pole_order_at_one, which divides by 1 - t while the value
    at 1 is zero, kept as the oracle of the synthetic division."""
    one_minus_t = (1, -1)
    order = 0
    d = rf.den
    while d and poly_eval(d, 1) == 0:
        d = poly_div_exact(d, one_minus_t)
        order += 1
    n = rf.num
    while n and poly_eval(n, 1) == 0:
        n = poly_div_exact(n, one_minus_t)
        order -= 1
    return order


class TestKernelOracles:
    def test_poly_mul_matches_schoolbook(self):
        """Constant, monomial and zero factors on either side, general
        factors, and Fraction coefficients."""
        local = random.Random(1616)
        for _ in range(600):
            a = poly([local.randint(-9, 9) for _ in range(local.randint(0, 7))])
            c = local.choice((1, -1, 2, -7, 12, Fraction(3, 4), 10**30))
            b = local.choice((
                (c,),
                (0,) * local.randint(1, 6) + (c,),
                (),
                poly([local.randint(-9, 9) for _ in range(local.randint(0, 7))]),
            ))
            for x, y in ((a, b), (b, a), (b, b)):
                got = poly_mul(x, y)
                assert got == _mul_schoolbook(x, y), (x, y)
                assert not got or got[-1] != 0

    def test_pole_order_matches_division_loop(self):
        """Products of cyclotomics over random numerators, numerators that
        vanish at 1 (negative orders) and the zero numerator."""
        local = random.Random(1717)
        orders = set()
        for _ in range(400):
            den = poly_scale((1,), local.choice((1, -1, 3, 12)))
            for _ in range(local.randint(0, 5)):
                den = poly_mul(den, cyclotomic(local.choice((1, 1, 2, 3, 4, 5, 6, 8, 9, 12, 18))))
            num = poly([local.randint(-5, 5) for _ in range(local.randint(0, 6))])
            kind = local.random()
            if kind < 0.4:
                for _ in range(local.randint(1, 4)):
                    num = poly_mul(num or (1,), (1, -1))
            elif kind < 0.5:
                num = ()
            for rf in (RationalFunction(num, den), RationalFunction.make(num, den)):
                assert rf.pole_order_at_one() == _pole_order_by_division(rf), rf
                orders.add(rf.pole_order_at_one())
        assert min(orders) < 0 < max(orders)

    def test_make_matches_sympy_cancel(self):
        """make on pairs with planted common factors and Fraction
        coefficients against sympy.cancel, brought to the canonical form:
        integer parts of coprime contents, lowest den coefficient positive."""
        import sympy

        t = sympy.Symbol("t")

        def as_expr(p):
            return sum((sympy.Rational(x.numerator, x.denominator) * t**i
                        for i, x in enumerate(map(Fraction, p))), sympy.Integer(0))

        local = random.Random(1818)
        cases = 0
        while cases < 150:
            num, den = _rand_pair(local)
            if not den:
                continue
            n, d = sympy.fraction(sympy.cancel(as_expr(num) / as_expr(den)))
            n, d = ([Fraction(int(c.p), int(c.q)) for c in sympy.Poly(e, t).all_coeffs()[::-1]] for e in (n, d))
            scale = 1
            for x in n + d:
                scale = scale * x.denominator // gcd(scale, x.denominator)
            n, d = poly([int(x * scale) for x in n]), poly([int(x * scale) for x in d])
            g = gcd(poly_content(n), poly_content(d)) * (1 if next(x for x in d if x) > 0 else -1)
            rf = RationalFunction.make(num, den)
            assert (rf.num, rf.den) == (tuple(x // g for x in n), tuple(x // g for x in d)), (num, den)
            cases += 1


# ---------------------------------------------------------------------------
# the Euclidean kernels over Q that the integer ones replaced, kept as oracles


def _divmod_over_q(a, b):
    rem = [Fraction(x) for x in a]
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i]:
            c = rem[i] / lead
            quo[i - db] = c
            for j, y in enumerate(b):
                rem[i - db + j] -= c * y
    return poly(quo), poly(rem)


def _euclid_gcd(a, b):
    """Monic gcd over Q by the Euclidean algorithm on Fractions."""
    while b:
        a, b = b, _divmod_over_q(a, b)[1]
    if not a:
        return ()
    return poly_scale(a, Fraction(1, 1) / Fraction(a[-1]))


def _make_by_euclid(num, den):
    """(num, den) of RationalFunction.make by the Euclidean gcd over Q."""
    n, d = poly(num), poly(den)
    if not n:
        return (), (1,)
    g = _euclid_gcd(n, d)
    if len(g) > 1:
        n = _divmod_over_q(n, g)[0]
        d = _divmod_over_q(d, g)[0]
    n, dn = poly_to_int(n)
    d, dd = poly_to_int(d)
    n = poly_scale(n, dd)
    d = poly_scale(d, dn)
    g = gcd(poly_content(n), poly_content(d))
    if g > 1:
        n = tuple(x // g for x in n)
        d = tuple(x // g for x in d)
    if next(x for x in d if x) < 0:
        n, d = poly_neg(n), poly_neg(d)
    return n, d


def _rand_factor(local):
    """A cyclotomic polynomial, a power of t, or a random integer factor."""
    kind = local.random()
    if kind < 0.4:
        return cyclotomic(local.randint(1, 18))
    if kind < 0.5:
        return poly([0] * local.randint(1, 3) + [1])
    return poly([local.randint(-7, 7) for _ in range(local.randint(1, 4))]) or (1,)


def _rand_pair(local):
    """num, den sharing a random common factor, with a random content, signs
    and sometimes Fraction coefficients."""
    common = (1,)
    for _ in range(local.randint(0, 3)):
        common = poly_mul(common, _rand_factor(local))
    out = []
    for _ in range(2):
        p = common
        for _ in range(local.randint(0, 3)):
            p = poly_mul(p, _rand_factor(local))
        p = poly_scale(p, local.choice((1, 1, -1, 2, -6, 12, 35)))
        if local.random() < 0.25:
            p = tuple(Fraction(x, local.randint(1, 9)) for x in p)
        out.append(p)
    return out


class TestIntegerGcd:
    """poly_gcd and RationalFunction.make run a primitive remainder sequence
    over Z[t]; the Euclidean algorithm over Q is their oracle."""

    def test_make_matches_euclid_oracle(self):
        local = random.Random(5151)
        cases = 0
        while cases < 400:
            num, den = _rand_pair(local)
            if not den:
                continue
            rf = RationalFunction.make(num, den)
            assert (rf.num, rf.den) == _make_by_euclid(num, den), (num, den)
            assert all(type(x) is int for x in rf.num + rf.den)
            cases += 1

    def test_make_on_cyclotomic_products(self):
        pairs = []
        for n in range(1, 25):
            for m in range(1, 25):
                num = poly_sub(poly([0] * n + [1]), (1,))  # t^n - 1
                den = poly_scale(poly_sub((1,), poly([0] * m + [1])), m)
                pairs.append(((n, m), num, den))
        # (7t + 1)(1 - t^n) over m(1 - t^m): the remainder sequence scales by
        # a non-monic lead coefficient such as -7 raised to the degree gap
        for n in (1, 2, 3, 5, 8, 13):
            for m in range(1, 61):
                num = poly_mul((1, 7), poly_sub((1,), poly([0] * n + [1])))
                den = poly_scale(poly_sub((1,), poly([0] * m + [1])), m)
                pairs.append(((7, n, m), num, den))
        for case, num, den in pairs:
            rf = RationalFunction.make(num, den)
            assert (rf.num, rf.den) == _make_by_euclid(num, den), case

    def test_gcd_matches_euclid_oracle(self):
        local = random.Random(6262)
        for _ in range(300):
            a, b = _rand_pair(local)
            assert poly_gcd(a, b) == _euclid_gcd(a, b), (a, b)

    def test_primitive_gcd_is_primitive_with_positive_lead(self):
        local = random.Random(7373)
        for _ in range(300):
            a, b = (poly_to_int(p)[0] for p in _rand_pair(local))
            g = poly_gcd_primitive(a, b)
            if not a and not b:
                assert g == ()
                continue
            assert poly_content(g) == 1 and g[-1] > 0, (a, b, g)
            monic = _euclid_gcd(a, b)
            assert poly_scale(monic, g[-1]) == g

    def test_integer_division_stays_in_integers(self):
        local = random.Random(8484)
        for _ in range(200):
            b = poly_mul(_rand_factor(local), _rand_factor(local))
            q = poly([local.randint(-9, 9) for _ in range(local.randint(0, 6))])
            quo, rem = poly_divmod(poly_mul(q, b), b)
            assert quo == q and rem == ()
            assert all(type(x) is int for x in quo)

    def test_inexact_division_falls_back_to_fractions(self):
        quo, rem = poly_divmod(poly([1, 0, 3]), poly([1, 2]))
        assert quo == (Fraction(-3, 4), Fraction(3, 2))
        assert rem == (Fraction(7, 4),)
