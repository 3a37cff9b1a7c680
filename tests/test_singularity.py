"""Cyclic quotient singularity normal forms, classification, residues,
duality, hyperplane sums/inverses, and shatterings.

Independent oracles: random SL2(Z) words for normal-form invariance,
explicit cone gluing for hyperplane sums, and invariant bookkeeping
(local index / slope / width) for residues.
"""

import functools
import itertools
import random
from math import gcd

import pytest

from delpezzo import (
    IntCone,
    Kind,
    Singularity,
    classify,
    hyperplane_inverse,
    hyperplane_sum,
    maximal_shatter,
    normalize_cone,
    res_plus,
    residue,
    shatterings,
)
from delpezzo.errors import DegenerateCone, NotResidual, ParseError
from delpezzo.singularity import _shards, cone_determinant

rng = random.Random(20260824)


def random_residual(max_ell=8):
    while True:
        ell = rng.randint(3, max_ell)
        k = rng.randint(1, ell - 1)
        c = rng.randint(1, ell - 1)
        if gcd(ell, c) != 1:
            continue
        r = k * ell
        a = k * c - 1
        if a < 1 or gcd(r, a) != 1:
            continue
        return Singularity(r, a)


class TestNormalForm:
    def test_definitional_cone(self):
        assert normalize_cone(IntCone((0, 1), (5, -1))) == Singularity(5, 1)

    def test_unimodular_cone_is_smooth(self):
        s = normalize_cone(IntCone((0, 1), (1, 0)))
        assert s.is_smooth and s.r == 1

    def test_skew_cone(self):
        assert normalize_cone(IntCone((6, -1), (3, -1))) == Singularity(3, 2)

    def test_degenerate_cone_rejected(self):
        with pytest.raises(DegenerateCone):
            normalize_cone(IntCone((1, 0), (2, 0)))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: cone_determinant((1, 0), (-1, 0)), "dependent"),
            (lambda: IntCone((2, -1), (0, 1)), "not in clockwise order"),
        ],
        ids=["dependent rays", "anticlockwise"],
    )
    def test_dependent_or_anticlockwise_rays_rejected(self, call, message):
        with pytest.raises(DegenerateCone, match=message):
            call()

    def test_every_small_cone_normalizes_to_an_isolated_point(self):
        """Each cone on primitive rays u in [-4, 4]^2 and v in [-6, 6]^2 in
        clockwise order gives 1/r(1, a) with r = det(u, v) and hcf(r, a) = 1."""
        us, vs = ([w for w in itertools.product(range(-n, n + 1), repeat=2) if gcd(*w) == 1] for n in (4, 6))
        cones = 0
        for u in us:
            for v in vs:
                if u[1] * v[0] - u[0] * v[1] > 0:
                    s = normalize_cone(IntCone(u, v))
                    assert s.r == cone_determinant(u, v) and gcd(s.r, s.a) == 1, (u, v)
                    cones += 1
        assert cones > 2000

    @pytest.mark.parametrize("u", [(1, 0), (-1, 0), (0, -1), (3, 1), (-4, 1), (2, -1), (5, -3), (-7, -2)])
    def test_first_ray_with_u1_zero_one_or_negative(self, u):
        """The cone M*(e2, (r,-a)) for M in SL2(Z) with M e2 = u, found by a
        search, whatever the sign and size of u's second coordinate."""
        p, q = next((p, q) for p in range(-9, 10) for q in range(-9, 10) if p * u[1] - q * u[0] == 1)
        for s in (Singularity(5, 2), Singularity(12, 5), Singularity(7, 1), Singularity(1, 0)):
            w = (p * s.r - u[0] * s.a, q * s.r - u[1] * s.a)
            assert normalize_cone(IntCone(u, w)) == s, (u, s)

    def test_invariant_under_random_sl2_words(self):
        """Apply random words in the elementary SL2(Z) generators to the
        defining cone; the oriented normal form must not change."""
        gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0))]

        def apply(m, v):
            return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

        for _ in range(200):
            s = random_residual()
            cone = s.cone()
            u, v = cone.u, cone.v
            for _ in range(rng.randint(1, 6)):
                g = rng.choice(gens)
                u, v = apply(g, u), apply(g, v)
            assert normalize_cone(IntCone(u, v)) == s


def all_points(max_r):
    """Every 1/r(1,a) with r <= max_r, the smooth point included."""
    yield Singularity(1, 0)
    for r in range(2, max_r + 1):
        for a in range(1, r):
            if gcd(r, a) == 1:
                yield Singularity(r, a)


class TestShards:
    """_shards reads each shard off its edge slope in closed form;
    normalize_cone of the cone on the two edge points is its oracle."""

    @staticmethod
    def agree(s, i, j):
        ell, _, c = s.invariants()
        try:
            want = normalize_cone(IntCone((i * ell, 1 - i * c), (j * ell, 1 - j * c)))
        except DegenerateCone:
            with pytest.raises(DegenerateCone):
                _shards(s, (i, j))
            return False
        assert _shards(s, (i, j)) == [want], (s, i, j)
        return True

    def test_every_cut_pair_up_to_40(self):
        found = [0, 0]
        for s in all_points(40):
            top = s.width + s.local_index
            for i in range(top + 1):
                for j in range(i + 1, top + 1):
                    found[self.agree(s, i, j)] += 1
        assert min(found) > 1000  # both outcomes are exercised

    def test_the_cuts_in_use_up_to_300(self):
        """The pairs among the cuts that the callers make: the ends 0 and k
        of the edge, the first point past each, l and the far end k + l."""
        for s in all_points(300):
            ell, k, _ = s.invariants()
            cuts = sorted({0, 1, k, k + 1, ell, k + ell})
            for i, j in itertools.combinations(cuts, 2):
                self.agree(s, i, j)


class TestInvariants:
    @pytest.mark.parametrize(
        "r,a,ell,k,c",
        [(9, 2, 3, 3, 1), (20, 11, 5, 4, 3), (5, 1, 5, 1, 2)],
    )
    def test_pinned_triples(self, r, a, ell, k, c):
        assert Singularity(r, a).invariants() == (ell, k, c)

    def test_defining_relations_randomized(self):
        for _ in range(200):
            s = random_residual(12)
            ell, k, c = s.invariants()
            assert ell * k == s.r
            assert (k * c) % s.r == (s.a + 1) % s.r
            assert 0 <= c < ell and gcd(ell, c) == 1

    def test_non_isolated_rejected(self):
        with pytest.raises(ValueError):
            Singularity(6, 2)

    def test_parse_and_str_roundtrip(self):
        s = Singularity.parse("1/20(1,11)")
        assert (s.r, s.a) == (20, 11)
        assert Singularity.parse(str(s)) == s
        with pytest.raises(ParseError):
            Singularity.parse("1/5(2,3)")

    def test_local_index_two_widths_are_even(self):
        for r in range(2, 41):
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                s = Singularity(r, a)
                if s.local_index == 2:
                    assert s.width % 2 == 0
        assert res_plus(1) == () and res_plus(2) == ()


class TestClassify:
    def test_elementary_t(self):
        c = classify(Singularity(9, 2))
        assert c.kind is Kind.T_SINGULARITY and (c.d, c.n) == (1, 3)

    def test_residual_indecomposable(self):
        assert classify(Singularity(10, 1)).kind is Kind.RESIDUAL_INDECOMPOSABLE

    def test_residual_decomposable(self):
        assert classify(Singularity(15, 2)).kind is Kind.RESIDUAL

    def test_smooth(self):
        assert classify(Singularity(1, 0)).kind is Kind.SMOOTH

    def test_t_iff_local_index_divides_width(self):
        for r in range(2, 80):
            for a in range(1, r):
                if gcd(r, a) != 1:
                    continue
                s = Singularity(r, a)
                is_t = classify(s).kind is Kind.T_SINGULARITY
                assert is_t == (s.width % s.local_index == 0)


class TestResidue:
    def test_strips_one_t_part(self):
        res, t_parts = residue(Singularity(12, 7))
        assert res == Singularity(3, 1)
        assert len(t_parts) == 1
        assert t_parts[0].kind is Kind.T_SINGULARITY
        assert t_parts[0].d * t_parts[0].n == 3  # stripped T-width

    def test_t_singularity_smooths_completely(self):
        res, t_parts = residue(Singularity(9, 2))
        assert res is None and len(t_parts) == 1

    def test_residual_is_fixed(self):
        s = Singularity(5, 1)
        assert residue(s) == (s, [])

    def test_residue_preserves_index_and_slope(self):
        for _ in range(200):
            ell = rng.randint(3, 8)
            k = rng.randint(1, 3 * ell)
            c = rng.choice([x for x in range(1, ell) if gcd(x, ell) == 1])
            r, a = k * ell, k * c - 1
            if a < 1 or gcd(r, a) != 1:
                continue
            s = Singularity(r, a)
            res, _ = residue(s)
            if s.width % s.local_index == 0:
                assert res is None
            else:
                assert res.local_index == s.local_index
                assert res.slope == s.slope
                assert res.width == s.width % s.local_index


class TestDual:
    @pytest.mark.parametrize(
        "r,a,rd,ad",
        [(5, 2, 5, 3), (5, 1, 5, 1), (10, 1, 10, 1), (20, 3, 20, 7), (1, 0, 1, 0)],
    )
    def test_pinned(self, r, a, rd, ad):
        assert Singularity(r, a).dual() == Singularity(rd, ad)

    def test_involution_and_isomorphism(self):
        for _ in range(100):
            s = random_residual(12)
            assert s.dual().dual() == s
            assert s.is_isomorphic(s.dual())
            assert s.iso_key() == s.dual().iso_key()


class TestHyperplaneInverse:
    @pytest.mark.parametrize(
        "r,a,ri,ai",
        [(5, 1, 20, 11), (10, 1, 15, 11), (10, 3, 15, 2), (5, 2, 20, 3), (15, 2, 10, 3)],
    )
    def test_pinned_pairs(self, r, a, ri, ai):
        assert hyperplane_inverse(Singularity(r, a)) == Singularity(ri, ai)

    def test_rejects_non_residual(self):
        with pytest.raises(NotResidual):
            hyperplane_inverse(Singularity(9, 2))

    def test_completes_to_elementary_t(self):
        for _ in range(100):
            s = random_residual()
            t = hyperplane_sum(s, hyperplane_inverse(s))
            assert t is not None
            c = classify(t)
            assert c.kind is Kind.T_SINGULARITY and c.d == 1

    def test_double_inverse_is_isomorphic(self):
        for _ in range(100):
            s = random_residual()
            assert hyperplane_inverse(hyperplane_inverse(s)).is_isomorphic(s)


class TestHyperplaneSum:
    def test_pinned_sum(self):
        assert hyperplane_sum(Singularity(6, 1), Singularity(3, 1)) == Singularity(9, 2)

    def test_noncommutative(self):
        assert hyperplane_sum(Singularity(3, 1), Singularity(6, 1)) == Singularity(9, 5)

    def test_undefined_on_index_mismatch(self):
        assert hyperplane_sum(Singularity(5, 1), Singularity(3, 1)) is None

    def test_undefined_with_a_smooth_summand(self):
        smooth = Singularity(1, 0)
        assert hyperplane_sum(smooth, Singularity(5, 1)) is None
        assert hyperplane_sum(Singularity(5, 1), smooth) is None
        assert hyperplane_sum(smooth, smooth) is None

    def test_dual_reverses_gluing(self):
        for _ in range(200):
            s1, s2 = random_residual(), random_residual()
            lhs = hyperplane_sum(s1, s2)
            rhs = hyperplane_sum(s2.dual(), s1.dual())
            assert (lhs is None) == (rhs is None)
            if lhs is not None:
                assert rhs == lhs.dual()


class TestShatterings:
    def test_pinned_sets(self):
        got = {tuple(parts) for parts in shatterings(Singularity(9, 2))}
        assert got == {
            (Singularity(9, 2),),
            (Singularity(6, 1), Singularity(3, 1)),
        }
        assert shatterings(Singularity(5, 1)) == [[Singularity(5, 1)]]
        got15 = {tuple(parts) for parts in shatterings(Singularity(15, 2))}
        assert got15 == {
            (Singularity(15, 2),),
            (Singularity(10, 1), Singularity(5, 3)),
        }

    def test_nonprimitive_midpoint_never_used(self):
        """1/9(1,2) has a non-primitive edge midpoint; the only nontrivial
        shattering must split at the two primitive points only."""
        parts = maximal_shatter(Singularity(9, 2))
        assert parts == [Singularity(6, 1), Singularity(3, 1)]
        widths = [p.width for p in parts]
        assert widths == [2, 1]  # never 1+1+1, which would use the midpoint

    def test_every_shattering_recomposes(self):
        for _ in range(100):
            ell = rng.randint(3, 7)
            k = rng.randint(1, ell - 1)
            c = rng.choice([x for x in range(1, ell) if gcd(x, ell) == 1])
            r, a = k * ell, k * c - 1
            if a < 1 or gcd(r, a) != 1:
                continue
            s = Singularity(r, a)
            for parts in shatterings(s):
                total = functools.reduce(hyperplane_sum, parts)
                assert total == s

    def test_maximal_shatter_yields_indecomposables(self):
        for _ in range(100):
            s = random_residual()
            for piece in maximal_shatter(s):
                assert classify(piece).kind in (
                    Kind.RESIDUAL_INDECOMPOSABLE,
                    Kind.T_SINGULARITY,  # width-ell shards of T type are elementary
                ) or piece.width == 1
