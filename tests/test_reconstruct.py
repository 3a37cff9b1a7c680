"""Reduced-basket enumeration, feasibility analysis, degree and count
bounds.

The central independent oracle is a brute-force coordinate-box search in
Z<Res+(ell)>: every signed coordinate vector with |v_i| <= 8 is tested
directly for the right delta-sum and for cancelling-vector freeness, and
the resulting basket sets are compared with the production enumerator.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest

from delpezzo import (
    DeltaVector,
    IndecMultiset,
    IntCone,
    SignedBasketVector,
    Singularity,
    analyze_series,
    assemble_series,
    basket,
    contains_cancelling_tuple,
    count_bound,
    degree_bounds,
    degree_contribution,
    enumerate_reduced_baskets,
    features_in,
    hyperplane_inverse,
    normalize_cone,
    orbifold_contribution,
    parse_rational_function,
    psi_invariants,
    res_plus,
)
from delpezzo import reconstruct
from delpezzo.errors import (
    CapacityExceeded,
    Infeasible,
    LengthMismatch,
    MixedIndex,
    NotRealizable,
)
from delpezzo.exactalg import graver_completion, int_kernel
from delpezzo.hilbert import zero_delta
from delpezzo.reconstruct import PAIR_BUDGET, _index_context

rng = random.Random(20260824)

RES_PLUS_5 = (
    Singularity(5, 1),
    Singularity(20, 3),
    Singularity(10, 1),
    Singularity(15, 2),
)


def brute_force_vectors(ell, delta, box=8):
    """Independent enumerator: scan the full coordinate box, keep vectors
    with the right delta-sum, drop those featuring a nonzero kernel vector."""
    reps = res_plus(ell)
    qs = [orbifold_contribution(s).entries for s in reps]
    m = len(reps)
    rng_box = range(-box, box + 1)
    kernel = []
    hits = []
    for v in itertools.product(rng_box, repeat=m):
        total = tuple(
            sum(c * q[i] for c, q in zip(v, qs)) for i in range(len(qs[0]))
        )
        if total == tuple(delta.entries) and any(v):
            hits.append(v)
        if total == tuple(0 for _ in qs[0]) and any(v):
            kernel.append(v)
    if all(x == 0 for x in delta.entries):
        hits.append((0,) * m)
    return sorted(
        v for v in hits if not any(features_in(v, w) for w in kernel)
    )


def basket_key(b):
    return tuple(sorted(s.iso_key() for s in b))


def from_basket(ell, b):
    """Oracle for ReducedBodyResult.vectors: the signed Res+ coordinates of
    a basket, counted class by class from the basket itself."""
    forward = {s.iso_key(): i for i, s in enumerate(res_plus(ell))}
    backward = {hyperplane_inverse(s).iso_key(): i for i, s in enumerate(res_plus(ell))}
    coords = [0] * len(forward)
    for s in b:
        key = s.iso_key()
        if key in forward:
            coords[forward[key]] += 1
        elif key in backward:
            coords[backward[key]] -= 1
        else:
            raise MixedIndex(f"{s} is not residual of local index {ell}")
    return tuple(coords)


def check_vectors(res):
    """Each stored vector is the vector of the basket beside it."""
    assert len(res.vectors) == len(res.baskets)
    for v, b in zip(res.vectors, res.baskets):
        assert v == from_basket(res.local_index, b), b


class TestEnumeratePinned:
    def test_pinned_example_four_baskets(self):
        res = enumerate_reduced_baskets(5, DeltaVector(5, (2, 1, 2)))
        assert res.realizable
        assert len(res.baskets) == 4
        assert set(res.vectors) == {
            (1, 0, 0, 1),
            (1, -1, 1, 0),
            (0, 0, 1, -1),
            (0, 1, 0, 0),
        }
        assert all(rk == Fraction(-8, 5) for rk in res.per_basket_rk2)

    def test_large_fiber_count_frozen(self):
        res = enumerate_reduced_baskets(5, DeltaVector(5, (8, -1, 8)))
        assert len(res.baskets) == 25
        # fiber structure: all representative vectors differ by kernel elements
        particular = res.vectors[0]
        kgens = int_kernel([orbifold_contribution(s).entries for s in res_plus(5)])
        assert len(kgens) == 2
        for v in res.vectors[1:]:
            diff = tuple(a - b for a, b in zip(v, particular))
            # solvable in the kernel lattice (rank 2 at ell=5)
            found = False
            for x in range(-20, 21):
                for y in range(-20, 21):
                    if all(
                        d == x * g1 + y * g2
                        for d, g1, g2 in zip(diff, kgens[0], kgens[1])
                    ):
                        found = True
            assert found, v

    def test_zero_delta_gives_empty_basket_only(self):
        res = enumerate_reduced_baskets(5, zero_delta(5))
        assert res.baskets == ((),)

    def test_unrealizable_delta(self):
        res = enumerate_reduced_baskets(5, DeltaVector(5, (1, 1, 1)))
        assert not res.realizable and res.baskets == ()

    def test_non_palindromic_rejected(self):
        with pytest.raises(NotRealizable):
            enumerate_reduced_baskets(5, DeltaVector(5, (1, 0, 0)))

    def test_wrong_local_index_rejected(self):
        with pytest.raises(MixedIndex):
            enumerate_reduced_baskets(5, DeltaVector(3, (1,)))

    def test_capacity_ceiling_is_explicit(self, monkeypatch):
        monkeypatch.setattr(reconstruct, "PAIR_BUDGET", 1)
        with pytest.raises(CapacityExceeded):
            enumerate_reduced_baskets(5, DeltaVector(5, (2, 1, 2)))


class TestEnumerateOracle:
    @pytest.mark.parametrize("entries", [(2, 1, 2), (1, -2, 1), (1, 3, 1)])
    def test_agrees_with_coordinate_box_enumerator(self, entries):
        delta = DeltaVector(5, entries)
        expected = {
            basket_key(SignedBasketVector(5, v).basket())
            for v in brute_force_vectors(5, delta)
        }
        res = enumerate_reduced_baskets(5, delta)
        got = {basket_key(b) for b in res.baskets}
        assert got == expected
        check_vectors(res)

    @pytest.mark.parametrize(
        "point", [Singularity(16, 1), hyperplane_inverse(Singularity(48, 5))], ids=str
    )
    def test_agrees_with_coordinate_box_enumerator_at_eight(self, point):
        delta = orbifold_contribution(point)
        expected = {
            basket_key(SignedBasketVector(8, v).basket())
            for v in brute_force_vectors(8, delta)
        }
        res = enumerate_reduced_baskets(8, delta)
        got = {basket_key(b) for b in res.baskets}
        assert got == expected
        check_vectors(res)

    @pytest.mark.parametrize("point", [Singularity(42, 11), Singularity(72, 7)], ids=str)
    def test_minimal_and_complete_in_unit_box(self, point):
        """At l = 7 and 9 (nine Res+ classes) a full box scan is too slow:
        check that each returned vector is in the fiber with no nonzero
        kernel vector under it, and that every fiber vector with entries in
        {-1, 0, 1} lies above a returned one."""
        ell = point.local_index
        delta = orbifold_contribution(point)
        qs = [orbifold_contribution(s).entries for s in res_plus(ell)]

        def image(v):
            return tuple(sum(c * q[i] for c, q in zip(v, qs)) for i in range(ell - 2))

        zero = (0,) * (ell - 2)
        res = enumerate_reduced_baskets(ell, delta)
        check_vectors(res)
        vectors = res.vectors
        assert vectors
        for v in vectors:
            assert image(v) == delta.entries
            below = itertools.product(*(range(min(0, x), max(0, x) + 1) for x in v))
            assert all(image(w) != zero for w in below if any(w)), v
        for w in itertools.product((-1, 0, 1), repeat=len(qs)):
            if image(w) == delta.entries:
                assert any(features_in(w, v) for v in vectors), w

    def test_soundness_exact_q_sum_and_no_cancelling(self):
        for entries in [(2, 1, 2), (1, -2, 1), (1, 3, 1), (8, -1, 8)]:
            delta = DeltaVector(5, entries)
            res = enumerate_reduced_baskets(5, delta)
            for b in res.baskets:
                total = zero_delta(5)
                for s in b:
                    total = total + orbifold_contribution(s)
                assert total == delta
                assert contains_cancelling_tuple(b) is None

    @pytest.mark.parametrize(
        "delta",
        [
            DeltaVector(5, (8, -1, 8)),
            orbifold_contribution(Singularity(48, 17)),
            orbifold_contribution(Singularity(24, 13)),
        ],
        ids=["5:8,-1,8", "1/48(1,17)", "1/24(1,13)"],
    )
    def test_rk2_congruent_mod_one(self, delta):
        res = enumerate_reduced_baskets(delta.local_index, delta)
        assert len({rk % 1 for rk in res.per_basket_rk2}) == 1


@lru_cache(maxsize=None)
def completion_oracle(ell, entries):
    """The g[:-1] of the Graver elements g of [Phi+ | -delta] with g[-1] = 1:
    the fiber's minimal vectors by one full completion, with no per-index
    part kept."""
    columns = [orbifold_contribution(s).entries for s in res_plus(ell)]
    graver, _ = graver_completion(int_kernel(columns + [tuple(-x for x in entries)]), PAIR_BUDGET)
    return [g[:-1] for g, _, _ in graver if g[-1] == 1]


def check_lift(ell, deltas, cache):
    """enumerate_reduced_baskets against completion_oracle, with the per-index
    context cleared before every call (cold) or kept from a first call (warm)."""
    enumerate_reduced_baskets(ell, deltas[0])
    for delta in deltas:
        if cache == "cold":
            _index_context.cache_clear()
        res = enumerate_reduced_baskets(ell, delta)
        check_vectors(res)
        expected = completion_oracle(ell, delta.entries)
        assert len(res.vectors) == len(expected) and set(res.vectors) == set(expected), delta


class TestPerIndexLift:
    """The fiber lifted from the kept Graver basis of ker Phi+ equals the
    fiber part of one completion of [Phi+ | -delta]."""

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("ell", [5, 7, 8, 9, 10, 12])
    def test_signed_single_classes(self, ell, cache):
        points = [s for rep in res_plus(ell) for s in (rep, hyperplane_inverse(rep))]
        check_lift(ell, [orbifold_contribution(s) for s in points], cache)

    @pytest.mark.parametrize("cache", ["cold", "warm"])
    @pytest.mark.parametrize("ell", [5, 8, 10, 12])
    def test_seeded_lattice_vectors(self, ell, cache):
        qs = [orbifold_contribution(s).entries for s in res_plus(ell)]
        draw = random.Random(ell)
        deltas = []
        for _ in range(40):
            v = [draw.randint(-2, 2) for _ in qs]
            deltas.append(DeltaVector(ell, tuple(
                sum(c * q[i] for c, q in zip(v, qs)) for i in range(ell - 2)
            )))
        check_lift(ell, deltas, cache)

    def test_cut_completion_is_not_kept(self, monkeypatch):
        _index_context.cache_clear()
        monkeypatch.setattr(reconstruct, "PAIR_BUDGET", 1)
        with pytest.raises(
            CapacityExceeded,
            match=r"^at l = 5: kernel Graver completion hit the node cap 1: "
            r"1 pairs reduced, \|G\| = 6$",
        ):
            enumerate_reduced_baskets(5, DeltaVector(5, (2, 1, 2)))
        assert _index_context.cache_info().currsize == 0
        monkeypatch.undo()
        assert len(enumerate_reduced_baskets(5, DeltaVector(5, (2, 1, 2))).baskets) == 4

    def test_warm_cap_counts_the_lift(self, monkeypatch):
        enumerate_reduced_baskets(5, DeltaVector(5, (2, 1, 2)))
        monkeypatch.setattr(reconstruct, "PAIR_BUDGET", 1)
        with pytest.raises(
            CapacityExceeded,
            match=r"^at l = 5: fiber lift hit the node cap 1: 1 pairs reduced, "
            r"\|G0\| = 8, 2 fiber elements so far$",
        ):
            enumerate_reduced_baskets(5, DeltaVector(5, (2, 1, 2)))


class TestSignedBasketVector:
    def test_roundtrip(self):
        for _ in range(100):
            coords = tuple(rng.randint(-3, 3) for _ in range(4))
            v = SignedBasketVector(5, coords)
            assert from_basket(5, v.basket()) == coords

    def test_negative_coordinates_mean_inverses(self):
        v = SignedBasketVector(5, (0, -2, 0, 0))
        inv = hyperplane_inverse(Singularity(20, 3))
        assert v.basket() == (inv, inv)


class TestFeaturesIn:
    def test_pinned(self):
        assert features_in((1, 2), (1, 0))
        assert not features_in((0, 0), (1, 0))
        assert features_in((3, -1), (3, -1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            features_in((1,), (1, 2))

    def test_matches_cone_membership_exhaustively(self):
        """u features in v iff u lies in v + L_v, where L_v is spanned by
        sign(v_i) e_i on the support of v and +/- e_j off it."""
        for dim in (1, 2, 3):
            vals = range(-2, 3)
            for v in itertools.product(vals, repeat=dim):
                for u in itertools.product(vals, repeat=dim):
                    member = all(
                        (u[i] - v[i]) * (1 if v[i] > 0 else -1) >= 0
                        for i in range(dim)
                        if v[i] != 0
                    )
                    assert features_in(u, v) == member


class TestDegreeBounds:
    def test_empty_basket(self):
        assert degree_bounds(basket([])) == (Fraction(1), Fraction(12))

    def test_pinned_example_baskets(self):
        b1 = basket([Singularity(5, 1), Singularity(15, 2)])
        b2 = basket([Singularity(20, 3)])
        assert degree_bounds(b1) == (Fraction(3, 5), Fraction(68, 5))
        assert degree_bounds(b1) == degree_bounds(b2)

    def test_infeasible_when_budget_nonpositive(self):
        with pytest.raises(Infeasible):
            degree_bounds(basket([]), n_min=12)

    def test_negative_n_min_rejected(self):
        with pytest.raises(ValueError, match="n_min must be nonnegative"):
            degree_bounds(basket([]), n_min=-1)

    def test_m_is_least_positive_value_congruent_to_M(self):
        for _ in range(50):
            b = basket(
                [rng.choice(RES_PLUS_5) for _ in range(rng.randint(0, 3))]
            )
            try:
                m, M = degree_bounds(b)
            except Infeasible:
                continue
            assert 0 < m <= 1 or (m == M and M < 1)
            assert (M - m).denominator == 1  # congruent mod Z


class TestCountBound:
    def test_pinned_example_values(self):
        q = {5: DeltaVector(5, (2, 1, 2))}
        assert count_bound(q, 5) == 82
        assert count_bound(q, 10) == 147
        assert count_bound(q, 15) == 212
        assert count_bound(q, 25) == 342

    def test_closed_form_65l_plus_17(self):
        q = {5: DeltaVector(5, (2, 1, 2))}
        for ell in (1, 2, 3, 5):
            assert count_bound(q, 5 * ell) == 65 * ell + 17

    def test_monotone_in_ell_star(self):
        q = {5: DeltaVector(5, (1, -2, 1))}
        values = [count_bound(q, ls) for ls in range(5, 40, 5)]
        assert values == sorted(values)

    def test_unrealizable_rejected(self):
        with pytest.raises(NotRealizable):
            count_bound({5: DeltaVector(5, (1, 1, 1))}, 5)

    def test_multi_index_matches_product_search(self):
        local = random.Random(4747)
        for case in range(24):
            q = {}
            for ell in local.sample((5, 7, 8, 9, 10, 12), local.randint(2, 3)):
                # a realizable delta: the sum over one or two residual points
                points = [local.choice(res_plus(ell)) for _ in range(local.randint(1, 2))]
                q[ell] = sum((orbifold_contribution(s) for s in points), zero_delta(ell))
            ell_star = local.randint(1, 30)
            assert count_bound(q, ell_star) == count_bound_by_search(q, ell_star), (case, q)


def count_bound_by_search(q, ell_star):
    """N(Q, l*) by a search over every choice of one reduced basket per
    index, for the largest total size and the least RK^2 of a choice."""
    bodies = [enumerate_reduced_baskets(ell, dv) for ell, dv in sorted(q.items())]
    s_max = 0
    b_best = None
    for combo in itertools.product(*[zip(b.baskets, b.per_basket_rk2) for b in bodies]):
        s_max = max(s_max, sum(s.width for b, _ in combo for s in b))
        rk2 = sum([a for _, a in combo], Fraction(0))
        b_best = rk2 if b_best is None else min(b_best, rk2)
    budget = 12 - (b_best if b_best is not None else Fraction(0))
    cap = budget - 1 if budget.denominator == 1 else budget.numerator // budget.denominator
    return s_max + int(cap) * (ell_star + 1)


class TestAnalyzeSeries:
    def test_no_surface_for_large_linear_term(self):
        for m in range(11, 16):
            h = parse_rational_function(f"(1+{m}*t+t^2)/(1-t)^3")
            report = analyze_series(h)
            assert report.verdict == "NoSurface"

    def test_degree_ten_is_toric_impossible(self):
        h = parse_rational_function("(1+10*t+t^2)/(1-t)^3")
        report = analyze_series(h)
        assert report.verdict == "Feasible"
        feasible = [c for c in report.per_choice if c.verdict == "Feasible"]
        assert feasible and all(c.invisible_budget == 0 for c in feasible)
        assert all(
            all(not bk for _, bk in c.selection) for c in feasible
        )
        assert report.toric_impossible

    @pytest.mark.xfail(
        strict=True,
        reason="toric_impossible is raised whenever every feasible choice has IK^2 = 0, "
        "but a fan whose cones all carry points of the basket has IK^2 = 0 too",
    )
    def test_toric_polygon_is_not_flagged(self):
        """The Fano polygon with vertices (-2,1), (-1,-2), (2,-1), (1,2) is
        a toric del Pezzo surface: its four cones are all 1/5(1,2) and
        K^2 = 8/5, and this is its series.  The one feasible choice is
        those four points, with IK^2 = 0."""
        verts = [(-2, 1), (-1, -2), (2, -1), (1, 2)]
        cones = [normalize_cone(IntCone(v, u)) for u, v in zip(verts, verts[1:] + verts[:1])]
        assert basket(cones) == basket([Singularity(5, 2)] * 4)
        h = parse_rational_function(
            "(1 - t + 4*t^2 + 4*t^4 - t^5 + t^6)/(1 - 2*t + t^2 - t^5 + 2*t^6 - t^7)"
        )
        assert assemble_series(basket(cones), Fraction(8, 5)).series == h
        report = analyze_series(h)
        feasible = [c for c in report.per_choice if c.verdict == "Feasible"]
        assert [c.selection for c in feasible] == [((5, basket(cones)),)]
        assert feasible[0].invisible_budget == 0
        assert not report.toric_impossible

    def test_projective_plane_budget(self):
        h = parse_rational_function("(1+7*t+t^2)/(1-t)^3")
        report = analyze_series(h)
        assert report.verdict == "Feasible"
        assert report.k_squared == 9
        assert any(c.invisible_budget == 3 for c in report.per_choice)
        assert not report.toric_impossible

    @pytest.mark.parametrize("points", [[], [Singularity(3, 1)], [Singularity(5, 2)] * 2])
    @pytest.mark.parametrize("k2", [Fraction(-1), Fraction(-5, 2)])
    def test_nonpositive_degree_is_no_surface(self, points, k2):
        """A del Pezzo surface has K^2 > 0: at K^2 < 0 no choice is
        Feasible, not even one whose IK^2 is a nonnegative integer.  K^2 is
        shifted by the fractional part of RK^2, so that IK^2 = 12 - K^2 -
        RK^2 is an integer for K^2 = -1 and not for K^2 = -5/2."""
        b = basket(points)
        shifted = k2 - sum((degree_contribution(s) for s in b), Fraction(0)) % 1
        report = analyze_series(assemble_series(b, shifted).series)
        assert report.k_squared == shifted < 0
        budgets = [c.invisible_budget for c in report.per_choice]
        if k2.denominator == 1:
            assert any(x >= 0 and x.denominator == 1 for x in budgets)
        else:
            assert all(x.denominator == 2 for x in budgets)
        assert report.verdict == "NoSurface" and not report.toric_impossible
        assert all(c.verdict == "Infeasible" for c in report.per_choice)

    def test_roundtrip_reduced_basket_is_feasible_choice(self):
        pool = RES_PLUS_5 + tuple(hyperplane_inverse(s) for s in RES_PLUS_5)
        tried = 0
        while tried < 10:
            b = basket([rng.choice(pool) for _ in range(rng.randint(1, 2))])
            if contains_cancelling_tuple(b) is not None:
                continue
            rk2 = sum((degree_contribution(s) for s in b), Fraction(0))
            # choose K^2 so that IK^2 = 12 - K^2 - RK^2 is a small nonneg integer
            k2 = 12 - rk2 - 2
            if k2 <= 0:
                continue
            tried += 1
            hs = assemble_series(b, k2)
            report = analyze_series(hs.series)
            assert report.verdict == "Feasible"
            keys = {
                tuple(sorted(basket_key(bk) for _, bk in c.selection))
                for c in report.per_choice
                if c.verdict == "Feasible"
            }
            assert (basket_key(b),) in keys


class TestPsiInvariants:
    def test_residue_strips_one_cycle(self):
        psi, psi_ext = psi_invariants(basket([Singularity(12, 7)]), 3)
        assert psi.counts == (1, 0)
        assert psi_ext.counts == (2, 1)

    def test_t_only_basket(self):
        psi, psi_ext = psi_invariants(basket([Singularity(9, 2)]), 3)
        assert all(c == 0 for c in psi.counts)
        assert psi_ext.counts == (1, 1)  # one full quiver cycle

    @pytest.mark.parametrize(
        "points,ell",
        [((Singularity(4, 1),), 2), ((Singularity(1, 0), Singularity(5, 4)), 1)],
        ids=str,
    )
    def test_no_quiver_below_three(self, points, ell):
        """At l <= 2 every point is smooth or a T-point: both invariants
        are the empty multiset."""
        empty = IndecMultiset(ell, ())
        assert psi_invariants(basket(points), ell) == (empty, empty)

    def test_difference_is_multiple_of_cycle(self):
        for _ in range(50):
            ell = rng.choice((3, 5))
            pool = res_plus(ell)
            b = list(rng.choice(pool) for _ in range(rng.randint(0, 2)))
            # add some T-singularities of the same local index
            for _ in range(rng.randint(0, 2)):
                c = rng.choice([x for x in range(1, ell) if gcd(x, ell) == 1])
                b.append(Singularity(ell * ell, ell * c - 1))
            psi, psi_ext = psi_invariants(basket(b), ell)
            diff = [a - c for a, c in zip(psi_ext.counts, psi.counts)]
            assert len(set(diff)) <= 1 and (not diff or diff[0] >= 0)
