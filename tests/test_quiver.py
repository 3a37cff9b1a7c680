"""Residual quivers, indecomposables, self-dual singularities, the
delta-vector lattice, and cancelling tuples."""

import itertools
import random
import re
from collections import Counter
from math import gcd

import pytest

from delpezzo import (
    Singularity,
    basket,
    classify,
    contains_cancelling_tuple,
    delta_lattice,
    enumerate_reduced_baskets,
    hyperplane_sum,
    indecomposables,
    maximal_shatter,
    maximal_shattering,
    orbifold_contribution,
    residual_quiver,
    self_duals,
)
from delpezzo import quiver
from delpezzo.errors import MixedIndex
from delpezzo.exactalg import (
    column_echelon,
    cyclotomic,
    int_rank,
    poly,
    poly_divmod,
)
from delpezzo.hilbert import zero_delta
from delpezzo.quiver import IndecMultiset, elementary_t
from delpezzo.singularity import hyperplane_inverse, is_residual, residuals_of_index

rng = random.Random(20260824)


def totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def hyperplane_sum_chain(parts):
    """Left-to-right hyperplane sum of a sequence; None if any step fails.
    The gluing oracle of elementary_t and of the regrouping search."""
    if not parts:
        return None
    acc = parts[0]
    for nxt in parts[1:]:
        acc = hyperplane_sum(acc, nxt)
        if acc is None:
            return None
    return acc


def _indec_by_slope(ell):
    """One indecomposable per unit slope: minimal width w with
    hcf(l, w*c - 1) = 1."""
    out = {}
    for c in range(1, ell):
        if gcd(ell, c) != 1:
            continue
        w = next(w for w in range(1, ell + 1) if gcd(ell, w * c - 1) == 1)
        out[c] = Singularity(w * ell, w * c - 1)
    return out


def pair_counts(m):
    """Counts of an IndecMultiset per isomorphism class, in the quiver's
    pair order."""
    n = len(m.counts)
    out = [m.counts[0]]
    for i in range(1, n // 2):
        out.append(m.counts[i] + m.counts[n - i])
    out.append(m.counts[n // 2])
    return tuple(out)


def regroupings(m):
    """All baskets whose maximal shattering is m, by a search over glued
    arcs of the quiver cycle (wrapping arcs give T-singularities), kept
    as the oracle of enumerate_reduced_baskets.  Only arcs that fit in
    m.counts are tried, and a longer arc from the same start cannot fit
    once a shorter one does not."""
    verts = residual_quiver(m.local_index).vertices
    n = len(verts)
    arcs = []  # (count used per vertex, glued singularity)
    for start in range(n):
        used = [0] * n
        for length in range(1, sum(m.counts) + 1):
            used[(start + length - 1) % n] += 1
            glued = hyperplane_sum_chain([verts[(start + j) % n] for j in range(length)])
            if glued is None or any(u > c for u, c in zip(used, m.counts)):
                break
            arcs.append((tuple(used), glued))
    found = set()

    def rec(i, left, parts):
        if not any(left):
            found.add(basket(parts))
        elif i < len(arcs):
            used, glued = arcs[i]
            most = min(x // u for x, u in zip(left, used) if u)
            for k in range(most + 1):
                rec(i + 1, [x - k * u for x, u in zip(left, used)], parts + [glued] * k)

    rec(0, list(m.counts), [])
    return sorted(found, key=lambda b: [(s.r, s.a) for s in b])


class TestIndecomposables:
    def test_pinned_at_five(self):
        assert set(indecomposables(5)) == {
            Singularity(5, 1),
            Singularity(5, 2),
            Singularity(5, 3),
            Singularity(10, 1),
        }

    def test_counts_match_phi(self):
        for ell in range(3, 21):
            assert len(indecomposables(ell)) == totient(ell)

    def test_trivial_below_three(self):
        assert indecomposables(1) == () and indecomposables(2) == ()

    def test_all_are_indecomposable_residuals(self):
        for ell in range(3, 15):
            for s in indecomposables(ell):
                assert s.local_index == ell
                assert maximal_shatter(s) == [s]


def _quiver_by_scan(ell):
    """The O(phi^2) successor search that the continuation lookup replaced,
    kept as its oracle: from the start vertex, the successor is the one
    indecomposable v with hyperplane_sum(current, v) defined."""
    verts = list(_indec_by_slope(ell).values())
    order = [Singularity(ell, 1) if ell % 2 else Singularity(2 * ell, 1)]
    while len(order) < len(verts):
        nxt = [v for v in verts if hyperplane_sum(order[-1], v) is not None]
        assert len(nxt) == 1, (ell, order[-1], nxt)
        order.append(nxt[0])
    assert hyperplane_sum(order[-1], order[0]) is not None
    return tuple(order)


class TestResidualQuiver:
    def test_matches_the_successor_scan_up_to_120(self):
        for ell in range(3, 121):
            assert residual_quiver(ell).vertices == _quiver_by_scan(ell), ell

    def test_pinned_cycle_at_five(self):
        q = residual_quiver(5)
        assert q.vertices == (
            Singularity(5, 1),
            Singularity(5, 2),
            Singularity(10, 1),
            Singularity(5, 3),
        )
        for i, v in enumerate(q.vertices):
            assert q.successor(v) == q.vertices[(i + 1) % 4]

    def test_widths_sum_to_local_index(self):
        for ell in range(3, 21):
            q = residual_quiver(ell)
            assert sum(v.width for v in q.vertices) == ell

    def test_vertex_count_is_phi(self):
        for ell in range(3, 21):
            assert len(residual_quiver(ell).vertices) == totient(ell)

    def test_successor_sums_are_defined(self):
        for ell in range(3, 15):
            q = residual_quiver(ell)
            for v in q.vertices:
                assert hyperplane_sum(v, q.successor(v)) is not None

    def test_dual_reverses_the_cycle(self):
        for ell in range(3, 15):
            q = residual_quiver(ell)
            n = len(q.vertices)
            for i, v in enumerate(q.vertices):
                assert q.vertices[(-i) % n] == v.dual()

    def test_full_cycle_recomposes_elementary_t(self):
        for ell in range(3, 12):
            q = residual_quiver(ell)
            total = hyperplane_sum_chain(list(q.vertices))
            assert total is not None
            c = classify(total)
            assert c.kind.name == "T_SINGULARITY" and c.d == 1

    def test_elementary_t_from_start(self):
        assert elementary_t(3, Singularity(3, 1)) == Singularity(9, 5)

    def test_elementary_t_is_the_glued_cycle_up_to_60(self):
        for ell in range(3, 61):
            verts = residual_quiver(ell).vertices
            n = len(verts)
            for i, v in enumerate(verts):
                glued = hyperplane_sum_chain([verts[(i + j) % n] for j in range(n)])
                assert elementary_t(ell, v) == glued, (ell, v)

    @pytest.mark.parametrize("ell, s", [
        (5, Singularity(7, 1)),  # another local index
        (2, Singularity(4, 1)),  # no quiver below three
        (5, Singularity(25, 9)),  # a T-point, not a vertex
    ])
    def test_elementary_t_names_a_non_vertex(self, ell, s):
        with pytest.raises(MixedIndex, match=re.escape(f"{s} is not a vertex of the residual quiver at l={ell}")):
            elementary_t(ell, s)

    def test_successor_and_index_of_name_a_non_vertex(self):
        q = residual_quiver(5)
        for method in (q.successor, q.index_of):
            with pytest.raises(MixedIndex, match=re.escape("1/15(1,2) is not a vertex of the residual quiver at l=5")):
                method(Singularity(15, 2))


class TestSelfDuals:
    def test_pinned_table_mod_eight(self):
        for ell in range(3, 35):
            got = set(self_duals(ell))
            if ell % 2 == 1:
                want = {Singularity(ell, 1), Singularity(2 * ell, 1)}
            elif ell % 8 in (0, 4):
                want = {Singularity(2 * ell, 1), Singularity(2 * ell, ell + 1)}
            elif ell % 8 == 2:
                want = {Singularity(2 * ell, 1), Singularity(4 * ell, ell + 1)}
            else:  # ell % 8 == 6
                want = {Singularity(2 * ell, 1), Singularity(4 * ell, 3 * ell + 1)}
            assert got == want, ell

    def test_exactly_the_fixed_points_of_dual(self):
        for ell in range(3, 21):
            fixed = {
                v for v in residual_quiver(ell).vertices if v.dual() == v
            }
            assert fixed == set(self_duals(ell))

    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_no_self_duals_below_three(self, ell):
        with pytest.raises(ValueError, match="l >= 3"):
            self_duals(ell)


def floor_reduces(basis, v):
    """Whether v lies in the Z-span of echelon rows: the first nonzero
    entry of each row lies strictly right of that of the row before, and
    the later rows are zero there.  So taking away each row q times, q the
    floor quotient at that entry, leaves zero exactly when it does."""
    resid = list(v)
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x)
        q = resid[pivot] // row[pivot]
        if q:
            resid = [x - q * y for x, y in zip(resid, row)]
    return not any(resid)


class TestDeltaLattice:
    def test_rank_two_at_five(self):
        assert delta_lattice(5).rank == 2

    def test_pinned_relations_at_five(self):
        q1 = orbifold_contribution(Singularity(5, 1))
        q2 = orbifold_contribution(Singularity(20, 3))
        q3 = orbifold_contribution(Singularity(10, 1))
        q4 = orbifold_contribution(Singularity(15, 2))
        assert q1 + q4 == q2
        assert q1 + q4 + q4 == q3

    def test_rank_is_half_phi(self):
        for ell in range(3, 21):
            assert delta_lattice(ell).rank == totient(ell) // 2

    def test_membership(self):
        L = delta_lattice(5)
        assert L.contains((2, 1, 2)) and L.contains((1, -2, 1))
        assert L.contains((8, -1, 8))
        assert not L.contains((1, 1, 1))
        assert not L.contains((1, 0, 1))

    def test_membership_checks_the_dimension_at_every_index(self):
        """A vector must have l - 2 entries, also where the lattice is 0."""
        for ell in range(1, 12):
            L = delta_lattice(ell)
            dim = max(0, ell - 2)
            assert L.contains((0,) * dim)
            for wrong in {max(0, dim - 1), dim + 1} - {dim}:
                with pytest.raises(ValueError, match="dimension"):
                    L.contains((5,) * wrong)

    def test_generators_lie_in_lattice(self):
        for ell in range(3, 15):
            L = delta_lattice(ell)
            for s in indecomposables(ell):
                assert L.contains(orbifold_contribution(s).entries)

    def test_membership_matches_floor_reduction(self):
        """contains solves over the echelon form; floor_reduces over its
        basis rows is the oracle."""
        local = random.Random(4242)
        answers = set()
        for ell in range(3, 41):
            L = delta_lattice(ell)
            for _ in range(40):
                v = [0] * (ell - 2)
                for g in L.generators:
                    c = local.randint(-2, 2)
                    v = [x + c * y for x, y in zip(v, g)]
                if local.random() < 0.5:
                    v[local.randrange(ell - 2)] += local.choice((-1, 1))
                answer = L.contains(v)
                assert answer == floor_reduces(L.basis, v), (ell, v)
                answers.add(answer)
        assert answers == {True, False}

    @pytest.mark.parametrize("ell", range(3, 61))
    def test_half_width_is_the_full_echelon_form(self, ell):
        """delta_lattice echelonizes and ranks the first (l - 1)//2 entries
        of each generator; the full-width construction is the oracle.  The
        rank and basis agree, U and the pivots are the oracle's, and each
        oracle A column is its half column mirrored."""
        gens = tuple(orbifold_contribution(v).entries for v in indecomposables(ell))
        full = column_echelon(gens)
        L = delta_lattice(ell)
        n, h = ell - 2, (ell - 1) // 2
        assert L.generators == gens
        assert L.rank == int_rank(gens) == len(full.pivots)
        assert L.basis == tuple([tuple(full.A[c]) for _, c in full.pivots])
        assert L.echelon.U == full.U and L.echelon.pivots == full.pivots
        assert len(L.echelon.A) == len(full.A)
        for half, col in zip(L.echelon.A, full.A):
            assert len(half) == h and [*half, *half[: n - h][::-1]] == col

    def test_one_rank_and_one_echelon_of_the_halves(self, monkeypatch):
        """Each delta_lattice(l) calls int_rank and column_echelon once,
        on the phi(l) generators cut to (l - 1)//2 entries."""
        widths = {"int_rank": [], "column_echelon": []}
        for name, calls in widths.items():
            kernel = getattr(quiver, name)

            def counted(rows, kernel=kernel, calls=calls):
                calls.append([len(row) for row in rows])
                return kernel(rows)

            monkeypatch.setattr(quiver, name, counted)
        for ell in (3, 4, 7, 12, 31, 50):
            for calls in widths.values():
                calls.clear()
            delta_lattice(ell)
            for name, calls in widths.items():
                assert calls == [[(ell - 1) // 2] * totient(ell)], (name, ell)

    def test_rank_disagreement_raises(self, monkeypatch):
        """The int_rank cross-check raises, also under python -O."""
        rank = quiver.int_rank
        monkeypatch.setattr(quiver, "int_rank", lambda rows: rank(rows) + 1)
        with pytest.raises(RuntimeError, match=r"at l=7 has 3 rows, rank 4$"):
            delta_lattice(7)

    def test_no_lattice_vector_vanishes_at_primitive_roots(self):
        """Reduced mod Phi_l, the basis of Delta(l) keeps its rank: no
        nonzero lattice vector, as a numerator sum delta_i t^i, vanishes
        at the primitive l-th roots of unity.  split_series relies on it."""
        for ell in range(3, 41):
            L = delta_lattice(ell)
            phi = cyclotomic(ell)
            rows = []
            for b in L.basis:
                rem = poly_divmod(poly([0, *b]), phi)[1]
                rows.append(list(rem) + [0] * (len(phi) - 1 - len(rem)))
            assert int_rank(rows) == L.rank, ell


def window(ell):
    """The delta-vectors of all vertices of residual_quiver(l), and of the
    first phi(l)/2 of them, the columns that split_series takes at l."""
    gens = [orbifold_contribution(v).entries for v in residual_quiver(ell).vertices]
    return gens, gens[: len(gens) // 2]


class TestQuiverWindow:
    """The facts behind the split's columns: the window spans Delta(l) (the
    proof in hilbert._Frame.system uses the first two checks), and it is
    independent, so rank Delta(l) = phi(l)/2 on the range checked."""

    def test_window_is_a_basis_up_to_150(self):
        for ell in range(3, 151):
            gens, win = window(ell)
            n = len(gens)
            assert n == totient(ell) and n % 2 == 0, ell
            assert all(gens[(-i) % n] == g for i, g in enumerate(gens)), ell
            assert not any(map(sum, zip(*gens))), ell
            assert len(column_echelon(win).pivots) == n // 2, ell

    def test_window_keeps_its_rank_mod_phi_up_to_150(self):
        """Reduced mod Phi_l, the window keeps phi(l)/2 pivots: no nonzero
        element of Delta(l) vanishes at the primitive l-th roots of unity,
        the fact that gives the split's system no nullspace."""
        for ell in range(3, 151):
            _, win = window(ell)
            phi = cyclotomic(ell)
            rows = [poly_divmod(poly([0, *g]), phi)[1] for g in win]
            assert len(column_echelon(rows).pivots) == len(win), ell


class TestShatteringMultisets:
    def test_pair_counts_at_five(self):
        m = maximal_shattering([Singularity(5, 2)])
        assert m.counts == (0, 1, 0, 0)
        assert pair_counts(m) == (0, 1, 0)

    @pytest.mark.parametrize(
        "points",
        [
            [Singularity(4, 1)],  # 1/4(1,1), a T-point of local index 2
            [Singularity(4, 1), Singularity(8, 3)],
            [Singularity(1, 0)],  # a smooth point
            [Singularity(3, 2), Singularity(1, 0)],  # a T-point of local index 1
        ],
        ids=str,
    )
    def test_extended_shattering_below_three_is_empty(self, points):
        """At l <= 2 the quiver has no vertices: every point is smooth or a
        T-point, and shatters into nothing that is counted."""
        ell = points[0].local_index
        assert ell <= 2
        assert maximal_shattering(points, extended=True) == IndecMultiset(ell, ())
        with pytest.raises(MixedIndex, match="not residual"):
            maximal_shattering(points)

    def test_mixed_index_rejected(self):
        with pytest.raises(MixedIndex):
            maximal_shattering([Singularity(5, 1), Singularity(3, 1)])

    def test_empty_basket_rejected(self):
        with pytest.raises(MixedIndex, match="empty basket has no local index"):
            maximal_shattering([])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            IndecMultiset(5, (-1, 0, 0, 0))

    def test_regroupings_contain_original(self):
        for _ in range(40):
            ell = rng.randint(3, 6)
            picks = [
                rng.choice(indecomposables(ell))
                for _ in range(rng.randint(1, 3))
            ]
            m = maximal_shattering(picks, extended=True)
            groups = regroupings(m)
            # every regrouping shatters back to the input multiset; baskets
            # are isomorphism classes, so compare dual-pair counts
            for g in groups:
                back = maximal_shattering(g, extended=True)
                assert pair_counts(back) == pair_counts(m)
            key = tuple(sorted(s.iso_key() for s in picks))
            assert key in {tuple(sorted(s.iso_key() for s in g)) for g in groups}

    def test_cancelling_free_regroupings_are_enumerated(self):
        """A Hilbert series fixes only delta, and regrouping a basket's
        maximal shattering keeps its delta.  So each regrouping that is,
        once its zero-delta parts (T-singularities) are dropped, a
        cancelling-free basket of residuals is one that the enumerator
        lists for that delta."""
        local = random.Random(20261019)
        compared = 0
        for _ in range(40):
            ell = local.choice((5, 7, 8, 9, 10, 12))
            pool = residuals_of_index(ell)
            picks = [local.choice(pool) for _ in range(local.randint(1, 3))]
            delta = sum((orbifold_contribution(s) for s in picks), zero_delta(ell))
            listed = set(enumerate_reduced_baskets(ell, delta).baskets)
            for g in regroupings(maximal_shattering(picks)):
                rest = basket([s for s in g if not orbifold_contribution(s).is_zero])
                if all(map(is_residual, rest)) and contains_cancelling_tuple(rest) is None:
                    assert rest in listed, (ell, picks, rest)
                    compared += 1
        assert compared > 100


def has_cancelling_subset(points):
    """Whether some nonempty sub-multiset of points of one local index has
    zero delta-sum, by trying each of the 2^n sub-multisets."""
    deltas = [(s.local_index, orbifold_contribution(s).entries) for s in points]
    for mask in range(1, 1 << len(deltas)):
        chosen = [d for i, d in enumerate(deltas) if mask >> i & 1]
        if len({ell for ell, _ in chosen}) == 1 and not any(map(sum, zip(*[e for _, e in chosen]))):
            return True
    return False


class TestCancellingTuples:
    def test_same_witness_for_unsorted_and_non_canonical_input(self):
        """Baskets of one or two local indices, each point in either of its
        two forms, often with a point and its hyperplane inverse, shuffled,
        canonical, or sorted in their given forms: a witness exists exactly
        when the search over all sub-multisets finds one, it is a nonempty
        sub-multiset of the canonical basket with zero delta-sum, and the
        three forms give the same witness."""
        local = random.Random(20261020)
        kinds = {"found": 0, "none": 0}
        for _ in range(600):
            indices = local.sample((5, 7, 8, 9, 10), local.randint(1, 2))
            items = []
            for ell in indices:
                pool = residuals_of_index(ell)
                picks = [local.choice(pool) for _ in range(local.randint(1, 4))]
                if local.random() < 0.4:
                    picks.append(hyperplane_inverse(picks[0]))
                items += picks
            local.shuffle(items)
            items = [s.dual() if local.random() < 0.5 else s for s in items]  # either form
            assert len(items) <= 10
            exists = has_cancelling_subset(items)
            canonical = basket(items)
            witnesses = set()
            for form in (items, canonical, sorted(items, key=lambda s: (s.r, s.a))):
                got = contains_cancelling_tuple(form)
                assert (got is not None) == exists, form
                kinds["none" if got is None else "found"] += 1
                witnesses.add(got)
            assert len(witnesses) == 1, (items, witnesses)
            if got is not None:
                assert got and not Counter(got) - Counter(canonical), (items, got)
                total = sum(map(orbifold_contribution, got), zero_delta(got[0].local_index))
                assert total.is_zero, (items, got)
        assert min(kinds.values()) > 100, kinds

    def test_t_singularity_is_its_own_cancelling_tuple(self):
        t_point = Singularity(4, 1)  # 1/4(1,1), a T-point of local index 2
        assert contains_cancelling_tuple([t_point]) == (t_point,)
        assert contains_cancelling_tuple([Singularity(5, 1), t_point]) == (t_point,)

    def test_inverse_pairs_cancel(self):
        found = contains_cancelling_tuple(
            [Singularity(5, 1), Singularity(20, 11)]
        )
        assert found is not None
        total = zero_delta(5)
        for s in found:
            total = total + orbifold_contribution(s)
        assert total.is_zero

    def test_cancelling_pair_within_one_half(self):
        # 1/10(1,3) and 1/15(1,2) have delta (-1,-3,-1) and (1,3,1); both
        # fall in the first half of the meet-in-the-middle split
        b = [Singularity(10, 3), Singularity(15, 2), Singularity(20, 3), Singularity(20, 3)]
        found = contains_cancelling_tuple(b)
        assert found is not None
        total = zero_delta(5)
        for s in found:
            total = total + orbifold_contribution(s)
        assert total.is_zero

    def test_shattered_t_cones_cancel(self):
        for ell in (3, 5, 7):
            t = elementary_t(ell, residual_quiver(ell).vertices[0])
            shards = maximal_shatter(t)
            assert contains_cancelling_tuple(shards) is not None

    def test_single_residuals_do_not_cancel(self):
        for ell in range(3, 10):
            for s in indecomposables(ell):
                assert contains_cancelling_tuple([s]) is None

    def test_reduced_example_baskets_are_cancelling_free(self):
        assert (
            contains_cancelling_tuple([Singularity(5, 1), Singularity(15, 2)])
            is None
        )
        assert contains_cancelling_tuple([Singularity(20, 3)]) is None
