"""Reconstructing reduced baskets from Hilbert-series data: the reduced body,
feasibility verdicts, degree bounds, and singularity-count bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import ceil, lcm
from operator import itemgetter
from typing import Sequence

from .errors import CapacityExceeded, Infeasible, LengthMismatch, MixedIndex, NotRealizable
from .exactalg import (
    Echelon, RationalFunction, Reducer, column_echelon, graver_completion, graver_fiber,
)
from .hilbert import (
    DeltaVector, degree_contribution, orbifold_contribution, split_series,
)
from .quiver import (
    IndecMultiset,
    contains_cancelling_tuple,
    maximal_shattering,
    residual_quiver,
)
from .singularity import (
    Basket, Singularity, hyperplane_inverse, is_residual, residuals_of_index, residue,
)

# pairs allowed to each stage of enumerate_reduced_baskets: the
# completion of G0 at one local index, and each lift of G0 to a fiber
PAIR_BUDGET = 5_000_000


@lru_cache(maxsize=None)
def _classes(ell: int) -> tuple[tuple, tuple, int, Echelon]:
    """(reps, rows, D, echelon) of Res+(l), from one pass over the
    hyperplane-inverse pairs of residual classes; no Graver basis.

    reps[i] is the member of the i-th pair, in order of least member, whose
    leading delta entry is positive.  Row i is ((rank, P, D*A(P)),
    (rank, N, D*A(N))): P = reps[i], which a positive coordinate selects,
    and N the other member, its inverse, which a negative one selects;
    rank orders all 2|Res+| points by (r, a), and D is the least common
    denominator of their degree contributions A.  echelon is the column
    echelon form of Phi+, whose columns are the delta-vectors of reps.

    ZPhi+ is the delta-lattice Delta(l), so echelon.solve decides
    membership with d = 1.  Delta(l) ⊆ ZPhi+: every indecomposable is
    residual, its class or its inverse class is in reps, and an inverse
    class has the negated delta.  ZPhi+ ⊆ Delta(l): every residual is the
    hyperplane sum of consecutive quiver vertices, and delta is additive
    over shattering.
    """
    classes = {s.iso_key() for s in residuals_of_index(ell)}
    pairs = set()
    for key in classes:
        inv = hyperplane_inverse(Singularity(*key)).iso_key()
        if inv not in classes:
            raise RuntimeError(f"the hyperplane inverse {inv} of {key} is not residual")
        pairs.add(frozenset((key, inv)))
    # the pairs cover the classes, so this holds exactly when each class
    # lies in one pair of two: the other member is then its inverse
    if 2 * len(pairs) != len(classes):
        raise RuntimeError(f"{len(classes)} residual classes form {len(pairs)} inverse pairs")
    ordered = []  # each pair as (P, N)
    for pair in sorted(pairs, key=min):
        members = [Singularity(*k) for k in sorted(pair)]
        positive = [next(x for x in orbifold_contribution(m).entries if x) > 0 for m in members]
        if positive[0] == positive[1]:
            raise RuntimeError(f"ambiguous representative in {pair}")
        ordered.append(members if positive[0] else members[::-1])
    points = sorted([p for pair in ordered for p in pair], key=lambda s: (s.r, s.a))
    rank = {p: i for i, p in enumerate(points)}
    degree = {p: degree_contribution(p) for p in points}
    denom = lcm(*[a.denominator for a in degree.values()])
    reps = tuple([p for p, _ in ordered])
    rows = tuple([
        tuple([(rank[p], p, degree[p].numerator * (denom // degree[p].denominator)) for p in pair])
        for pair in ordered
    ])
    return reps, rows, denom, column_echelon([orbifold_contribution(s).entries for s in reps])


def res_plus(ell: int) -> tuple[Singularity, ...]:
    """One representative per hyperplane-inverse pair of residual classes,
    as _classes(l) keeps them."""
    return _classes(ell)[0]


def _assemble(rows: tuple, v: Sequence[int]) -> tuple[Basket, tuple, int]:
    """(basket, ranks, D*RK^2) of the signed Res+ vector v from the rows of
    _classes(l): the canonical points in (r, a) order, their ranks in the
    same order, which sort baskets as their (r, a) keys do, and the sum of
    their degree numerators."""
    parts = sorted([(row[x < 0], abs(x)) for row, x in zip(rows, v) if x])
    points, ranks, rk2 = [], [], 0
    for (rank, p, a), m in parts:
        points += [p] * m
        ranks += [rank] * m
        rk2 += a * m
    return tuple(points), tuple(ranks), rk2


@dataclass(frozen=True)
class SignedBasketVector:
    """Integer coordinates over Res+(l); negatives select the inverse class."""

    local_index: int
    coords: tuple

    def basket(self) -> Basket:
        rows = _classes(self.local_index)[1]
        if len(self.coords) != len(rows):
            raise LengthMismatch(
                f"{len(self.coords)} coordinates, but Res+({self.local_index}) has {len(rows)} classes"
            )
        return _assemble(rows, self.coords)[0]


def features_in(u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether u lies in the signature cone v + L_v of v."""
    if len(u) != len(v):
        raise LengthMismatch(f"lengths {len(u)} and {len(v)} differ")
    for ui, vi in zip(u, v):
        if vi > 0 and ui < vi:
            return False
        if vi < 0 and ui > vi:
            return False
    return True


@dataclass(frozen=True)
class ReducedBodyResult:
    local_index: int
    delta: DeltaVector
    realizable: bool
    baskets: tuple  # of Basket
    vectors: tuple  # the signed Res+ coordinates of each basket
    per_basket_rk2: tuple  # of Fraction


@lru_cache(maxsize=None)
def _index_context(ell: int) -> Reducer:
    """The Graver basis G0 of ker Phi+ as the Reducer of its normal forms,
    completed within PAIR_BUDGET pairs from the kernel basis of the
    echelon form that _classes(l) keeps; lru_cache keeps no raised
    exception, so a completion cut short is not kept."""
    try:
        return graver_completion(_classes(ell)[3].kernel, PAIR_BUDGET)[0]
    except CapacityExceeded as exc:
        raise CapacityExceeded(f"at l = {ell}: kernel {exc}") from None


def enumerate_reduced_baskets(ell: int, delta: DeltaVector) -> ReducedBodyResult:
    """All cancelling-tuple-free baskets of residuals at local index l whose
    total orbifold contribution is delta.

    Their signed Res+ vectors are the ⊑-minimal elements of the fiber
    {v : Phi+ v = delta}, where u ⊑ v means same signs and entries no
    larger in absolute value (a nonzero kernel vector under v is a
    cancelling tuple).  One forward substitution against the kept echelon
    form of Phi+ decides realizability, as ZPhi+ is the delta-lattice (see
    _classes), and gives a particular solution x0.  The Graver basis G0 of
    ker Phi+ does not depend on delta: it is completed once per local index
    and kept.  exactalg.graver_fiber lifts G0 to the fiber from the normal
    form of x0: the truncated completion of [Phi+ | -delta] that forms only
    the pairs of a fiber vector with an element of G0.  The completion and
    the lift may each form PAIR_BUDGET pairs; reaching it raises
    CapacityExceeded rather than returning a silently truncated list.
    """
    if delta.local_index != ell:
        raise MixedIndex("delta has wrong local index")
    if not delta.is_palindromic():
        raise NotRealizable("delta-vector must be palindromic")
    _, rows, denom, echelon = _classes(ell)
    solved = echelon.solve(delta.entries)
    if solved is None or solved[1] != 1:
        return ReducedBodyResult(ell, delta, False, (), (), ())
    if delta.is_zero:
        # the empty basket is the only cancelling-tuple-free zero-sum basket
        return ReducedBodyResult(ell, delta, True, ((),), ((0,) * len(rows),), (Fraction(0),))
    graver = _index_context(ell)
    try:
        minimal, _ = graver_fiber(graver, solved[0], PAIR_BUDGET)
    except CapacityExceeded as exc:
        raise CapacityExceeded(f"at l = {ell}: {exc}") from None
    # the lift returns at least the normal form of x0
    baskets, _, numerators, vectors = zip(*sorted(
        [(*_assemble(rows, v), v) for v in minimal], key=itemgetter(1)
    ))
    # soundness: re-verify the exact Q-sum and cancelling-freeness
    target = tuple(delta.entries)
    for b in baskets:
        total = tuple(map(sum, zip(*[orbifold_contribution(s).entries for s in b])))
        if total != target:
            raise RuntimeError(f"basket {b} has delta {total}, not {target}")
        if contains_cancelling_tuple(b) is not None:
            raise RuntimeError(f"basket {b} contains a cancelling tuple")
    rk2 = tuple([Fraction(x, denom) for x in numerators])
    if len({x % denom for x in numerators}) > 1:
        raise RuntimeError(f"RK^2 values {rk2} differ modulo 1")
    return ReducedBodyResult(ell, delta, True, baskets, vectors, rk2)


# ---------------------------------------------------------------------------
# feasibility, degree bounds, count bound


@dataclass(frozen=True)
class FeasibilityChoice:
    selection: tuple  # of (local index, Basket)
    rk_squared: Fraction
    invisible_budget: Fraction
    verdict: str  # "Feasible" | "Infeasible"


@dataclass(frozen=True)
class FeasibilityReport:
    k_squared: Fraction
    per_choice: tuple
    verdict: str  # "Feasible" | "NoSurface"
    toric_impossible: bool
    bodies: dict = field(hash=False, default_factory=dict)


def _reduced_bodies(parts: dict) -> dict:
    """The reduced body at each local index of parts, in increasing order;
    NotRealizable at the first delta-vector outside its delta-lattice."""
    bodies = {}
    for ell, dv in sorted(parts.items()):
        body = enumerate_reduced_baskets(ell, dv)
        if not body.realizable:
            raise NotRealizable(
                f"delta-vector at local index {ell} is outside the delta-lattice"
            )
        bodies[ell] = body
    return bodies


def analyze_series(h: RationalFunction) -> FeasibilityReport:
    """Assess every combination of per-index reduced baskets: a choice is
    Feasible when K^2 > 0 and IK^2 = 12 - K^2 - RK^2 is a nonnegative integer."""
    k2, parts = split_series(h)
    bodies = _reduced_bodies(parts)
    choices = []
    for combo in itertools.product(*[zip(b.baskets, b.per_basket_rk2) for b in bodies.values()]):
        rk2 = sum([a for _, a in combo], Fraction(0))
        ik2 = 12 - k2 - rk2
        feasible = k2 > 0 and ik2 >= 0 and ik2.denominator == 1
        choices.append(
            FeasibilityChoice(
                tuple(zip(bodies, [b for b, _ in combo])),
                rk2,
                ik2,
                "Feasible" if feasible else "Infeasible",
            )
        )
    feasible = [c for c in choices if c.verdict == "Feasible"]
    verdict = "Feasible" if feasible else "NoSurface"
    toric_impossible = bool(feasible) and all(
        c.invisible_budget == 0 for c in feasible
    )
    return FeasibilityReport(k2, tuple(choices), verdict, toric_impossible, bodies)


def degree_bounds(b: Basket, n_min: int = 0) -> tuple[Fraction, Fraction]:
    """(m, M) with m <= K^2 <= M for any surface carrying this basket of
    residues, from K^2 = 12 - n - sum(A) with n >= n_min and the Fano
    condition K^2 > 0."""
    if n_min < 0:
        raise ValueError("n_min must be nonnegative")
    for s in b:
        if not is_residual(s):
            raise MixedIndex(f"{s} is not residual")
    a_total = sum((degree_contribution(s) for s in b), Fraction(0))
    big = 12 - a_total - n_min
    if big <= 0:
        raise Infeasible(f"maximum degree {big} is not positive")
    # K^2 > 0 and K^2 = M mod 1, so m is M less the largest integer below it
    return big - (ceil(big) - 1), big


def count_bound(q: dict, ell_star: int) -> int:
    """N(Q, l*): a bound on the number of singular points of any del Pezzo
    orbifold with local indices up to l* and total contributions Q.

    A choice takes one reduced basket per index independently, so the
    largest total size and the least RK^2 over all choices are the sums of
    the per-index extremes."""
    if ell_star < 1:
        raise ValueError(f"l* must be positive, got {ell_star}")
    bodies = _reduced_bodies(q).values()
    s_max = sum(max(sum(s.width for s in b) for b in body.baskets) for body in bodies)
    budget = 12 - sum((min(body.per_basket_rk2) for body in bodies), Fraction(0))
    return s_max + (ceil(budget) - 1) * (ell_star + 1)


def psi_invariants(
    extended_basket: Basket, ell: int
) -> tuple[IndecMultiset, IndecMultiset]:
    """(Psi, Psi~): shattering counts of the residues of the l-piece, and of
    the full l-piece; they differ by a multiple of the quiver cycle."""
    piece = [s for s in extended_basket if s.local_index == ell]
    q = residual_quiver(ell)
    n = len(q.vertices)
    residues = [res for s in piece for res in [residue(s)[0]] if res is not None]
    if residues:
        psi = maximal_shattering(residues)
    else:
        psi = IndecMultiset(ell, (0,) * n)
    if piece:
        psi_tilde = maximal_shattering(piece, extended=True)
    else:
        psi_tilde = IndecMultiset(ell, (0,) * n)
    diff = [a - b for a, b in zip(psi_tilde.counts, psi.counts)]
    if len(set(diff)) > 1 or (diff and diff[0] < 0):
        raise RuntimeError(f"extended shattering differs unevenly: {diff}")
    return psi, psi_tilde
