"""The residual quiver: indecomposable singularities at a fixed local index,
their cyclic gluing order, maximal shatterings, the delta-lattice, and
cancelling-tuple detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import MixedIndex
from .exactalg import Echelon, column_echelon, int_rank
from .hilbert import orbifold_contribution, size_check
from .singularity import (
    Basket,
    Singularity,
    basket,
    basket_pieces,
    hyperplane_sum,
    is_residual,
    maximal_shatter,
)


def indecomposables(ell: int) -> tuple[Singularity, ...]:
    """The phi(l) indecomposables at local index l, in quiver cycle order.

    For l <= 2 there are none; an empty tuple is returned.
    """
    return residual_quiver(ell).vertices


@dataclass(frozen=True)
class ResidualQuiver:
    """Cyclically ordered indecomposables; vertex i glues onto vertex i+1."""

    local_index: int
    vertices: tuple[Singularity, ...]

    def index_of(self, s: Singularity) -> int:
        try:
            return self.vertices.index(s)
        except ValueError:
            raise MixedIndex(
                f"{s} is not a vertex of the residual quiver at l={self.local_index}"
            ) from None

    def successor(self, s: Singularity) -> Singularity:
        return self.vertices[(self.index_of(s) + 1) % len(self.vertices)]


@lru_cache(maxsize=None)
def residual_quiver(ell: int) -> ResidualQuiver:
    """The phi(l)-cycle: the maximal shattering of the elementary
    T-singularity 1/l^2(1, l*c - 1), c = 2 for odd l and 1 for even l.

    Its edge point p(j) is primitive iff hcf(l, 1 - j*c) = 1, and as c is a
    unit, 1 - j*c runs over every residue mod l: phi(l) cuts in [0, l).  The
    shard from a cut has width the least w that reaches the next primitive
    point, so it is indecomposable, and its slope c*(1 - j*c)^-1 runs over
    every unit once.  The first shard is the canonical self-dual vertex
    1/l(1,1) for odd l and 1/2l(1,1) for even l.  The phi(l) < l vertices
    have orders below l^2, which must pass size_check before any is built.
    """
    if ell < 3:
        return ResidualQuiver(ell, ())
    size_check(ell, 2 * ell.bit_length(), "a residual quiver", str(ell))
    order = maximal_shatter(Singularity(ell * ell, ell * (1 + ell % 2) - 1))
    if hyperplane_sum(order[-1], order[0]) is None:
        raise RuntimeError("cycle does not close")
    # dualizing must reverse the cycle, i -> -i: self_duals reads its fixed points
    n = len(order)
    if n % 2:
        raise RuntimeError(f"quiver cycle of odd length {n}")
    for i, v in enumerate(order):
        if order[(-i) % n] != v.dual():
            raise RuntimeError(f"dualizing does not reverse the cycle at {v}")
    return ResidualQuiver(ell, tuple(order))


def elementary_t(ell: int, start: Singularity) -> Singularity:
    """One full quiver cycle glued left to right from the given vertex: the
    cone of width l on the edge of start, 1/l^2(1, l*c - 1) with c the slope
    of start.  MixedIndex when start is not a vertex at l."""
    residual_quiver(ell).index_of(start)
    return Singularity(ell * ell, ell * start.slope - 1)


def self_duals(ell: int) -> tuple[Singularity, Singularity]:
    """The two self-dual indecomposables, sorted: the start vertex of the
    quiver and the antipodal one, the fixed points of i -> -i."""
    if ell < 3:
        raise ValueError(f"self-duals need a local index l >= 3, got {ell}")
    v = residual_quiver(ell).vertices
    return tuple(sorted((v[0], v[len(v) // 2]), key=lambda s: (s.r, s.a)))


# ---------------------------------------------------------------------------
# indecomposable multisets and maximal shattering


@dataclass(frozen=True)
class IndecMultiset:
    """Counts per quiver vertex, aligned with residual_quiver(l).vertices."""

    local_index: int
    counts: tuple

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")


def maximal_shattering(
    b: Iterable[Singularity], extended: bool = False
) -> IndecMultiset:
    """Counts of indecomposables obtained by fully shattering every element.

    All elements must share one local index.  With extended=True arbitrary
    singularities of that index are allowed (T-parts shatter into whole
    quiver cycles); otherwise elements must be residual.
    """
    items = list(b)
    if not items:
        raise MixedIndex("empty basket has no local index")
    ell = items[0].local_index
    q = residual_quiver(ell)
    counts = [0] * len(q.vertices)
    for s in items:
        if s.local_index != ell:
            raise MixedIndex(f"{s} has local index {s.local_index}, not {ell}")
        if not extended and not is_residual(s):
            raise MixedIndex(f"{s} is not residual")
        if not q.vertices:
            continue  # l <= 2: every point is smooth or a T-point
        for shard in maximal_shatter(s):
            counts[q.index_of(shard)] += 1
    return IndecMultiset(ell, tuple(counts))


# ---------------------------------------------------------------------------
# delta-lattice


@dataclass(frozen=True)
class DeltaLattice:
    """Delta(l), the Z-span of the delta-vectors of the quiver vertices.

    local_index is l, and generators are the delta entry-vectors of
    residual_quiver(l).vertices, in order, of l - 2 entries each.  Every
    delta-vector is a palindrome, fixed by its first h = (l - 1)//2
    entries, and echelon is column_echelon of the generators cut to those:
    delta_lattice proves that the column operations and pivots are those
    of the full matrix, and that each full column of A is its half
    mirrored.
    """

    local_index: int
    generators: tuple
    echelon: Echelon

    @property
    def rank(self) -> int:
        return len(self.echelon.pivots)

    @property
    def basis(self) -> tuple:
        """The lattice basis rows: the pivot columns of the full echelon
        form, each its half column mirrored back to l - 2 entries."""
        n, h = self.local_index - 2, (self.local_index - 1) // 2
        A = self.echelon.A
        return tuple([(*A[c], *A[c][: n - h][::-1]) for _, c in self.echelon.pivots])

    def contains(self, entries: Sequence[int]) -> bool:
        """Integer membership of a delta-entry vector in the lattice.  Every
        element is a palindrome, and a palindrome v is M x exactly when its
        half is M_h x, as M x is a palindrome too (see delta_lattice)."""
        if len(entries) != max(0, self.local_index - 2):
            raise ValueError("dimension mismatch")
        v = tuple(entries)
        if v != v[::-1]:
            return False
        solved = self.echelon.solve(v[: (self.local_index - 1) // 2])
        return solved is not None and solved[1] == 1


def delta_lattice(ell: int) -> DeltaLattice:
    """Z-span of the delta-vectors of the indecomposables at local index l,
    echelonized and ranked on the first h = (l - 1)//2 entries of each.

    Write M for the l - 2 by phi(l) matrix of the generators as columns and
    M_h for its first h rows.  Each generator is a palindrome, so row i of
    M equals row l - 3 - i, and rows h..l - 3 repeat rows of M_h.
    - The mirrored rows equal the kept rows, so rank M = rank M_h.
    - column_echelon decides each step from the row at hand, so on M it
      makes the steps it makes on M_h until it has passed row h - 1.  Then
      every non-pivot column is zero on the kept rows.  It is an integer
      combination of palindromes, so a palindrome, and zero on every row:
      no later row of M gives a pivot or a step.
    - So the column operations and pivots are those of column_echelon(M),
      and each column of its A is the half column mirrored.
    int_rank cross-checks the pivot count on M_h.
    """
    gens = tuple(orbifold_contribution(v).entries for v in indecomposables(ell))
    halves = [g[: (ell - 1) // 2] for g in gens]
    echelon = column_echelon(halves)
    rank = int_rank(halves)
    if len(echelon.pivots) != rank:
        raise RuntimeError(
            f"delta-lattice basis at l={ell} has {len(echelon.pivots)} rows, rank {rank}"
        )
    return DeltaLattice(ell, gens, echelon)


# ---------------------------------------------------------------------------
# cancelling tuples


def contains_cancelling_tuple(b: Iterable[Singularity]) -> Optional[Basket]:
    """A nonempty zero-Q sub-multiset of the basket, or None.

    Every input is split by basket_pieces into canonical pieces of one
    local index, sorted by (r, a), so the witness does not depend on the
    order or the form of the given points; each piece is tested on its
    own, following the same-index conjecture.  Meet-in-the-middle over
    delta partial sums: each half keeps one subset per distinct partial sum, so it holds at
    most prod_j (m_j + 1) sums, m_j the multiplicity of the j-th class in
    that half, and the work grows with that product rather than with
    2^(items).
    """
    for piece in basket_pieces(tuple(b)).values():
        witness = _cancelling_single_index(piece)
        if witness is not None:
            return witness
    return None


def _cancelling_single_index(items: Basket) -> Optional[Basket]:
    deltas = [orbifold_contribution(s).entries for s in items]
    for s, d in zip(items, deltas):
        if not any(d):  # a T-singularity is itself cancelling (zero Q)
            return basket([s])
    half = len(items) // 2
    left = _subset_sums(deltas[:half])
    right = _subset_sums(deltas[half:])
    for total, mask in left.items():
        neg = tuple([-x for x in total])
        if neg in right:
            if mask == 0 and right[neg] == 0:
                continue
            chosen = [items[i] for i in range(half) if mask >> i & 1]
            chosen += [
                items[half + i]
                for i in range(len(items) - half)
                if right[neg] >> i & 1
            ]
            return basket(chosen)
    return None


def _subset_sums(deltas: list[tuple]) -> dict[tuple, int]:
    """One subset (bit mask) per partial sum; the zero sum keeps a nonempty
    subset once one is found, so a cancelling tuple inside one half of a
    meet-in-the-middle split is not hidden by the empty subset."""
    dim = len(deltas[0]) if deltas else 0
    zero = (0,) * dim
    out = {zero: 0}
    for i, d in enumerate(deltas):
        new = {}
        for total, mask in out.items():
            t2 = tuple([a + b for a, b in zip(total, d)])
            if t2 == zero or (t2 not in out and t2 not in new):
                new[t2] = mask | (1 << i)
        out.update(new)
    return out
