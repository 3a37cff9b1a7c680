"""The residual quiver: indecomposable singularities at a fixed local index,
their cyclic gluing order, maximal shatterings, the delta-lattice, and
cancelling-tuple detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .errors import MixedIndex
from .exactalg import column_echelon, int_rank
from .hilbert import orbifold_contribution
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
    1/l(1,1) for odd l and 1/2l(1,1) for even l.
    """
    if ell < 3:
        return ResidualQuiver(ell, ())
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
    local_index: int
    generators: tuple  # delta entry-vectors of the quiver vertices, in order
    rank: int
    basis: tuple  # lattice basis rows

    def contains(self, entries: Sequence[int]) -> bool:
        """Integer membership of a delta-entry vector in the lattice.

        delta_lattice takes the basis from a column echelon form, computed
        once: the first nonzero entry of each row lies strictly right of
        that of the row before, and the later rows are zero there.  So
        taking away each row q times, q the floor quotient at that entry,
        leaves zero exactly when the vector lies in the lattice.
        """
        resid = list(entries)
        if len(resid) != max(0, self.local_index - 2):
            raise ValueError("dimension mismatch")
        for row in self.basis:
            pivot = next(i for i, x in enumerate(row) if x)
            q = resid[pivot] // row[pivot]
            if q:
                resid = [x - q * y for x, y in zip(resid, row)]
        return not any(resid)


@lru_cache(maxsize=None)
def delta_lattice(ell: int) -> DeltaLattice:
    """Z-span of the delta-vectors of the indecomposables at local index l."""
    gens = tuple(
        orbifold_contribution(v).entries for v in indecomposables(ell)
    )
    rank = int_rank(list(gens))
    # lattice basis: the pivot columns of the column echelon form of the
    # matrix whose columns are gens
    echelon, _, pivots = column_echelon(gens)
    basis = tuple([tuple(echelon[c]) for _, c in pivots])
    if len(basis) != rank:
        raise RuntimeError(
            f"delta-lattice basis at l={ell} has {len(basis)} rows, rank {rank}"
        )
    return DeltaLattice(ell, gens, rank, basis)


# ---------------------------------------------------------------------------
# cancelling tuples


def contains_cancelling_tuple(b: Iterable[Singularity]) -> Optional[Basket]:
    """A nonempty zero-Q sub-multiset of the basket, or None.

    Mixed-index baskets are tested per local-index piece, following the
    same-index conjecture.  Meet-in-the-middle over delta partial sums:
    each half keeps one subset per distinct partial sum, so it holds at
    most prod_j (m_j + 1) sums, m_j the multiplicity of the j-th class in
    that half, and the work grows with that product rather than with
    2^(items).
    """
    pieces = basket_pieces(list(b))
    for piece in pieces.values():
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
