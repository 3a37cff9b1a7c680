"""The residual quiver: indecomposable singularities at a fixed local index,
their cyclic gluing order, maximal shatterings, the delta-lattice, and
cancelling-tuple detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import CapacityExceeded, MixedIndex
from .exactalg import int_rank, _column_echelon
from .hilbert import orbifold_contribution
from .singularity import (
    Basket,
    Singularity,
    basket,
    basket_pieces,
    continuation,
    hyperplane_sum,
    hyperplane_sum_chain,
    is_residual,
    maximal_shatter,
)


def indecomposables(ell: int) -> tuple[Singularity, ...]:
    """The phi(l) indecomposables at local index l, in quiver cycle order.

    For l <= 2 there are none; an empty tuple is returned.
    """
    return residual_quiver(ell).vertices


def _indec_by_slope(ell: int) -> dict[int, Singularity]:
    """One indecomposable per unit slope: minimal width w with
    hcf(l, w*c - 1) = 1."""
    out = {}
    for c in range(1, ell):
        if gcd(ell, c) != 1:
            continue
        w = next(w for w in range(1, ell + 1) if gcd(ell, w * c - 1) == 1)
        out[c] = Singularity(w * ell, w * c - 1)
    return out


@dataclass(frozen=True)
class ResidualQuiver:
    """Cyclically ordered indecomposables; vertex i glues onto vertex i+1."""

    local_index: int
    vertices: tuple[Singularity, ...]

    def index_of(self, s: Singularity) -> int:
        return self.vertices.index(s)

    def successor(self, s: Singularity) -> Singularity:
        i = self.vertices.index(s)
        return self.vertices[(i + 1) % len(self.vertices)]


@lru_cache(maxsize=None)
def residual_quiver(ell: int) -> ResidualQuiver:
    """Build the phi(l)-cycle, starting at the canonical self-dual vertex."""
    if ell < 3:
        return ResidualQuiver(ell, ())
    by_slope = _indec_by_slope(ell)
    members = set(by_slope.values())
    widths = sorted({v.width for v in members})
    start = Singularity(ell, 1) if ell % 2 else Singularity(2 * ell, 1)
    if start not in members:
        raise RuntimeError(f"start vertex {start} is not indecomposable")
    order = [start]
    current = start
    for _ in range(len(by_slope) - 1):
        # the successor v is the continuation of current of v's width
        nxt = [v for w in widths if (v := continuation(current, w)) in members]
        if len(nxt) != 1:
            raise RuntimeError(f"non-unique successor at {current}")
        order.append(nxt[0])
        current = nxt[0]
    if hyperplane_sum(current, start) is None:
        raise RuntimeError("cycle does not close")
    quiver = ResidualQuiver(ell, tuple(order))
    # the dual involution fixes the start and the antipodal vertex
    n = len(order)
    if n % 2 and n != 1:
        raise RuntimeError(f"quiver cycle of odd length {n}")
    for i, v in enumerate(order):
        if order[(-i) % n] != v.dual():
            raise RuntimeError(f"dualizing does not reverse the cycle at {v}")
    return quiver


def elementary_t(ell: int, start: Singularity) -> Singularity:
    """One full quiver cycle glued left to right from the given vertex."""
    q = residual_quiver(ell)
    i = q.index_of(start)
    n = len(q.vertices)
    chain = [q.vertices[(i + j) % n] for j in range(n)]
    out = hyperplane_sum_chain(chain)
    if out is None:
        raise RuntimeError(f"quiver cycle from {start} does not glue")
    return out


def self_duals(ell: int) -> tuple[Singularity, Singularity]:
    """The two self-dual indecomposables, from the explicit residue table."""
    if ell % 2 == 1:
        pair = (Singularity(ell, 1), Singularity(2 * ell, 1))
    elif ell % 8 in (0, 4):
        pair = (Singularity(2 * ell, 1), Singularity(2 * ell, ell + 1))
    elif ell % 8 == 2:
        pair = (Singularity(2 * ell, 1), Singularity(4 * ell, ell + 1))
    else:  # ell = 6 mod 8
        pair = (Singularity(2 * ell, 1), Singularity(4 * ell, 3 * ell + 1))
    for s in pair:
        if s.dual() != s:
            raise RuntimeError(f"{s} is not self-dual")
        if s not in indecomposables(ell):
            raise RuntimeError(f"{s} is not indecomposable")
    return tuple(sorted(pair, key=lambda s: (s.r, s.a)))


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

    def __add__(self, other: "IndecMultiset") -> "IndecMultiset":
        if self.local_index != other.local_index:
            raise MixedIndex("local indices differ")
        return IndecMultiset(
            self.local_index,
            tuple([a + b for a, b in zip(self.counts, other.counts)]),
        )

    @property
    def size(self) -> int:
        return sum(self.counts)

    def pair_counts(self) -> tuple:
        """Counts per isomorphism class, in the quiver's pair order."""
        n = len(self.counts)
        out = [self.counts[0]]
        for i in range(1, n // 2):
            out.append(self.counts[i] + self.counts[n - i])
        out.append(self.counts[n // 2])
        return tuple(out)


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
        for shard in maximal_shatter(s):
            counts[q.index_of(shard)] += 1
    return IndecMultiset(ell, tuple(counts))


# ---------------------------------------------------------------------------
# regrouping arcs


@dataclass(frozen=True)
class Arc:
    """A contiguous walk in the quiver cycle, glued to a single singularity."""

    start: int
    length: int
    glued: Singularity
    consumption: tuple  # per-vertex usage


@lru_cache(maxsize=None)
def _arc_types(ell: int, max_length: int) -> tuple[Arc, ...]:
    q = residual_quiver(ell)
    n = len(q.vertices)
    out = []
    for start in range(n):
        for length in range(1, max_length + 1):
            chain = [q.vertices[(start + j) % n] for j in range(length)]
            glued = hyperplane_sum_chain(chain)
            if glued is None:
                break
            cons = [0] * n
            for j in range(length):
                cons[(start + j) % n] += 1
            out.append(Arc(start, length, glued, tuple(cons)))
    return tuple(out)


# search nodes allowed to one regroupings call
NODE_BUDGET = 2_000_000


def regroupings(m: IndecMultiset) -> list[Basket]:
    """All baskets whose maximal shattering equals m.

    Parts are glued arcs of the quiver cycle; wrapping arcs produce
    T-singularities.  The search may visit NODE_BUDGET nodes; reaching it
    raises CapacityExceeded rather than returning a partial list.
    """
    ell = m.local_index
    q = residual_quiver(ell)
    n = len(q.vertices)
    if n == 0 or m.size == 0:
        return [()] if m.size == 0 else []
    arcs = [a for a in _arc_types(ell, m.size) if _fits(a.consumption, m.counts)]
    found: dict[tuple, Basket] = {}
    visited = [0]

    def rec(idx: int, remaining: list[int], parts: list[Singularity]) -> None:
        if visited[0] >= NODE_BUDGET:
            raise CapacityExceeded(
                f"regrouping enumeration hit the node cap {NODE_BUDGET}: "
                f"{visited[0]} nodes visited, {len(found)} distinct baskets found"
            )
        visited[0] += 1
        if all(x == 0 for x in remaining):
            b = basket(parts)
            found.setdefault(tuple((s.r, s.a) for s in b), b)
            return
        if idx == len(arcs):
            return
        arc = arcs[idx]
        max_mult = min(
            (rem // c for rem, c in zip(remaining, arc.consumption) if c),
            default=0,
        )
        # try multiplicities high to low so the zero branch comes last
        for mult in range(max_mult, -1, -1):
            if mult:
                new_remaining = [
                    rem - mult * c for rem, c in zip(remaining, arc.consumption)
                ]
                rec(idx + 1, new_remaining, parts + [arc.glued] * mult)
            else:
                rec(idx + 1, list(remaining), list(parts))

    rec(0, list(m.counts), [])
    return [found[k] for k in sorted(found)]


def _fits(consumption: Sequence[int], pool: Sequence[int]) -> bool:
    return all(c <= p for c, p in zip(consumption, pool))


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
        if self.basis and len(resid) != len(self.basis[0]):
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
    if not gens:
        return DeltaLattice(ell, (), 0, ())
    rank = int_rank(list(gens))
    # lattice basis: the pivot columns of the column echelon form of the
    # matrix whose columns are gens
    echelon, _, pivots = _column_echelon(gens)
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


def _cancelling_single_index(piece: Basket) -> Optional[Basket]:
    items = [s for s in piece if not orbifold_contribution(s).is_zero]
    # T-singularities are themselves cancelling (zero Q)
    trivial = [s for s in piece if orbifold_contribution(s).is_zero]
    if trivial:
        return basket(trivial[:1])
    if not items:
        return None
    deltas = [orbifold_contribution(s).entries for s in items]
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
