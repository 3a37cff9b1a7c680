"""Cyclic quotient surface singularities 1/r(1,a) and their cone calculus.

The oriented normal form keeps (r, a) and (r, a-bar) distinct; isomorphism
classes identify the two.  Cones are pairs of primitive integer 2-vectors in
clockwise order, with det(u, v) := u_y*v_x - u_x*v_y > 0 so that the
reference cone (e2, r*e1 - a*e2) has determinant r.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Optional, Sequence

from .errors import (
    DegenerateCone,
    NotResidual,
    ParseError,
)

Vec = tuple[int, int]

# the text 1/r(1,a); only the ASCII digits 0-9 make a number
SINGULARITY_TEXT = re.compile(r"1\s*/\s*([0-9]+)\s*\(\s*1\s*,\s*([0-9]+)\s*\)")


def cone_determinant(u: Sequence[int], v: Sequence[int]) -> int:
    """Oriented determinant under the clockwise ray convention.

    Positive exactly for clockwise-ordered cones such as
    (e2, r*e1 - a*e2); zero is rejected.
    """
    d = u[1] * v[0] - u[0] * v[1]
    if d == 0:
        raise DegenerateCone(f"rays {tuple(u)} and {tuple(v)} are dependent")
    return d


@dataclass(frozen=True)
class IntCone:
    """Clockwise-ordered pair of primitive rays with positive determinant."""

    u: Vec
    v: Vec

    def __post_init__(self) -> None:
        for ray in (self.u, self.v):
            if gcd(ray[0], ray[1]) != 1:
                raise DegenerateCone(f"ray {ray} is not primitive")
        if cone_determinant(self.u, self.v) <= 0:
            raise DegenerateCone("rays are not in clockwise order")


class Kind(Enum):
    SMOOTH = "smooth"
    T_SINGULARITY = "T"
    RESIDUAL = "residual"
    RESIDUAL_INDECOMPOSABLE = "residual-indecomposable"
    # width exceeds the local index without being a multiple of it: the
    # singularity carries both T-parts and a nontrivial residue.  Not named
    # by the classification taxonomy upstream, but needed for totality.
    GENERAL = "general"


@dataclass(frozen=True)
class Classification:
    kind: Kind
    d: int = 0
    n: int = 0
    c: int = 0


@dataclass(frozen=True)
class Singularity:
    """The isolated cyclic quotient 1/r(1,a), in oriented normal form."""

    r: int
    a: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("group order must be positive")
        if self.r == 1:
            if self.a != 0:
                raise ValueError("the smooth case is 1/1(1,0)")
            return
        if not 1 <= self.a < self.r:
            raise ValueError(f"weight must satisfy 1 <= a < r, got {self.a}")
        if gcd(self.r, self.a) != 1:
            raise ValueError(f"1/{self.r}(1,{self.a}) is not isolated")

    # -- derived invariants ------------------------------------------------

    @property
    def width(self) -> int:
        """k = hcf(r, a+1); lattice segments along the cone edge."""
        return gcd(self.r, self.a + 1)

    @property
    def local_index(self) -> int:
        return self.r // self.width

    @property
    def slope(self) -> int:
        """c with a+1 = k*c, reduced mod the local index."""
        return ((self.a + 1) // self.width) % self.local_index

    def invariants(self) -> tuple[int, int, int]:
        return self.local_index, self.width, self.slope

    @property
    def is_smooth(self) -> bool:
        return self.r == 1

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        return f"1/{self.r}(1,{self.a})"

    @staticmethod
    def parse(text: str) -> "Singularity":
        m = SINGULARITY_TEXT.fullmatch(text.strip())
        if not m:
            raise ParseError(f"cannot parse singularity {text!r}")
        r, a = int(m.group(1)), int(m.group(2))
        if r >= 2 and gcd(r, a) != 1:
            raise ParseError(
                f"1/{r}(1,{a}) is not isolated: hcf({r},{a}) = {gcd(r, a)}"
            )
        try:
            return Singularity(r, a)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    # -- duality and isomorphism ------------------------------------------

    def dual(self) -> "Singularity":
        """1/r(1,a-bar) with a*a-bar = 1 mod r; an involution."""
        if self.r == 1:
            return self
        return Singularity(self.r, pow(self.a, -1, self.r))

    def iso_key(self) -> tuple[int, int]:
        """Canonical key of the isomorphism class {(r,a), (r,a-bar)}."""
        if self.r == 1:
            return (1, 0)
        return (self.r, min(self.a, pow(self.a, -1, self.r)))

    def is_isomorphic(self, other: "Singularity") -> bool:
        return self.iso_key() == other.iso_key()

    # -- cone realization --------------------------------------------------

    def cone(self) -> IntCone:
        """The reference cone (e2, r*e1 - a*e2)."""
        return IntCone((0, 1), (self.r, -self.a))


SMOOTH = Singularity(1, 0)


# ---------------------------------------------------------------------------
# normal form


def normalize_cone(cone: IntCone) -> Singularity:
    """Oriented normal form of a cone via an SL2(Z) change of basis.

    Invariant under orientation-preserving unimodular maps; r = det(u, v).
    """
    u, v = cone.u, cone.v
    r = cone_determinant(u, v)
    # M in SL2(Z) with M u = e2: rows (u2, -u1) and (x, y), x*u1 + y*u2 = 1;
    # another such (x, y) moves w2 by a multiple of r and leaves a alone
    x = pow(u[0], -1, u[1]) if u[1] else u[0]
    y = (1 - x * u[0]) // u[1] if u[1] else 0
    w2 = x * v[0] + y * v[1]
    a = (-w2) % r
    if r == 1:
        return SMOOTH
    if gcd(r, a) != 1:
        raise DegenerateCone(
            f"cone normalizes to non-isolated 1/{r}(1,{a})"
        )
    return Singularity(r, a)


# ---------------------------------------------------------------------------
# classification, residue


def classify(s: Singularity) -> Classification:
    if s.is_smooth:
        return Classification(Kind.SMOOTH)
    ell, k, c = s.invariants()
    if k % ell == 0:
        return Classification(Kind.T_SINGULARITY, d=k // ell, n=ell, c=c)
    if k > ell:
        return Classification(Kind.GENERAL)
    if not _interior_primitive_indices(s):
        return Classification(Kind.RESIDUAL_INDECOMPOSABLE)
    return Classification(Kind.RESIDUAL)


def is_residual(s: Singularity) -> bool:
    return not s.is_smooth and s.width < s.local_index


def _interior_primitive_indices(s: Singularity) -> list[int]:
    """Edge parameters 0 < j < k whose lattice point is primitive."""
    ell, k, c = s.invariants()
    return [j for j in range(1, k) if gcd(j * ell, j * c - 1) == 1]


def residue(s: Singularity) -> tuple[Optional[Singularity], list[Classification]]:
    """Strip all T-parts: (residual remainder or None, stripped T data)."""
    if s.is_smooth:
        return None, []
    ell, k, c = s.invariants()
    d, k0 = divmod(k, ell)
    t_parts = [Classification(Kind.T_SINGULARITY, d=d, n=ell, c=c)] if d else []
    if k0 == 0:
        return None, t_parts
    return Singularity(k0 * ell, k0 * c - 1), t_parts


# ---------------------------------------------------------------------------
# hyperplane sum and friends


def _edge_slope(ell: int, j: int, c: int) -> int:
    """c*(1 - j*c)^-1 mod l: the slope of every shard that starts at the
    j-th edge point p(j) of a cone of local index l and slope c."""
    return c * pow(1 - j * c, -1, ell) % ell


def _shards(s: Singularity, cuts: Sequence[int]) -> list[Singularity]:
    """With s realized as Cone(e2, e2 + k*(l,-c)), the normal forms of
    Cone(p(i), p(j)) for each pair i < j of consecutive cuts, where
    p(j) = (j*l, 1 - j*c) is the j-th lattice point of its edge line;
    DegenerateCone when a ray is not primitive.

    p(j) is primitive exactly when hcf(l, 1 - j*c) = 1.  The map in SL2(Z)
    with rows (1 - i*c, -i*l) and (x, y), x*i*l + y*(1 - i*c) = 1, sends
    p(i) to e2 and p(j) = p(i) + w*(l,-c), w = j - i, to
    (w*l, 1 + w*(x*l - y*c)), and y = (1 - i*c)^-1 mod l.  So the shard is
    1/(w*l)(1, w*c_i - 1) with c_i = _edge_slope(l, i, c), smooth at w*l = 1.
    """
    ell, _, c = s.invariants()
    for j in cuts:
        if gcd(ell, 1 - j * c) != 1:
            raise DegenerateCone(f"ray {(j * ell, 1 - j * c)} is not primitive")
    out = []
    for i, j in zip(cuts, cuts[1:]):
        r = (j - i) * ell
        out.append(Singularity(r, ((j - i) * _edge_slope(ell, i, c) - 1) % r))
    return out


def hyperplane_sum(s1: Singularity, s2: Singularity) -> Optional[Singularity]:
    """The gluing s1 * s2, or None when undefined.

    The sum is defined when the shard of width k2 that continues the edge of
    s1 past its end p(k1) is s2: the two share l >= 2 and s2 has the slope
    of the shards from p(k1).  It is then Cone(e2, e2 + (k1+k2)*(l,-c1)).
    Noncommutative.
    """
    if s1.is_smooth or s2.is_smooth:
        return None
    ell, k1, c1 = s1.invariants()
    if ell != s2.local_index or ell < 2 or s2.slope != _edge_slope(ell, k1, c1):
        return None
    return _shards(s1, (0, k1 + s2.width))[0]


def hyperplane_inverse(s: Singularity) -> Singularity:
    """The residual completing s to an elementary T-singularity."""
    if not is_residual(s):
        raise NotResidual(f"{s} is not residual")
    return _shards(s, (s.width, s.local_index))[0]


def shatterings(s: Singularity) -> list[list[Singularity]]:
    """All crepant subdivisions of s at primitive interior edge points.

    Each returned list hyperplane-sums back to s; the first entry is the
    trivial shattering [s].
    """
    points = _interior_primitive_indices(s)
    out: list[list[Singularity]] = []
    for mask in range(1 << len(points)):
        chosen = [points[i] for i in range(len(points)) if mask >> i & 1]
        out.append(_shards(s, [0, *chosen, s.width]))
    out.sort(key=len)
    return out


def maximal_shatter(s: Singularity) -> list[Singularity]:
    """Shards of s cut at every primitive interior edge point."""
    return _shards(s, [0, *_interior_primitive_indices(s), s.width])


# ---------------------------------------------------------------------------
# baskets as multisets of isomorphism classes

Basket = tuple[Singularity, ...]


def basket(items) -> Basket:
    """Canonical basket: isomorphism-class representatives, sorted."""
    reps = [s if (k := s.iso_key()) == (s.r, s.a) else Singularity(*k) for s in items]
    reps.sort(key=lambda s: (s.r, s.a))
    return tuple(reps)


def basket_pieces(b: Sequence[Singularity]) -> dict[int, Basket]:
    """Split a basket by local index."""
    out: dict[int, list[Singularity]] = {}
    for s in b:
        out.setdefault(s.local_index, []).append(s)
    return {ell: basket(part) for ell, part in sorted(out.items())}


def residuals_of_index(ell: int) -> tuple[Singularity, ...]:
    """All residual isomorphism classes of local index ell (canonical reps)."""
    if ell < 3:
        return ()
    seen: dict[tuple[int, int], Singularity] = {}
    for k in range(1, ell):
        for c in range(1, ell):
            if gcd(ell, c) != 1 or gcd(ell, k * c - 1) != 1:
                continue
            s = Singularity(k * ell, k * c - 1)
            seen.setdefault(s.iso_key(), Singularity(*s.iso_key()))
    return tuple(sorted(seen.values(), key=lambda s: (s.r, s.a)))
