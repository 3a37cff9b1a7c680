"""Exact arithmetic kernels: dense polynomials over Q, rational functions in t,
and integer linear algebra via a column echelon form.

Polynomials are tuples of coefficients indexed by degree, with no trailing
zeros; the zero polynomial is the empty tuple.  Coefficients are ints or
Fractions; operations never touch floats.  The kernels build tuples from
lists: tuple() of a generator allocates ten slots and resizes, so the tuples
it frees pile up in CPython's per-size free lists and raise peak memory.
An integer matrix is the list of its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import add, neg, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import CapacityExceeded

Poly = tuple  # coefficient tuple, lowest degree first


# ---------------------------------------------------------------------------
# polynomial arithmetic


def poly(coeffs: Iterable) -> Poly:
    """Normalize a coefficient sequence: strip trailing zeros."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return poly(out)


def poly_neg(a: Poly) -> Poly:
    return tuple([-x for x in a])


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Poly, b: Poly) -> Poly:
    """a*b; a scale, or a shift and a scale, when a factor is a monomial
    c*t^j, as in every c*t^k term of series text."""
    if any(a[:-1]):
        a, b = b, a
    if any(a[:-1]):  # neither factor is a monomial
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return poly(out)
    out = [0] * (len(a) - 1) + [a[-1] * x for x in b] if a else []
    return tuple(out) if out and out[-1] else poly(out)


def poly_scale(a: Poly, s) -> Poly:
    """s*a; a itself when s is 1, as for most steps of the primitive PRS."""
    if s == 0 or s == 1:
        return a if s else ()
    return tuple([x * s for x in a])


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over Q; b must be nonzero.

    A quotient coefficient stays an int whenever the leading coefficient of
    b divides it, so dividing an integer polynomial by a monic or primitive
    divisor of it stays in integers.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        x = rem[i]
        if x:
            if type(x) is int and type(lead) is int and not x % lead:
                c = x // lead
            else:
                c = Fraction(x) / lead
            quo[i - db] = c
            for j, y in enumerate(b):
                rem[i - db + j] -= c * y
    return poly(quo), poly(rem[:db])  # rem[db:] is zero by construction


def poly_div_exact(a: Poly, b: Poly) -> Poly:
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError("division is not exact")
    return q


def poly_mul_binomial(a: Poly, d: int) -> Poly:
    """a*(1 - t^d) for d >= 1, in one pass."""
    out = [*a, *[0] * d] if a else []
    for i, x in enumerate(a):
        out[i + d] -= x
    return tuple(out)


def poly_div_binomial(a: Poly, d: int) -> Poly:
    """a/(1 - t^d) for d >= 1 by running sums q[i] = a[i] + q[i-d]: the
    series of the quotient, which is a polynomial exactly when its last d
    terms up to deg a vanish; ValueError when the division is inexact."""
    s = list(a)
    for i in range(d, len(s)):
        s[i] += s[i - d]
    if any(s[max(0, len(s) - d):]):
        raise ValueError("division is not exact")
    return tuple(s[:len(s) - d])


def poly_primitive(a: Poly) -> Poly:
    """a over the content of its integer coefficients, keeping the sign."""
    g = poly_content(a)
    return tuple([x // g for x in a]) if g > 1 else a


def poly_gcd_primitive(a: Poly, b: Poly) -> Poly:
    """Primitive gcd in Z[t] of integer polynomials, leading coefficient
    positive; () when both are zero.

    Primitive polynomial remainder sequence (Brown, On Euclid's algorithm
    and the computation of polynomial greatest common divisors, JACM 1971):
    pseudo-remainders with the content divided out at each step.
    """
    a, b = poly_primitive(poly(a)), poly_primitive(poly(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        # lead(b)^(deg a - deg b + 1) * a has an integer quotient and remainder by b
        a, b = b, poly_primitive(poly_divmod(poly_scale(a, b[-1] ** (len(a) - len(b) + 1)), b)[1])
    return poly_neg(a) if a and a[-1] < 0 else a


def poly_eval(a: Poly, x):
    out = 0
    for c in reversed(a):
        out = out * x + c
    return out


def poly_content(a: Poly) -> int:
    """Positive gcd of integer coefficients (0 for the zero polynomial)."""
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def poly_to_int(a: Poly) -> tuple[Poly, int]:
    """Clear denominators: return (integer polynomial, lcm of denominators)."""
    denom = 1
    for x in a:
        if isinstance(x, Fraction):
            denom = denom * x.denominator // gcd(denom, x.denominator)
    return tuple([int(x * denom) for x in a]), denom


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, prod over d | n of (1 - t^d)^mu(n/d)
    and negated at n = 1: the d with mu(n/d) = +1 or -1 are n over a product
    of an even or odd number of the distinct primes of n."""
    primes = [p for p in range(2, n + 1) if not n % p and all(p % q for q in range(2, p))]
    even, odd = [n], []
    for p in primes:
        even, odd = even + [d // p for d in odd], odd + [d // p for d in even]
    out = (1,)
    for d in even:
        out = poly_mul_binomial(out, d)
    for d in odd:  # every partial quotient is Phi_n times the binomials left
        out = poly_div_binomial(out, d)
    return poly_neg(out) if n == 1 else out


# ---------------------------------------------------------------------------
# rational functions of t


@dataclass(frozen=True)
class RationalFunction:
    """num/den with integer-polynomial parts in canonical form.

    Canonical: gcd(num, den) = 1 over Q, gcd of the two integer contents
    is 1, and the lowest-order nonzero coefficient of den is positive.
    """

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Iterable, den: Iterable = (1,)) -> "RationalFunction":
        n, d = poly(num), poly(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        if not n:
            return RationalFunction((), (1,))
        n, dn = poly_to_int(n)
        d, dd = poly_to_int(d)
        n, d = poly_scale(n, dd), poly_scale(d, dn)
        # the primitive gcd divides both in Z[t] by Gauss's lemma
        g = poly_gcd_primitive(n, d)
        if len(g) > 1:
            n = poly_div_exact(n, g)
            d = poly_div_exact(d, g)
        g = gcd(poly_content(n), poly_content(d))
        if g > 1:
            n = tuple([x // g for x in n])
            d = tuple([x // g for x in d])
        low = next(x for x in d if x)
        if low < 0:
            n, d = poly_neg(n), poly_neg(d)
        return RationalFunction(n, d)

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            poly_add(poly_mul(self.num, other.den), poly_mul(other.num, self.den)),
            poly_mul(self.den, other.den),
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(poly_neg(self.num), self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            poly_mul(self.num, other.num), poly_mul(self.den, other.den)
        )

    def is_zero(self) -> bool:
        return not self.num

    def eval(self, x) -> Fraction:
        d = poly_eval(self.den, x)
        if d == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return Fraction(poly_eval(self.num, x)) / d

    def pole_order_at_one(self) -> int:
        """Order of the pole at t=1 (negative for a zero, 0 for the zero
        function), by synthetic division by t - 1 in integers: the running
        sums of the coefficients from the top are the quotient's, then p(1)."""
        order = 0
        for p, sign in ((self.den, 1), (self.num, -1)):
            sums = list(accumulate(reversed(p)))
            while sums and not sums[-1]:
                sums = list(accumulate(sums[:-1]))
                order += sign
        return order

    def series_coefficients(self, count: int) -> list[Fraction]:
        """First `count` coefficients of the power-series expansion at 0."""
        if not self.den or self.den[0] == 0:
            raise ZeroDivisionError("denominator vanishes at 0")
        d0 = Fraction(self.den[0])
        out: list[Fraction] = []
        for k in range(count):
            acc = Fraction(self.num[k]) if k < len(self.num) else Fraction(0)
            for j in range(1, min(k, len(self.den) - 1) + 1):
                acc -= self.den[j] * out[k - j]
            out.append(acc / d0)
        return out


# ---------------------------------------------------------------------------
# integer linear algebra


class Echelon(NamedTuple):
    """The integer column echelon form of a matrix M, from column_echelon.

    A = M U with U unimodular, both lists of columns, and pivots the
    (row, col) positions of the echelon pivots.  Unpacks as (A, U, pivots).
    """

    A: list
    U: list
    pivots: list

    @property
    def kernel(self) -> list[tuple]:
        """The columns of U past the pivots: a basis of the integer kernel."""
        return [tuple(u) for u in self.U[len(self.pivots):]]

    def solve(self, b: Sequence[int]) -> Optional[tuple[tuple, int]]:
        """(x, d) with M x = d*b, or None when M x = b is inconsistent; a
        short b is padded with zeros, a longer one must be zero past the
        rows of M.

        Forward substitution gives y over Q with A y = b, zero off the pivot
        columns: each pivot row fixes its y, as a pivot column is zero above
        its pivot, and each other row, zero right of the pivots before it,
        must have no residue left.  d >= 1 is the least integer that makes
        d*y integral and x = U (d*y); U is unimodular, so an integer x with
        M x = b exists exactly when d = 1.
        """
        A, U, pivots = self
        nrows = len(A[0]) if A else 0
        if any(b[nrows:]):
            return None
        resid = [*b[:nrows], *[0] * (nrows - len(b))]
        y = [0] * len(U)
        pos = dict(pivots)
        for r in range(nrows):
            c = pos.get(r)
            if c is None:
                if resid[r]:
                    return None
                continue
            col = A[c]
            q, rest = divmod(resid[r], col[r])
            y[c] = t = Fraction(resid[r], col[r]) if rest else q
            if t:
                for i in range(r + 1, nrows):
                    if col[i]:
                        resid[i] -= t * col[i]
        d = lcm(*[v.denominator for v in y])
        x = [0] * len(y)
        for u, v in zip(U, y):
            if v:
                v = v.numerator * (d // v.denominator)
                x = [a + v * c for a, c in zip(x, u)]
        return tuple(x), d


def column_echelon(cols: Sequence[Sequence[int]]) -> Echelon:
    """Integer column echelon form via unimodular column operations.

    cols is the matrix M as the list of its columns; short columns are
    padded with zeros to the longest.
    """
    nrows = max(map(len, cols), default=0)
    A = [[*col, *[0] * (nrows - len(col))] for col in cols]
    n = len(A)
    U = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivots: list[tuple[int, int]] = []
    pc = 0
    for r in range(nrows):
        if pc >= n:
            break
        # reduce columns pc..n-1 so only column pc has a nonzero entry in row r
        while True:
            nz = [j for j in range(pc, n) if A[j][r]]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                A[pc], A[j], U[pc], U[j] = A[j], A[pc], U[j], U[pc]
                break
            nz.sort(key=lambda j: abs(A[j][r]))
            a, u = A[nz[0]], U[nz[0]]
            for j in nz[1:]:
                q = A[j][r] // a[r]
                A[j] = [x - q * y for x, y in zip(A[j], a)]
                U[j] = [x - q * y for x, y in zip(U[j], u)]
        if A[pc][r]:
            if A[pc][r] < 0:
                A[pc], U[pc] = [-x for x in A[pc]], [-x for x in U[pc]]
            pivots.append((r, pc))
            pc += 1
    return Echelon(A, U, pivots)


def int_kernel(cols: Sequence[Sequence[int]]) -> list[tuple]:
    """Basis of the integer kernel lattice {x : Mx = 0} of the matrix with
    these columns; [] when trivial."""
    return column_echelon(cols).kernel


def signed(v: tuple) -> tuple:
    """v with bit masks of its positive and of its negative coordinates."""
    pos = neg = 0
    for i, x in enumerate(v):
        if x > 0:
            pos |= 1 << i
        elif x < 0:
            neg |= 1 << i
    return v, pos, neg


class Reducer:
    """A list of elements from signed(), indexed for normal forms.

    u ⊑ w means u_i w_i >= 0 and |u_i| <= |w_i| for all i.  For each
    coordinate i and each value x the reducer keeps the bit set (an int) of
    the elements g with g_i x >= 0 and |g_i| <= |x|, bit j standing for
    elems[j], so the elements under v are the AND of one bit set per
    coordinate.  The bit sets of coordinate i form one list indexed by
    x in -K..K, negative x from the end, where K is the largest |g_i|; a
    larger |x| reads the set at K or -K.
    """

    def __init__(self, elems: Iterable[tuple] = ()):
        self.elems: list[tuple] = []
        self._sets: list[list[int]] = []
        self._bounds: list[int] = []  # K per coordinate
        for s in elems:
            self.add(s)

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def add(self, s: tuple) -> None:
        """Append s, a nonzero element from signed(); a zero element would
        lie under every vector, so a normal form would never end."""
        if not s[1] | s[2]:
            raise ValueError("a reducer element must be nonzero")
        bit = 1 << len(self.elems)
        self.elems.append(s)
        if not self._sets:
            self._sets = [[0] for _ in s[0]]
            self._bounds = [0] * len(s[0])
        for i, c in enumerate(s[0]):
            sets, k = self._sets[i], self._bounds[i]
            if abs(c) > k:  # extend both ends to |c|, repeating the end sets
                wide = abs(c) - k
                sets[k + 1:k + 1] = [sets[k]] * wide + [sets[-k]] * wide
                k = self._bounds[i] = abs(c)
            # the values x conformal to c with |x| >= |c|
            xs = range(-k, k + 1) if c == 0 else range(c, k + 1) if c > 0 else range(c, -k - 1, -1)
            for x in xs:
                sets[x] |= bit

    def under(self, v: tuple) -> int:
        """The bit set of the elements g ⊑ v."""
        m = -1 if self.elems else 0
        for x, sets, k in zip(v, self._sets, self._bounds):
            m &= sets[x if -k <= x <= k else k if x > 0 else -k]
            if not m:
                break
        return m

    def reduce(self, v: tuple) -> tuple:
        """v minus the first element under it, repeated: the bare normal
        form, with no sign masks.

        The first element under v in list order is the lowest bit of
        under(v).  Every element subtracted lies under the vector it is
        subtracted from, which lies under v, so v is the conformal sum of
        the result and the elements subtracted.
        """
        while True:
            m = self.under(v)
            if not m:
                return v
            v = tuple(map(sub, v, self.elems[(m & -m).bit_length() - 1][0]))

    def normal_form(self, v: tuple) -> tuple:
        """signed(reduce(v))."""
        return signed(self.reduce(v))


def graver_completion(basis: Sequence[tuple], node_cap: int) -> tuple[Reducer, int]:
    """(Graver basis of the lattice L spanned by basis, pairs reduced).

    The Graver basis holds g and -g, each as signed(g), in a Reducer.  Its
    elements are the nonzero vectors of L minimal under the conformal order
    ⊑; for the integer kernel of M, pass int_kernel(M).  Pottier's
    completion (The Euclidean algorithm in dimension n, ISSAC 1996) starts
    from any lattice basis and its negatives, reduces the sum of each pair
    that is not conformal by subtracting elements that lie under it, and
    adds a nonzero remainder to the set; a last pass keeps the ⊑-minimal
    elements.  Each reduced pair is one step against node_cap; reaching it
    raises CapacityExceeded, never a partial basis.
    """
    red = Reducer()
    for b in basis:
        red.add(signed(b))
        red.add(signed(tuple(map(neg, b))))
    elems = red.elems
    steps = k = 0
    # f runs over the even positions only: the pairs of -f are the
    # negatives of the pairs of f, and so are their normal forms
    while k < len(elems):
        f, fpos, fneg = elems[k]
        for g, gpos, gneg in elems[:k]:
            if not (fpos & gneg or fneg & gpos):
                continue  # f + g is the conformal sum of f and g
            if steps >= node_cap:
                raise CapacityExceeded(
                    f"Graver completion hit the node cap {node_cap}: "
                    f"{steps} pairs reduced, |G| = {len(elems)}"
                )
            steps += 1
            r = red.reduce(tuple(map(add, f, g)))
            if any(r):  # -r has the masks of r swapped
                r = signed(r)
                red.add(r)
                red.add((tuple(map(neg, r[0])), r[2], r[1]))
        k += 2
    # v is minimal when it is the only element under itself
    minimal = [v for j, v in enumerate(elems) if red.under(v[0]) == 1 << j]
    return (red if len(minimal) == len(elems) else Reducer(minimal)), steps


def graver_fiber(graver: Reducer, x0: tuple, node_cap: int) -> tuple[list[tuple], int]:
    """(⊑-minimal elements of the coset x0 + L, pairs reduced), where graver
    is the Graver basis of the lattice L as graver_completion returns it.

    The truncated completion of [M | -M x0] with last coordinate 0 already
    complete (Hemmecke, On the positive sum property and the computation of
    Graver test sets, Math. Programming 96, 2003): the set starts from the
    normal form of x0 and is closed under f -> the normal form of f + g, for
    f in the set and g in graver with f + g not conformal.  A pair of two
    coset vectors would have last coordinate 2 and is never formed.  Every
    normal form is minimal, since a nonzero element of L under it would be a
    conformal sum of elements of graver.  Every minimal w is found: write w
    as f + a sum from graver with least 1-norm; a pair in sign conflict
    could be replaced by a conformal sum of smaller 1-norm (from graver, or
    the normal form of f + g plus the elements it subtracted), so the sum is
    conformal and w = f.  Each reduced pair is one step against node_cap;
    reaching it raises CapacityExceeded, never a partial fiber.
    """
    fiber = [graver.normal_form(x0)]
    seen = {fiber[0][0]}
    steps = k = 0
    while k < len(fiber):
        f, fpos, fneg = fiber[k]
        for g, gpos, gneg in graver:
            if not (fpos & gneg or fneg & gpos):
                continue  # f + g is the conformal sum of f and g
            if steps >= node_cap:
                raise CapacityExceeded(
                    f"fiber lift hit the node cap {node_cap}: {steps} pairs reduced, "
                    f"|G0| = {len(graver)}, {len(fiber)} fiber elements so far"
                )
            steps += 1
            r = graver.reduce(tuple(map(add, f, g)))
            if r not in seen:  # masks only for the vectors kept
                seen.add(r)
                fiber.append(signed(r))
        k += 1
    return [v[0] for v in fiber], steps


def int_solve(cols: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[tuple]:
    """Some integer x with Mx = b for the matrix M with these columns, or
    None when no integer solution exists."""
    if cols and len(cols[0]) != len(b):
        raise ValueError("dimension mismatch")
    solved = column_echelon(cols).solve(b)
    return solved[0] if solved is not None and solved[1] == 1 else None


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix, exactly."""
    if not rows:
        return 0
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0])
    for c in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][c]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank
