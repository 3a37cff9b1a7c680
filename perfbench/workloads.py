"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload is a stream of rounds.  A round is a fixed list of op
templates; the seed draws the concrete inputs of every template and, but
in analyze_text, the order of the round.  Because every round carries the
same mix, rates and latencies are taken over whole rounds, so two seeds
differ in their inputs but not in their mix.

The library receives only plain inputs built here: series text for
`analyze_text`, `(r, a)` pairs and a K^2 for `series_roundtrip`, a local
index and integer vectors for `lattice_sweep`.  Checks compare outputs with
tables built before the timed phase and with the benchmark's own delta-vector,
totient and rank routines.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import math
import random
import re
from fractions import Fraction
from math import gcd

import delpezzo
from delpezzo import cli


class WrongOutput(Exception):
    """An op returned an output that its check rejects."""


class NamedFailure(Exception):
    """The CLI refused an input with a named error it should not have used."""


def totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(n, k) == 1)


def render_poly(coeffs) -> str:
    """Ascending-degree integer polynomial as text, e.g. `1 + 7*t + t^2`.

    The CLI prints the same form; it is written out here so that the
    benchmark's inputs stay fixed when the CLI's printer changes.
    """
    out = ""
    for deg, c in enumerate(coeffs):
        if c == 0:
            continue
        if deg == 0:
            mono = str(abs(c))
        else:
            mono = ("" if abs(c) == 1 else f"{abs(c)}*") + ("t" if deg == 1 else f"t^{deg}")
        if out:
            out += (" - " if c < 0 else " + ") + mono
        else:
            out = ("-" if c < 0 else "") + mono
    return out or "0"


def render_series(rf) -> str:
    return f"({render_poly(rf.num)})/({render_poly(rf.den)})"


def rational_rank(rows) -> int:
    """Rank over Q by plain Gaussian elimination (independent of the library)."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][c] / work[rank][c]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def reference_delta(r: int, a: int) -> tuple[int, tuple]:
    """(l, delta-vector) of 1/r(1,a) straight from the definition, without
    the library's Dedekind-sum formula.

    With d_j = (1/r) sum over the nontrivial r-th roots xi of unity of
    xi^j / ((1 - xi)(1 - xi^a)), the orbifold contribution's numerator over
    1 - t^r has coefficient d_{(a+1)(k+1)} - d_0 at t^k, and dividing it by
    1 + t^l + ... + t^(r-l) leaves its first l coefficients unchanged; the
    delta-vector is l times coefficients 1 .. l-2.  The sums are taken in
    floating point (exact to about 1e-8 for r <= 1000) and rounded.
    """
    ell = r // gcd(r, a + 1)
    roots = [cmath.exp(2j * math.pi * k / r) for k in range(r)]
    weights = [1 / ((1 - roots[k]) * (1 - roots[a * k % r])) for k in range(1, r)]

    def d(j):
        return math.fsum((roots[j * k % r] * w).real for k, w in zip(range(1, r), weights)) / r

    d0 = d(0)
    entries = []
    for k in range(2, ell):
        x = ell * (d((a + 1) * k % r) - d0)
        if abs(x - round(x)) > 1e-5:
            raise ArithmeticError(f"reference delta of 1/{r}(1,{a}) is not integral: {x}")
        entries.append(round(x))
    return ell, tuple(entries)


# ---------------------------------------------------------------------------
# series_roundtrip: assemble_series then split_series on mixed indices

class SeriesRoundtrip:
    """Baskets of 1-3 points with local indices 2..15 and r up to 800.

    A round has eight ops each of 1, 2 and 3 points.  Its 48 points take
    their group orders from 48 disjoint slices of 1..800, one slice each,
    dealt to the ops in one fixed pattern, and slice j holds points of the
    local index ELLS[j % len(ELLS)].  The cost of a point grows with r and
    falls with l, so every round holds the same mix of op costs, while the
    seed draws r inside the slice and the weight a, and no input repeats
    within a round.  The caches are cleared before every round, so each
    round costs what it costs cold and memory holds one round's cache
    entries, however many rounds a run gets through.
    """

    name = "series_roundtrip"
    deadline_s = 5.0
    clear_caches = "round"
    POINTS = (1,) * 8 + (2,) * 8 + (3,) * 8
    R_MAX = 800
    # every slice of 1..800 holds a multiple of an odd l <= 15 and of 2l for
    # an even l <= 8, which is what a point of index l needs
    ELLS = (2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15)

    def generate(self, rng: random.Random, n_rounds: int):
        slices = sum(self.POINTS)
        width = self.R_MAX / slices
        rounds = []
        for _ in range(n_rounds):
            # stride 7 is coprime to 48, so this deals every slice once
            strata = [7 * i % slices for i in range(slices)]
            ops = []
            for n in self.POINTS:
                pts = tuple(self._point(rng, int(j * width) + 1, int((j + 1) * width), self.ELLS[j % len(self.ELLS)])
                            for j in strata[:n])
                del strata[:n]
                k2 = Fraction(rng.randint(1, 120), rng.randint(1, 30))
                ops.append({"points": pts, "k2": k2})
            rng.shuffle(ops)
            rounds.append(ops)
        return rounds, None

    def _point(self, rng, lo, hi, ell):
        """A point 1/r(1,a) of local index l with lo <= r <= hi: r = k*l and
        a = k*c - 1 with c a unit mod l."""
        choices = [(k * ell, k * c - 1)
                   for k in range(max(1, -(-lo // ell)), hi // ell + 1)
                   for c in range(1, ell)
                   if gcd(c, ell) == 1 and k * c > 1 and gcd(k * ell, k * c - 1) == 1]
        return rng.choice(choices)

    def run(self, op):
        b = tuple(delpezzo.Singularity(r, a) for r, a in op["points"])
        h = delpezzo.assemble_series(b, op["k2"])
        return h, delpezzo.split_series(h.series)

    def check(self, op, out, ctx) -> str:
        h, (k2, parts) = out
        want = {}
        for r, a in op["points"]:
            ell, v = reference_delta(r, a)
            acc = want.get(ell, (0,) * len(v))
            want[ell] = tuple(x + y for x, y in zip(acc, v))
        want = {ell: v for ell, v in want.items() if any(v)}
        assembled = {ell: dv.entries for ell, dv in h.orbifold_parts.items()}
        got = {ell: dv.entries for ell, dv in parts.items()}
        if assembled != want:
            raise WrongOutput(f"assemble_series of {op} gave parts {assembled}; want {want}")
        if k2 != op["k2"] or got != want:
            raise WrongOutput(f"round trip of {op} gave K2={k2}, parts={got}; want {want}")
        return f"K2={k2} " + " ".join(f"{ell}:{got[ell]}" for ell in sorted(got))


# ---------------------------------------------------------------------------
# analyze_text: `delpezzo analyze` on rendered series, run in process

class AnalyzeText:
    """Residual baskets over one or two local indices, analyzed through the CLI.

    Per round, 171 ops: the eight signed Res+ classes at l=5 twice as
    single-class baskets, one copy of each with one fixed class of a cheap
    second index; the six classes at l=8, 10, 12 that SCHEDULE gives the
    round, as single-class baskets; 144 cheap baskets over one or two of
    l=3, 4, 6 (eight each of: every index with 1, 2 and 3 points, every pair
    with 1 and 1, 2 and 2, 1 and 2 points, with every sign pattern); one
    basket at l=7 or 9, which runs to the deadline; two series that are not
    surface series; two series whose delta lies outside the delta-lattice.

    So the seed draws the K^2 of every op and the baskets of the ops that
    must be rejected and of the l=7/9 op; the other baskets, and the order
    of the ops, are the same in every seed.  The rounds of SCHEDULE cost
    about the same.  The cheap baskets all take less than the lightest l=5
    class, so p90 falls among the l=5 classes, below the ops recorded at the
    deadline.  The deadline lies well above the slowest answered class,
    1/24(1,1) at 4 to 6 reference seconds, so no op passes in one run and
    fails in another.
    """

    name = "analyze_text"
    deadline_s = 10.0
    clear_caches = None
    CHEAP = (3, 4, 6)
    HARD = (7, 9)
    LATTICE_MISS = (6, 8, 10, 12)
    INDICES = (3, 4, 5, 6, 7, 8, 9, 10, 12)
    # the classes 1/r(1,a) at l = 8, 10, 12 that round k takes, two of each
    # index, through all eight signed Res+ classes of each.  Round 0, which
    # every timed run measures, holds the slowest class (1/24(1,1)) and the
    # two that trip the RK2 assertion (1/48(1,17), 1/24(1,13)); round 1 the
    # next slowest (1/16(1,9)); the other classes are spread so that the
    # rounds cost alike.
    SCHEDULE = (
        ((16, 1), (48, 17), (40, 3), (20, 13), (24, 1), (24, 13)),
        ((16, 9), (48, 5), (60, 17), (80, 7), (48, 19), (72, 41)),
        ((32, 19), (16, 5), (20, 1), (80, 71), (120, 49), (96, 7)),
        ((48, 41), (32, 3), (40, 11), (60, 41), (72, 5), (120, 109)),
    )

    def generate(self, rng: random.Random, n_rounds: int):
        ctx = self._tables()
        cheap = [{ell: n} for ell in self.CHEAP for n in (1, 2, 3)]
        cheap += [{a: m, b: n} for a, b in itertools.combinations(self.CHEAP, 2)
                  for m, n in ((1, 1), (2, 2), (1, 2))]
        # each cheap index has one Res+ coordinate, so a cheap basket is n
        # copies of its class or of its inverse at every index; every shape
        # comes eight times a round, with each sign of each index equally
        # often, so every round holds the same cheap baskets
        signs = [[c >> j & 1 for j in range(2)] for c in range(8)]
        rounds = []
        for k in range(n_rounds):
            ops = []
            for copy in (0, 1):
                for i, cls in enumerate(ctx["signed"][5]):
                    picks = {5: [cls]}
                    if i % 2 == copy:
                        extra = self.CHEAP[i // 2 % len(self.CHEAP)]
                        picks[extra] = [ctx["signed"][extra][i % len(ctx["signed"][extra])]]
                    ops.append(self._valid(rng, ctx, picks, "valid"))
                ops.append(self._not_surface(rng, ctx))
                ops.append(self._outside_lattice(rng, ctx))
            for key in self.SCHEDULE[k % len(self.SCHEDULE)]:
                ops.append(self._valid(rng, ctx, {ctx["classes"][key]["ell"]: [key]}, "valid"))
            for shape, sign in itertools.product(cheap, signs):
                picks = {ell: [ctx["signed"][ell][s]] * n for (ell, n), s in zip(shape.items(), sign)}
                ops.append(self._valid(rng, ctx, picks, "valid"))
            hard = self.HARD[k % len(self.HARD)]
            ops.append(self._valid(rng, ctx, {hard: self._draw(rng, ctx, hard, 1)}, "hard"))
            # shuffled in the same way for every seed: an op costs less when
            # an earlier op at its index has filled the per-index caches, so
            # one order keeps the cost of each op the same from seed to seed,
            # and mixing spreads each kind of op over the whole round
            random.Random(k).shuffle(ops)
            rounds.append(ops)
        return rounds, ctx

    def _tables(self):
        """Per residual class: local index, signed Res+ coordinate, delta and A."""
        classes, signed = {}, {}
        for ell in self.INDICES:
            signed[ell] = []
            for i, rep in enumerate(delpezzo.res_plus(ell)):
                inv = delpezzo.basket([delpezzo.hyperplane_inverse(rep)])[0]
                for s, sign in ((rep, 1), (inv, -1)):
                    key = (s.r, s.a)
                    classes[key] = {
                        "ell": ell,
                        "coord": (i, sign),
                        "delta": delpezzo.orbifold_contribution(s).entries,
                        "A": delpezzo.degree_contribution(s),
                    }
                    signed[ell].append(key)
        gens = {
            ell: [delpezzo.orbifold_contribution(s).entries for s in delpezzo.indecomposables(ell)]
            for ell in self.LATTICE_MISS
        }
        return {"classes": classes, "signed": signed, "dims": {ell: len(delpezzo.res_plus(ell)) for ell in self.INDICES}, "gens": gens}

    def _draw(self, rng, ctx, ell, n):
        return [rng.choice(ctx["signed"][ell]) for _ in range(n)]

    def _valid(self, rng, ctx, picks, kind):
        keys = [key for ell in sorted(picks) for key in picks[ell]]
        b = delpezzo.basket(delpezzo.Singularity(*key) for key in keys)
        rk2 = sum((ctx["classes"][key]["A"] for key in keys), Fraction(0))
        k2 = 12 - rng.randint(-2, 9) - rk2
        while k2 <= 0:  # a del Pezzo surface has K^2 > 0
            k2 += 1
        h = delpezzo.assemble_series(b, k2)
        vectors = {}
        for key in keys:
            cls = ctx["classes"][key]
            v = vectors.setdefault(cls["ell"], [0] * ctx["dims"][cls["ell"]])
            i, sign = cls["coord"]
            v[i] += sign
        parts = {ell: dv.entries for ell, dv in h.orbifold_parts.items()}
        return {
            "kind": kind,
            "text": render_series(h.series),
            "k2": k2,
            "parts": parts,
            "vectors": {ell: tuple(v) for ell, v in vectors.items() if ell in parts},
        }

    def _not_surface(self, rng, ctx):
        """A valid series scaled by 2 (constant term 2) or by 1 - t (double
        pole at t=1); neither is the series of a surface."""
        ell = rng.choice((5, 8, 10, 12))
        base = self._valid(rng, ctx, {ell: self._draw(rng, ctx, ell, rng.randint(1, 2))}, "reject")
        text = base["text"]
        text = f"2*{text}" if rng.random() < 0.5 else f"(1 - t)*{text}"
        return {"kind": "reject", "text": text, "expect": ("NotASurfaceSeries",)}

    def _outside_lattice(self, rng, ctx):
        """Initial term plus a palindromic delta outside the rational span of
        the indecomposables' delta-vectors, hence outside the delta-lattice."""
        ell = rng.choice(self.LATTICE_MISS)
        gens = ctx["gens"][ell]
        n = ell - 2
        rank = rational_rank(gens)
        for j in range((n + 1) // 2):
            e = [0] * n
            e[j] = e[n - 1 - j] = 1
            if rational_rank(gens + [e]) > rank:
                break
        else:
            raise AssertionError(f"delta-lattice at {ell} spans every palindromic vector")
        delta = list(e)
        for g in gens:
            c = rng.randint(-2, 2)
            delta = [x + c * y for x, y in zip(delta, g)]
        k2 = Fraction(rng.randint(1, 60), ell)
        h = delpezzo.assemble_series((), k2).series + delpezzo.DeltaVector(ell, tuple(delta)).rational_function()
        # depending on how the splitter spreads delta over the divisors of
        # l, any of these errors names the series as impossible
        expect = ("NotRealizable", "NonIntegralDelta", "NotASurfaceSeries")
        return {"kind": "reject", "text": render_series(h), "expect": expect}

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["analyze", op["text"]])
        return rc, out.getvalue(), err.getvalue()

    def check(self, op, out, ctx) -> str:
        rc, stdout, stderr = out
        named = re.match(r"error: (\w+):", stderr)
        if op["kind"] == "reject":
            if rc == 1 and named and named.group(1) in op["expect"]:
                return f"rejected {named.group(1)}"
            if rc == 0:
                raise WrongOutput(f"accepted {op['text']!r}, which must be rejected with {op['expect']}")
            raise NamedFailure(named.group(1) if named else f"exit {rc}")
        if rc != 0:
            # a refusal is a failure to answer, counted by its error class
            raise NamedFailure(named.group(1) if named else f"exit {rc}")
        self._check_report(op, stdout, ctx)
        return stdout

    def _check_report(self, op, stdout, ctx):
        classes = ctx["classes"]
        lines = stdout.splitlines()
        if not lines or lines[0] != f"K2={op['k2']}":
            raise WrongOutput(f"report {stdout!r} does not start with the drawn K2={op['k2']}")
        pieces = {ell: set() for ell in op["parts"]}
        any_feasible = False
        for line in lines[1:]:
            m = re.fullmatch(r"choice \d+: (.*) RK2=(\S+) IK2=(\S+) (FEASIBLE|INFEASIBLE)", line)
            if not m:
                continue
            keys = [(int(r), int(a)) for r, a in re.findall(r"1/(\d+)\(1,(\d+)\)", m.group(1))]
            if any(key not in classes for key in keys):
                raise WrongOutput(f"{line!r} holds a point that is not a residual class")
            sums = {}
            for key in keys:
                cls = classes[key]
                acc = sums.get(cls["ell"], (0,) * len(cls["delta"]))
                sums[cls["ell"]] = tuple(x + y for x, y in zip(acc, cls["delta"]))
            if sums != op["parts"]:
                raise WrongOutput(f"{line!r}: delta sums {sums} differ from {op['parts']}")
            vecs = {ell: [0] * ctx["dims"][ell] for ell in sums}
            for key in keys:
                i, sign = classes[key]["coord"]
                vecs[classes[key]["ell"]][i] += sign
            for ell, v in vecs.items():
                pieces[ell].add(tuple(v))
            rk2 = sum((classes[key]["A"] for key in keys), Fraction(0))
            ik2 = 12 - op["k2"] - rk2
            feasible = ik2 >= 0 and ik2.denominator == 1
            any_feasible |= feasible
            if m.group(2, 3, 4) != (str(rk2), str(ik2), "FEASIBLE" if feasible else "INFEASIBLE"):
                raise WrongOutput(f"{line!r}: want RK2={rk2} IK2={ik2} feasible={feasible}")
        verdict = "verdict=FEASIBLE" if any_feasible else "verdict=NO_SURFACE"
        if verdict not in lines:
            raise WrongOutput(f"report lacks {verdict!r}")
        for ell, v in op["vectors"].items():
            # reduced baskets are the minimal elements of the fiber, so the
            # drawn basket's vector lies above at least one of them
            if not any(all(u == 0 or (u * x > 0 and abs(u) <= abs(x)) for u, x in zip(w, v)) for w in pieces[ell]):
                raise WrongOutput(f"no reduced basket at l={ell} lies under the drawn vector {v}")


# ---------------------------------------------------------------------------
# lattice_sweep: residual quiver, self-duals and the delta-lattice per index

class LatticeSweep:
    """One op per local index in [16, 50]; a round visits each index once.

    The range puts as many indices below the indices 30, 32, 33, 35 and 37,
    whose ops take about the same time, as above them, so that the median
    op is one of these and not one on either side of a gap in cost.

    Every op starts from empty caches, as a separate `delpezzo delta-rank`
    process would, so an index costs the same in every round.
    """

    name = "lattice_sweep"
    deadline_s = 5.0
    clear_caches = "op"
    ELLS = range(16, 51)
    QUERIES = 8

    def generate(self, rng: random.Random, n_rounds: int):
        rounds = []
        for _ in range(n_rounds):
            ops = []
            for ell in rng.sample(list(self.ELLS), len(self.ELLS)):
                coeffs = [tuple(rng.randint(-3, 3) for _ in range(totient(ell))) for _ in range(self.QUERIES)]
                outside = []
                while len(outside) < self.QUERIES:
                    v = tuple(rng.randint(-9, 9) for _ in range(ell - 2))
                    if v != v[::-1]:
                        outside.append(v)
                ops.append({"ell": ell, "coeffs": coeffs, "outside": outside})
            rounds.append(ops)
        return rounds, None

    def run(self, op):
        ell = op["ell"]
        q = delpezzo.residual_quiver(ell)
        duals = delpezzo.self_duals(ell)
        lat = delpezzo.delta_lattice(ell)
        inside = [
            tuple(sum(c * g[i] for c, g in zip(cs, lat.generators)) for i in range(ell - 2))
            for cs in op["coeffs"]
        ]
        return q, duals, lat, [lat.contains(v) for v in inside], [lat.contains(v) for v in op["outside"]]

    def check(self, op, out, ctx) -> str:
        q, duals, lat, inside, outside = out
        phi = totient(op["ell"])
        if 2 * lat.rank != phi or len(q.vertices) != phi:
            raise WrongOutput(f"l={op['ell']}: rank {lat.rank}, {len(q.vertices)} vertices, phi={phi}")
        if not all(s in q.vertices and s.dual() == s for s in duals):
            raise WrongOutput(f"l={op['ell']}: self-duals {duals} are not self-dual quiver vertices")
        if not all(inside) or any(outside):
            raise WrongOutput(f"l={op['ell']}: membership inside={inside} outside={outside}")
        return f"{op['ell']} rank={lat.rank} basis={lat.basis} quiver={[str(s) for s in q.vertices]} duals={[str(s) for s in duals]}"


WORKLOADS = {w.name: w for w in (SeriesRoundtrip(), AnalyzeText(), LatticeSweep())}
