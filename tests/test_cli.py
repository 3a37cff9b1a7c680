"""End-to-end tests of the `delpezzo` console script: golden outputs,
JSON schema, and exit-code conventions.

Each golden value is also checked against the library directly so the
CLI stays a thin adapter.
"""

import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from delpezzo import (
    DeltaVector,
    Singularity,
    basket,
    count_bound,
    degree_bounds,
    degree_contribution,
    delta_lattice,
    enumerate_reduced_baskets,
    orbifold_contribution,
)
from delpezzo.cli import build_parser, main


# the checkout's src first on the child's path, as pytest's pythonpath puts it
# on this process's, so that no other installed delpezzo is run
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "delpezzo", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=CHILD_ENV,
    )


class TestContrib:
    def test_golden_output(self):
        p = run("contrib", "1/5(1,1)")
        assert p.returncode == 0
        assert p.stdout.splitlines() == [
            "delta=(1,-2,1)",
            "Q=(t - 2*t^2 + t^3)/(5*(1 - t^5))",
        ]
        assert orbifold_contribution(Singularity(5, 1)).entries == (1, -2, 1)

    def test_full_delta_flag(self):
        p = run("contrib", "--full-delta", "1/5(1,1)")
        assert p.stdout.splitlines()[0] == "delta=(0,1,-2,1,0)"

    def test_json_schema(self):
        p = run("contrib", "--json", "1/5(1,1)")
        doc = json.loads(p.stdout)
        assert set(doc) == {
            "localIndex",
            "delta",
            "baskets",
            "rkSquared",
            "verdict",
            "bounds",
        }
        assert doc["localIndex"] == 5 and doc["delta"] == [1, -2, 1]


class TestDeltaRank:
    def test_conjecture_holds_at_34(self):
        p = run("delta-rank", "34")
        assert p.returncode == 0
        assert p.stdout.strip() == "rank=8 phi/2=8 OK"

    def test_small_indices(self):
        assert run("delta-rank", "5").stdout.strip() == "rank=2 phi/2=2 OK"
        assert run("delta-rank", "7").stdout.strip() == "rank=3 phi/2=3 OK"


class TestReduce:
    def test_golden_four_baskets(self):
        p = run("reduce", "5", "2,1,2")
        lines = p.stdout.splitlines()
        assert lines[0] == "count=4"
        assert set(lines[1:]) == {
            "(1,-1,1,0): 1/5(1,1), 1/5(1,2), 1/10(1,1) RK2=-8/5",
            "(1,0,0,1): 1/5(1,1), 1/15(1,2) RK2=-8/5",
            "(0,0,1,-1): 1/10(1,1), 1/10(1,3) RK2=-8/5",
            "(0,1,0,0): 1/20(1,3) RK2=-8/5",
        }

    def test_json_matches_library(self):
        p = run("reduce", "--json", "5", "2,1,2")
        doc = json.loads(p.stdout)
        res = enumerate_reduced_baskets(5, DeltaVector(5, (2, 1, 2)))
        assert doc["verdict"] == "OK"
        assert doc["rkSquared"] == ["-8/5"] * 4
        assert doc["bounds"] == {"m": "3/5", "M": "68/5"}
        assert len(doc["baskets"]) == len(res.baskets) == 4
        got = {tuple(b) for b in map(tuple, doc["baskets"])}
        want = {tuple(str(s) for s in b) for b in res.baskets}
        assert got == want

    def test_thirty_points_in_one_piece(self):
        """delta = 10*(1,-2,1): ten 1/5(1,1) and 120 other baskets, of up to
        30 points.  A box over the class multiplicities of each basket, which
        shares no code with the enumerator, finds no nonempty zero-sum
        sub-multiset."""
        p = run("reduce", "5", "10,-20,10")
        assert p.returncode == 0
        assert p.stdout.splitlines()[0] == "count=121"
        res = enumerate_reduced_baskets(5, DeltaVector(5, (10, -20, 10)))
        assert len(res.baskets) == 121
        assert max(map(len, res.baskets)) == 30
        for b in res.baskets:
            classes = Counter(s.iso_key() for s in b)
            deltas = [orbifold_contribution(Singularity(*key)).entries for key in classes]
            for mult in itertools.product(*[range(m + 1) for m in classes.values()]):
                sums = [sum(k * d[i] for k, d in zip(mult, deltas)) for i in range(3)]
                assert not any(mult) or any(sums), (b, mult)

    def test_domain_error_exits_one(self):
        p = run("reduce", "5", "1,0,0")
        assert p.returncode == 1
        assert p.stderr.startswith("error: NotRealizable")


class TestAnalyze:
    def test_no_surface(self):
        p = run("analyze", "(1+11*t+t^2)/(1-t)^3")
        assert p.returncode == 0
        assert "verdict=NO_SURFACE" in p.stdout.splitlines()

    def test_toric_impossible_flag(self):
        p = run("analyze", "(1+10*t+t^2)/(1-t)^3")
        lines = p.stdout.splitlines()
        assert "verdict=FEASIBLE" in lines
        assert "toric=IMPOSSIBLE" in lines

    @pytest.mark.parametrize("point", ["1/7(1,1)", "1/9(1,1)"])
    def test_single_point_at_seven_and_nine(self, point):
        # K^2 = 10 - RK^2 leaves the invisible budget IK^2 = 2 for the point
        rk2 = degree_contribution(Singularity.parse(point))
        h = run("series", "--k2", str(10 - rk2), point).stdout.splitlines()[1]
        p = run("analyze", h.removeprefix("H="))
        assert p.returncode == 0
        want = f": {point} RK2={rk2} IK2=2 FEASIBLE"
        assert any(ln.endswith(want) for ln in p.stdout.splitlines())

    def test_ten_points_at_five(self):
        """Ten 1/5(1,1) with K^2 = 2: 121 choices, the first of 10 points."""
        p = run("analyze", "(1 + 3*t - 6*t^2 + 14*t^3 - 6*t^4 + 3*t^5 + t^6)"
                "/(1 - 2*t + t^2 - t^5 + 2*t^6 - t^7)")
        lines = p.stdout.splitlines()
        assert p.returncode == 0
        assert lines[0] == "K2=2"
        assert lines[1] == "choice 1: " + ", ".join(["1/5(1,1)"] * 10) + " RK2=2 IK2=8 FEASIBLE"
        assert lines[121].startswith("choice 121: ") and lines[122] == "verdict=FEASIBLE"

    @pytest.mark.parametrize("k2, ik2", [("-1", "13"), ("-5/2", "29/2")])
    def test_nonpositive_degree_is_no_surface(self, k2, ik2):
        """A del Pezzo surface has K^2 > 0, so even the empty basket with a
        nonnegative integer IK^2 is infeasible at K^2 = -1."""
        h = run("series", f"--k2={k2}", "{}").stdout.splitlines()[1]
        p = run("analyze", h.removeprefix("H="))
        assert p.returncode == 0
        assert p.stdout.splitlines() == [f"K2={k2}", f"choice 1: {{}} RK2=0 IK2={ik2} INFEASIBLE",
                                         "verdict=NO_SURFACE"]

    def test_plane_budget(self):
        p = run("analyze", "(1+7*t+t^2)/(1-t)^3")
        lines = p.stdout.splitlines()
        assert lines[0] == "K2=9"
        assert any("IK2=3 FEASIBLE" in ln for ln in lines)


class TestBoundsAndCounts:
    def test_bounds_golden(self):
        p = run("bounds", "1/5(1,1),1/15(1,2)")
        assert p.stdout.strip() == "m=3/5 M=68/5"
        assert degree_bounds(
            basket([Singularity(5, 1), Singularity(15, 2)])
        ) == (Fraction(3, 5), Fraction(68, 5))

    def test_bounds_nmin_flag(self):
        p = run("bounds", "--nmin", "2", "1/5(1,1),1/15(1,2)")
        assert p.stdout.strip() == "m=3/5 M=58/5"

    def test_count_bound_golden(self):
        assert run("count-bound", "5", "5:2,1,2").stdout.strip() == "N=82"
        assert run("count-bound", "10", "5:2,1,2").stdout.strip() == "N=147"
        assert count_bound({5: DeltaVector(5, (2, 1, 2))}, 5) == 82

    def test_count_bound_refuses_a_repeated_index(self):
        p = run("count-bound", "5", "5:1,-2,1", "5:2,1,2")
        assert p.returncode == 1
        assert p.stderr.startswith("error: ParseError: local index 5 given twice")


class TestSeriesAndResidue:
    def test_series_golden(self):
        p = run("series", "--k2", "13/5", "--terms", "4", "1/20(1,3)")
        lines = p.stdout.splitlines()
        assert lines[0] == "K2=13/5"
        assert lines[-1] == "terms=[1, 4, 9, 17]"

    def test_basket_of_three_with_spaced_separators(self):
        """Every `, ` between points is a separator, not only the ends."""
        spaced = run("series", "--k2", "2", "{1/5(1,1), 1/5(1,1), 1/3(1,1)}")
        assert spaced.returncode == 0
        assert spaced.stdout == run("series", "--k2", "2", "1/5(1,1),1/5(1,1),1/3(1,1)").stdout

    def test_residue_golden(self):
        p = run("residue", "1/12(1,7)")
        assert p.stdout.splitlines() == ["residue=1/3(1,1)", "T: d=1 n=3 c=2"]

    def test_quiver_golden(self):
        p = run("quiver", "5")
        assert (
            p.stdout.strip()
            == "1/5(1,1) -> 1/5(1,2) -> 1/10(1,1) -> 1/5(1,3) -> 1/5(1,1)"
        )


class TestExitCodes:
    def test_usage_error_is_two(self):
        assert run("reduce").returncode == 2
        assert run("no-such-command").returncode == 2

    def test_domain_error_is_one(self):
        p = run("contrib", "1/5(2,3)")
        assert p.returncode == 1
        assert p.stderr.startswith("error: ParseError")

    def test_parse_error_in_series_expression(self):
        p = run("analyze", "(1+t")
        assert p.returncode == 1
        assert "ParseError" in p.stderr

    def test_determinism_across_jobs(self):
        a = run("reduce", "5", "8,-1,8")
        b = run("reduce", "5", "8,-1,8")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    @pytest.mark.parametrize(
        "args",
        [
            ("reduce", "5", "1,2"),
            ("count-bound", "0", "5:2,1,2"),
            ("quiver", "-3"),
            ("delta-rank", "0"),
            ("bounds", "--nmin", "-1", "1/5(1,1)"),
            ("contrib", "1/1(1,0)"),
            ("analyze", "1/0"),
            ("analyze", "(t)*(-(1)/(0))"),
            ("analyze", "1/t"),
            ("analyze", "(1+t)/(t-t^2)"),
            ("analyze", "(1+t\u00b2)/(1-t)^3"),
            ("analyze", "(" * 400 + "t" + ")" * 400),
            ("analyze", "((t^10000)^10000)^10000"),
            ("analyze", "((2^10000)^10000)^10000"),
            ("contrib", "1/\u0665(1,\u0661)"),  # Arabic-Indic 5 and 1
            ("residue", "1/\u0665(1,\u0661)"),
            ("contrib", "1/5(1,1)", "--terms", "-2"),
            ("count-bound", "5", "5:1,-2,1", "5:2,1,2"),
            # integer arguments take only the ASCII digits 0-9
            ("quiver", "\u0665"),
            ("reduce", "5", "\u0662,\u0661,\u0662"),
            ("reduce", "5", "2,1_0,2"),
            ("count-bound", "\u0665", "\u0665:\u0662,\u0661,\u0662"),
            ("count-bound", "5", "\u0665:2,1,2"),
            # K^2 is p/q in the same digits
            ("series", "{}", "--k2", "1e999999999"),
            ("series", "{}", "--k2", "1_0"),
            ("series", "{}", "--k2", "\u0661/\u0662"),
        ],
        ids=lambda args: " ".join(args)[:40],
    )
    def test_bad_input_is_named_without_traceback(self, args):
        p = run(*args)
        assert p.returncode in (1, 2)
        assert "error:" in p.stderr
        assert "Traceback" not in p.stderr

    def test_k2_exponent_is_refused_at_once(self):
        """An exponent is not p/q: refused before any number is built."""
        p = subprocess.run(
            [sys.executable, "-m", "delpezzo", "series", "{}", "--k2", "1e999999999"],
            capture_output=True, text=True, timeout=10, env=CHILD_ENV,
        )
        assert p.returncode == 1
        assert p.stderr.startswith("error: ParseError: cannot parse rational")

    def test_named_errors_for_zero_division_and_a_pole_at_zero(self):
        assert run("analyze", "1/0").stderr.startswith("error: ParseError: division by zero")
        assert run("analyze", "1/t").stderr.startswith("error: NotASurfaceSeries")

    @pytest.mark.parametrize("text", [
        "1/((1-t)^3*(1+t))",  # Phi_2 and no even candidate index
        "1/(1-t^2)^3",  # Phi_2 more often than the frame holds it
    ])
    def test_unexplained_cyclotomic_factor_is_named(self, text):
        p = run("analyze", text)
        assert p.returncode == 1
        assert p.stderr == ("error: NotASurfaceSeries: denominator has a cyclotomic "
                            "factor that no orbifold part gives\n")


def test_selftest_passes_without_asserts():
    """The quiver's soundness checks and the headline numbers, under -O."""
    p = subprocess.run([sys.executable, "-O", "-m", "delpezzo", "selftest"],
                       capture_output=True, text=True, timeout=600, env=CHILD_ENV)
    assert p.returncode == 0, p.stdout + p.stderr
    assert p.stdout.splitlines()[-1] == "selftest OK"


class TestInProcess:
    """cli.main called in the same process, as embedding programs and the
    benchmark do; the parser is built once and shared by the calls."""

    CALLS = (
        ("analyze", "(1+7*t+t^2)/(1-t)^3"),
        ("reduce",),
        ("contrib", "1/5(1,1)", "--terms", "4"),
        ("analyze", "1/t"),
        ("quiver", "10", "--json"),
        ("analyze", "(1+7*t+t^2)/(1-t)^3"),
    )

    def test_repeated_calls_match_fresh_processes(self, capsys):
        for args in self.CALLS:
            try:
                code = main(list(args))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            p = run(*args)
            assert (code, out, err) == (p.returncode, p.stdout, p.stderr), args
        assert build_parser() is build_parser()


# series text from the grammar's tokens, with exponents at most 3
_atoms = st.sampled_from(["t", "0", "1", "2", "3", "12"])
_series_text = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds("({})".format, inner),
        st.builds("-{}".format, inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
        st.builds("{}{}{}".format, inner, st.sampled_from("+-*/"), inner),
    ),
    max_leaves=12,
)
_token_soup = st.lists(st.sampled_from(list("t+-*/^()0123")), max_size=12).map("".join)


# parentheses nested past the parser's limit, around series text
_deep_nesting = st.builds(
    lambda n, inner: "(" * n + inner + ")" * n, st.integers(80, 400), _series_text
)
_fuzz_settings = settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _status(args):
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


@_fuzz_settings
@given(st.one_of(_series_text, _token_soup, st.text(), _deep_nesting))
@example("(1+t\u00b2)/(1-t)^3")  # a superscript digit: isdigit() but not int()
@example("(" * 400 + "t" + ")" * 400)
def test_analyze_fuzz_exits_with_a_status(text):
    """`analyze` on any text returns 0 or 1 or exits with usage status 2;
    it never lets another exception out."""
    assert _status(["analyze", text]) in (0, 1, 2)


# singularity text with small numbers, some of them not a point
_point_text = st.builds("1/{}(1,{})".format, st.integers(0, 60), st.integers(0, 60))


@_fuzz_settings
@given(st.one_of(st.text(), _point_text))
def test_contrib_fuzz_exits_with_a_status(text):
    assert _status(["contrib", text]) in (0, 1, 2)


@_fuzz_settings
@given(st.one_of(st.text(), st.lists(_point_text, max_size=4).map(", ".join).map("{{{}}}".format)))
def test_bounds_fuzz_exits_with_a_status(text):
    assert _status(["bounds", text]) in (0, 1, 2)


# points with r <= 200: any pair of numbers, or a point 1/r(1,a) with hcf(r, a) = 1
_small_point_text = st.one_of(
    st.builds("1/{}(1,{})".format, st.integers(0, 200), st.integers(0, 200)),
    st.builds(
        lambda r, a: f"1/{r}(1,{a % r if gcd(r, a % r) == 1 else 1})",
        st.integers(2, 200), st.integers(1, 200),
    ),
)
_small_basket_text = st.lists(_small_point_text, max_size=4).map(", ".join).map("{{{}}}".format)
_k2_text = st.one_of(
    st.text(max_size=8),
    st.fractions(-20, 20, max_denominator=30).map(str),
)


@_fuzz_settings
@given(st.one_of(st.text(), _small_basket_text), _k2_text)
def test_series_fuzz_exits_with_a_status(text, k2):
    assert _status(["series", text, "--k2", k2, "--terms", "3"]) in (0, 1, 2)


@_fuzz_settings
@given(st.one_of(st.text(), _small_point_text))
def test_residue_fuzz_exits_with_a_status(text):
    assert _status(["residue", text]) in (0, 1, 2)


def _lattice_text(ell, coeffs):
    """l:entries for an integer combination of the delta-lattice generators."""
    gens = delta_lattice(ell).generators
    entries = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(ell - 2)]
    return f"{ell}:" + ",".join(map(str, entries))


def _palindrome_text(ell, entries):
    half = entries[: (ell - 1) // 2]
    return f"{ell}:" + ",".join(map(str, half + half[: ell - 2 - len(half)][::-1]))


# per-index contributions with l <= 10 and entries in [-3, 3]: lattice
# vectors, palindromes (most of them off the lattice), and any text
_contribution = st.one_of(
    st.builds(_lattice_text, st.integers(3, 10), st.lists(st.integers(-1, 1), min_size=6, max_size=6))
    .filter(lambda text: all(abs(int(x)) <= 3 for x in text.split(":")[1].split(","))),
    st.builds(_palindrome_text, st.integers(1, 10), st.lists(st.integers(-3, 3), min_size=4, max_size=4)),
    st.text(max_size=12),
)


@_fuzz_settings
@given(st.integers(-1, 12).map(str), st.lists(_contribution, min_size=1, max_size=3))
def test_count_bound_fuzz_exits_with_a_status(ell_star, contributions):
    assert _status(["count-bound", ell_star, *contributions]) in (0, 1, 2)


# a local index as text: a small integer, at most `most`, or any text
def _index_text(most):
    return st.one_of(st.integers(-2, most).map(str), st.text(max_size=4))


@_fuzz_settings
@given(_index_text(60), st.booleans())
def test_quiver_fuzz_exits_with_a_status(ell, as_json):
    assert _status(["quiver", ell, *(["--json"] if as_json else [])]) in (0, 1, 2)


@_fuzz_settings
@given(_index_text(60))
def test_delta_rank_fuzz_exits_with_a_status(ell):
    assert _status(["delta-rank", ell]) in (0, 1, 2)


# l <= 10 only: no realizable delta at l >= 11 gets an answer yet
@_fuzz_settings
@given(st.one_of(
    _contribution.map(lambda text: list(text.partition(":")[::2])),
    st.lists(st.one_of(_index_text(10), st.text(max_size=12)), min_size=2, max_size=2),
))
def test_reduce_fuzz_exits_with_a_status(args):
    assert _status(["reduce", *args]) in (0, 1, 2)
