"""End-to-end tests of the `delpezzo` console script: golden outputs,
JSON schema, and exit-code conventions.

Each golden value is also checked against the library directly so the
CLI stays a thin adapter.
"""

import json
import subprocess
import sys
from fractions import Fraction

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
    enumerate_reduced_baskets,
    orbifold_contribution,
)
from delpezzo.cli import build_parser, main


def run(*args):
    return subprocess.run(
        [sys.executable, "-m", "delpezzo", *args],
        capture_output=True,
        text=True,
        timeout=600,
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


class TestSeriesAndResidue:
    def test_series_golden(self):
        p = run("series", "--k2", "13/5", "--terms", "4", "1/20(1,3)")
        lines = p.stdout.splitlines()
        assert lines[0] == "K2=13/5"
        assert lines[-1] == "terms=[1, 4, 9, 17]"

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
        ],
        ids=lambda args: " ".join(args)[:40],
    )
    def test_bad_input_is_named_without_traceback(self, args):
        p = run(*args)
        assert p.returncode in (1, 2)
        assert "error:" in p.stderr
        assert "Traceback" not in p.stderr

    def test_named_errors_for_zero_division_and_a_pole_at_zero(self):
        assert run("analyze", "1/0").stderr.startswith("error: ParseError: division by zero")
        assert run("analyze", "1/t").stderr.startswith("error: NotASurfaceSeries")


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
