import argparse
import contextlib
import io
import json
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import replay_argvs
from zetalab.cli import (
    _UsageError, build_parser, encode, main, parse_argv, parse_curve, parse_matrix,
)
from zetalab import bundles, ffield, lattice
from zetalab.exact import Poly

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "zetalab" / "data" / "schema.json")
    .read_text())
ZEROS = str(Path(__file__).parent / "data" / "zeros100.txt")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_json(args, capsys):
    code, out = run_cli(args + ["--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestParsing:
    def test_curve_forms(self):
        assert (parse_curve("y2=x3+x+1", 5).a, parse_curve("y2=x3+x+1", 5).b) == (1, 1)
        assert parse_curve("y2=x3+4x", 5).a == 4
        assert parse_curve("y2=x3-x", 5).a == 4          # -1 mod 5
        assert parse_curve("y2=x3+2*x+3", 7).a == 2
        c = parse_curve("y2=x3+5", 7)
        assert (c.a, c.b) == (0, 5)

    def test_curve_rejects_garbage(self, capsys):
        code, _ = run_cli(["artin", "--curve", "y2=x2+1", "--p", "5"], capsys)
        assert code == 64

    def test_matrix(self):
        rows = parse_matrix("2 0 / 0 0.5")
        assert rows == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]

    def test_matrix_fraction_entries(self):
        rows = parse_matrix("1/3 0 / 0 3")
        assert rows[0][0] == Fraction(1, 3)


class TestEncode:
    def test_rationals_and_reals(self):
        assert encode(-0.0) == "0"
        assert encode(0.1) == "0.1"
        assert encode(Fraction(3)) == "3"
        assert encode(Fraction(-1, 2)) == "-1/2"

    def test_complex_poly_tuple(self):
        assert encode(complex(1.5, -0.0)) == {"re": "1.5", "im": "0"}
        assert encode(Poly([1, Fraction(-1, 3)])) == ["1", "-1/3"]
        assert encode((2, Fraction(1, 2))) == [2, "1/2"]

    def test_bool_int_str_pass_through(self):
        assert encode(True) is True
        assert encode(False) is False
        assert encode(7) == 7 and type(encode(7)) is int
        assert encode("7") == "7"

    def test_nested(self):
        value = {"a": [{"b": 0.5, "c": (True, Fraction(2, 4))}], "d": {}}
        assert encode(value) == {"a": [{"b": "0.5", "c": [True, "1/2"]}], "d": {}}

    @pytest.mark.parametrize("value", [Decimal("1.5"), None, {1, 2}])
    def test_unknown_type_raises(self, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            encode(value)
        with pytest.raises(TypeError, match=type(value).__name__):
            encode({"nested": [value]})


class TestCommands:
    def test_artin_example(self, capsys):
        payload = run_json(["artin", "--curve", "y2=x3+x+1", "--p", "5"], capsys)
        result = payload["result"]
        assert result["numerator"] == ["1", "3", "5"]
        assert result["counts"][:3] == ["9", "27", "108"]
        assert result["functional_equation_ok"] and result["rh_ok"]
        assert all(result["reciprocity_ok"].values())

    def test_nazeta_paper_example(self, capsys):
        payload = run_json(["nazeta", "--rank", "2", "--convention", "paper",
                            "--p", "5", "--curve", "y2=x3+x+1"], capsys)
        result = payload["result"]
        assert result["normalized_numerator"] == ["1", "4", "6", "20", "25"]
        assert result["numerator"][0] == "9/4"
        assert result["counts"][:2] == ["4", "48"]

    def test_census(self, capsys):
        payload = run_json(["census", "--rank", "2", "--p", "5",
                            "--curve", "y2=x3+x+1", "--convention", "descent"],
                           capsys)
        assert payload["result"]["total_classes"] == "6"

    def test_mass(self, capsys):
        payload = run_json(["mass", "--p", "5", "--curve", "y2=x3+4x"], capsys)
        rows = payload["result"]["rows"]
        r20 = next(r for r in rows if r["rank"] == "2" and r["degree"] == "0")
        assert r20["descent_matches_recursion"]
        assert r20["paper_matches_recursion"]  # N1 = 2(q-1) here

    def test_allbundles(self, capsys):
        payload = run_json(["allbundles", "--p", "5", "--curve", "y2=x3+x+1",
                            "--order", "6"], capsys)
        assert payload["result"]["degree_zero_closed"] == "135/128"
        assert payload["result"]["all_agree"]

    def test_euler(self, capsys):
        payload = run_json(["euler", "--A", "-1", "--B", "0", "--rank", "1",
                            "--s", "3", "--pmax", "200"], capsys)
        assert payload["result"]["bad_primes"] == [2, 3]
        assert float(payload["result"]["value"]["re"]) != 0

    def test_lattice(self, capsys):
        payload = run_json(["lattice", "--lattice", "0.5 0 / 0 2"], capsys)
        result = payload["result"]
        assert result["semistable"] is False
        assert len(result["hn_steps"]) == 2
        assert result["hn_steps"][0]["covol2"] == "1/4"

    def test_lattice_just_below_unit_minimum_is_outside_the_domain(self, capsys):
        # lambda_1^2 = 1 - 10^-13: within any float tolerance of the edge
        # a = 1 of the domain, yet unstable, and the domain is decided exactly
        payload = run_json(["lattice", "--gram",
                            "9999999999999/10000000000000 0 / 0 10000000000000/9999999999999"],
                           capsys)
        result = payload["result"]
        assert result["semistable"] is False
        assert result["reduction"]["in_domain"] is False

    def test_lattice_gram_unimodular(self, capsys):
        payload = run_json(["lattice", "--gram", "2 1 / 1 1"], capsys)
        assert payload["result"]["unimodular"]["semistable"] is True

    def test_theta_example(self, capsys):
        payload = run_json(["theta", "--lattice", "2 0 / 0 0.5"], capsys)
        assert abs(float(payload["result"]["rr_residual"])) < 1e-9

    def test_theta_large_tolerance(self, capsys):
        # tol / 100 > 2 puts log(2 / eps) below 0: the radius starts at 1.5
        payload = run_json(["theta", "--gram", "1", "--tol", "1000"], capsys)
        assert float(payload["result"]["certified_tails"]) <= 1000

    def test_xi(self, capsys):
        payload = run_json(["xi", "--s", "0.3+2j"], capsys)
        assert float(payload["result"]["functional_equation_residual"]) < 1e-10

    def test_explicit_ff(self, capsys):
        payload = run_json(["explicit-ff", "--curve", "y2=x3+x+1", "--p", "5",
                            "--count", "25", "--seed", "1"], capsys)
        result = payload["result"]
        assert result["explicit_formula_all_ok"]
        assert result["positivity_all_nonnegative"]
        assert result["hodge_equals_positivity_count"] == 25
        assert result["delta1_pairing"]["diag"] == "9"

    def test_explicit_nf(self, capsys):
        payload = run_json(["explicit-nf", "--zeros", ZEROS, "--K", "50",
                            "--pmax", "2000"], capsys)
        rw = payload["result"]["riemann_weil"]
        assert abs(float(rw["residual"])) < 1e-3

    def test_params_echo_through_encode(self, capsys):
        # a float flag is echoed by the rule that prints it in the result
        payload = run_json(["explicit-nf", "--zeros", ZEROS, "--K", "25",
                            "--pmax", "100", "--mu", "0.1234567890123"], capsys)
        assert payload["params"]["mu"] == payload["result"]["mu"] == "0.123456789012"

    def test_andrianov(self, capsys):
        payload = run_json(["andrianov"], capsys)
        assert payload["result"]["formal_match"] is True


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_usage_error_bad_flag(self, capsys):
        assert main(["artin", "--curve", "y2=x3+x+1"]) == 64  # missing --p

    def test_threads_only_on_euler(self, capsys):
        assert main(["artin", "--curve", "y2=x3+x+1", "--p", "5",
                     "--threads", "2"]) == 64

    def test_validation_error(self, capsys):
        # singular curve -> validation failure
        code = main(["artin", "--curve", "y2=x3", "--p", "5"])
        assert code == 1

    def test_resource_error(self, capsys):
        code = main(["euler", "--A", "1", "--B", "1", "--s", "3",
                     "--pmax", "2000000"])
        assert code == 2

    def test_prime_bound_cap_is_pinned(self, capsys):
        assert main(["euler", "--A", "1", "--B", "1", "--s", "3",
                     "--pmax", "100001"]) == 2

    def test_characteristic_beyond_primality_bound(self, capsys):
        assert main(["artin", "--curve", "y2=x3+x+1", "--p", str(2 ** 89 - 1)]) == 2
        assert main(["artin", "--curve", "y2=x3+x+1",
                     "--p", str(2 * 1000003 * 1000033)]) == 1

    @pytest.mark.parametrize("s", ["nan", "3+nanj"])
    def test_euler_non_finite_s_is_validation_error(self, capsys, s):
        # NaN fails every comparison, so it must not reach the Re(s) check
        assert main(["euler", "--A", "1", "--B", "1", "--s", s]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["xi", "--s", "2", "--eps", "inf"],
        ["xi", "--s", "2", "--eps", "nan"],
        ["theta", "--gram", "1 0 / 0 1", "--tol", "inf"],
        ["theta", "--gram", "1 0 / 0 1", "--tol", "nan"],
        ["explicit-nf", "--zeros", ZEROS, "--mu", "nan"],
        ["explicit-nf", "--zeros", ZEROS, "--sigma", "inf"],
        ["explicit-nf", "--zeros", ZEROS, "--sigma", "nan"],
    ], ids=["xi-eps-inf", "xi-eps-nan", "theta-tol-inf", "theta-tol-nan",
            "nf-mu-nan", "nf-sigma-inf", "nf-sigma-nan"])
    def test_non_finite_tolerance_is_validation_error(self, capsys, argv):
        # inf makes the remainder or tail test vacuous, and NaN fails every
        # comparison; both are refused as input, before any work
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("argv, code", [
        (["lattice", "--gram", "1/0 0 / 0 1"], 64),
        (["lattice", "--gram", "nan 0 / 0 1"], 64),
        (["lattice", "--gram", "abc 0 / 0 1"], 64),
        (["explicit-nf", "--zeros", str(Path(ZEROS).parent / "missing.txt")], 1),
        (["explicit-nf", "--zeros", str(Path(ZEROS).parent)], 1),
        (["explicit-nf", "--zeros", str(Path(ZEROS).parent / "zeros_not_utf8.txt")], 1),
        (["euler", "--A", "1", "--B", "1", "--s", "3", "--pmax", "0"], 1),
        (["euler", "--A", "1", "--B", "1", "--s", "3", "--pmax", "-5"], 1),
        (["explicit-ff", "--curve", "y2=x3+x+1", "--p", "59", "--count", "-3"], 1),
        (["explicit-ff", "--curve", "y2=x3+x+1", "--p", "59", "--span", "-2"], 1),
        (["nazeta", "--curve", "y2=x3+x+1", "--p", "5", "--rank", "2",
          "--mmax", "-4"], 1),
        (["artin", "--curve", "y2=x3+x+1", "--p", "5", "--mmax", "-1"], 1),
        (["mass", "--curve", "y2=x3+x+1", "--p", "5", "--rmax", "-2"], 1),
        (["allbundles", "--curve", "y2=x3+x+1", "--p", "59", "--order", "-1"], 1),
        (["explicit-nf", "--zeros", ZEROS, "--pmax", "-7"], 1),
    ], ids=["gram-zero-denominator", "gram-nan", "gram-word",
            "zeros-missing", "zeros-directory", "zeros-not-utf8",
            "euler-pmax-zero", "euler-pmax-negative", "explicit-ff-count-negative",
            "explicit-ff-span-negative", "nazeta-mmax-negative", "artin-mmax-negative",
            "mass-rmax-negative", "allbundles-order-negative",
            "explicit-nf-pmax-negative"])
    def test_malformed_input_ends_in_exit_code(self, capsys, argv, code):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    @pytest.mark.parametrize("rank", ["2", "3"], ids=["nazeta", "nazeta-rank3"])
    def test_curve_commands_refuse_past_root_check_bound(self, capsys, monkeypatch, rank):
        # 3163 is the first prime with q^2 over ENUMERATION_BUDGET, the bound
        # up to which the rank-2 and rank-3 numerators' roots were checked
        # simple; the refusal comes before the F_p walk
        def unwalked(curve):
            raise AssertionError("the F_p walk ran")
        monkeypatch.setattr(bundles, "point_and_torsion_counts", unwalked)
        monkeypatch.setattr(ffield, "point_and_torsion_counts", unwalked)
        assert main(["nazeta", "--curve", "y2=x3+x+1", "--p", "3163", "--rank", rank]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("resource error: q = 3163 is past q^2 <= 10000000, where the "
                                "numerators of ranks 2 and 3 were checked to have simple roots\n")

    @pytest.mark.parametrize("argv", [
        ["census", "--rank", "3"], ["census", "--rank", "3", "--convention", "paper"],
        ["mass"], ["allbundles"],
    ], ids=["census", "census-paper", "mass", "allbundles"])
    def test_curve_commands_run_past_root_check_bound(self, capsys, argv):
        # these find no roots, so they take every prime the F_p walk takes:
        # N_1 by Euler's criterion, and a census total of #P^2(F_q)
        q = 3163
        result = run_json([*argv, "--curve", "y2=x3+x+1", "--p", str(q)], capsys)["result"]
        fx = ((x ** 3 + x + 1) % q for x in range(q))
        chi = sum(1 if pow(f, (q - 1) // 2, q) == 1 else -1 for f in fx if f)
        assert result["n1"] == q + 1 + chi
        if argv[0] == "census":
            assert result["total_classes"] == str(q * q + q + 1)

    def test_rank1_nazeta_past_root_check_bound_equals_artin(self, capsys):
        # the rank-1 numerator 1 - at + qt^2 always has simple roots
        curve = ["--curve", "y2=x3+x+1", "--p", "3163", "--mmax", "8"]
        rank1 = run_json(["nazeta", *curve, "--rank", "1"], capsys)["result"]
        assert rank1["counts"] == run_json(["artin", *curve], capsys)["result"]["counts"]
        assert len(rank1["counts"]) == 8

    @pytest.mark.parametrize("target", ["", "missing/x.json"],
                             ids=["directory", "missing-directory"])
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, target):
        assert main(["andrianov", "--out", str(tmp_path / target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_failing_job_leaves_out_file(self, capsys, tmp_path):
        # the file is opened only once the job has succeeded
        out = tmp_path / "kept.json"
        out.write_text("kept\n")
        argv = ["artin", "--curve", "y2=x3+x+1", "--p", "5", "--mmax", "-1"]
        assert main(argv + ["--out", str(out)]) == 1
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["lattice", "theta"])
    def test_lattice_and_gram_together_are_refused(self, capsys, monkeypatch, command):
        # both flags used to print in params while the result came from
        # --gram alone; the pair is refused before a lattice is built
        def unbuilt(*args):
            raise AssertionError("a lattice was built")
        monkeypatch.setattr(lattice.Lattice, "from_gram", unbuilt)
        monkeypatch.setattr(lattice.Lattice, "from_basis_columns", unbuilt)
        assert main([command, "--lattice", "2 0 / 0 2", "--gram", "1 0 / 0 1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: give --lattice or --gram, not both\n"

    def test_pole_is_validation_error(self, capsys):
        assert main(["xi", "--s", "1"]) == 1

    def test_xi_term_budget(self, capsys):
        start = time.perf_counter()
        assert main(["xi", "--s", "0.5+1e9j"]) == 2
        assert time.perf_counter() - start < 0.5

    def test_theta_box_budget(self, capsys):
        # rank-4 Gram diag(1/400): about 10^9 candidate points, refused
        # before the search starts
        start = time.perf_counter()
        assert main(["theta", "--gram", "1/400 0 0 0 / 0 1/400 0 0 / "
                     "0 0 1/400 0 / 0 0 0 1/400"]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().out == ""

    def test_euler_discriminant_factoring_is_bounded(self, capsys):
        # 6 * (4A^3 + 27B^2) has an 89-bit cofactor with no prime factor up
        # to the trial-division bound: refused, not trial-divided to its root
        start = time.perf_counter()
        assert main(["euler", "--A", "1000000007", "--B", "1", "--s=3",
                     "--pmax", "100"]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("count, span", [("1", "1581"), ("3", "913")])
    def test_explicit_ff_work_budget(self, capsys, count, span):
        # count * (2 span + 1)^2 just over ENUMERATION_BUDGET: refused
        # before the curve is read, not run for seconds to hours
        start = time.perf_counter()
        assert main(["explicit-ff", "--curve", "y2=x3+x+1", "--p", "59",
                     "--count", count, "--span", span]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == "" and "resource error" in captured.err

    @pytest.mark.parametrize("argv", [
        ["artin", "--curve", "y2=x3+x+1", "--p", "59", "--mmax", "3000"],
        ["nazeta", "--curve", "y2=x3+x+1", "--p", "59", "--rank", "2",
         "--mmax", "3000"],
        ["explicit-ff", "--curve", "y2=x3+x+1", "--p", "59", "--count", "1",
         "--span", "1220"],
    ], ids=["artin-mmax", "nazeta-mmax", "explicit-ff-span"])
    def test_numbers_past_str_digit_limit_refused(self, capsys, argv):
        # each job would print a number of more than 4,300 digits, which
        # str() refuses with a ValueError: refused before the work instead
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == "" and "4300 digits" in captured.err

    def test_explicit_ff_span_at_digit_edge(self, capsys):
        # at q = 3137 the bound admits span 613, whose sample's numerator
        # still prints, and refuses 614
        argv = ["explicit-ff", "--curve", "y2=x3+x+1", "--p", "3137", "--count", "1"]
        assert main(argv + ["--span", "614"]) == 2
        capsys.readouterr()
        assert main(argv + ["--span", "613"]) == 0
        sample = json.loads(capsys.readouterr().out)["result"]["samples"][0]
        assert 4200 < len(sample["positivity"].split("/")[0]) <= 4300

    def test_nazeta_mmax_at_digit_edge(self, capsys):
        # P/P(0) = 1 + 58t + 114t^2 + 3422t^3 + 3481t^4 has its roots
        # inside |w| <= q, so the bound is m log10 59 + log10 8: it admits
        # mmax 2427, whose counts print 4297 digits, and refuses 2428
        argv = ["nazeta", "--curve", "y2=x3+x+1", "--p", "59", "--rank", "2"]
        assert main(argv + ["--mmax", "2428"]) == 2
        capsys.readouterr()
        assert main(argv + ["--mmax", "2427"]) == 0
        counts = json.loads(capsys.readouterr().out)["result"]["counts"]
        assert 4290 < max(len(c.lstrip("-")) for c in counts) <= 4300

    @pytest.fixture
    def str_digit_limit(self):
        saved = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(saved)

    def test_refusal_follows_str_digit_limit(self, capsys, str_digit_limit):
        # the refusal reads the interpreter's limit: a lower one refuses
        # more, and 0 (no limit) refuses nothing
        str_digit_limit(1000)
        argv = ["artin", "--curve", "y2=x3+x+1", "--p", "59", "--mmax", "600"]
        assert main(argv) == 2
        assert "1000 digits" in capsys.readouterr().err
        str_digit_limit(0)
        assert main(["nazeta", "--curve", "y2=x3+x+1", "--p", "59", "--rank", "2",
                     "--mmax", "2500"]) == 0
        counts = json.loads(capsys.readouterr().out)["result"]["counts"]
        assert max(len(c.lstrip("-")) for c in counts) > 4300

    def test_artin_order_cap(self, capsys):
        # reciprocity_check's work grows about as order^2.3; the cap is 3000
        start = time.perf_counter()
        assert main(["artin", "--curve", "y2=x3+x+1", "--p", "59", "--order", "3001"]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == "" and "--order capped at 3000" in captured.err

    def test_xi_far_left_is_bounded(self, capsys):
        # a large negative sigma must not raise the working precision
        start = time.perf_counter()
        assert main(["xi", "--s=-1e9+1j"]) == 1
        assert time.perf_counter() - start < 0.5

    def test_xi_far_right(self, capsys):
        payload = run_json(["xi", "--s", "80"], capsys)
        assert float(payload["result"]["functional_equation_residual"]) == 0

    @pytest.mark.parametrize("argv", [
        ["xi", "--s=8e307"],
        ["xi", "--s=1.7e308"],
        ["xi", "--s=-8e307"],
        ["explicit-nf", "--zeros", ZEROS, "--sigma", "1e20"],
        ["explicit-nf", "--zeros", ZEROS, "--sigma", "1e154"],
        ["explicit-nf", "--zeros", ZEROS, "--sigma", "1e155"],
        ["explicit-nf", "--zeros", ZEROS, "--mu", "1e200", "--sigma", "1e200"],
        ["euler", "--A", "1", "--B", "1", "--s=3+1e308j"],
        ["euler", "--A", "1", "--B", "1", "--s=1e308+1e308j"],
    ], ids=["xi-8e307", "xi-1.7e308", "xi-minus-8e307", "nf-sigma-1e20",
            "nf-sigma-1e154", "nf-sigma-1e155", "nf-mu-sigma-1e200",
            "euler-t-1e308", "euler-s-1e308"])
    def test_floats_past_double_range_end_in_one_error_line(self, capsys, argv):
        # each ended in a traceback (OverflowError, ZeroDivisionError) or
        # printed numpy overflow warnings before its error
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# each subcommand with its required flags; `lattice` and `theta` need one
# of --lattice and --gram
CURVE = ["--curve", "y2=x3+x+1", "--p", "5"]
REQUIRED = {
    "artin": CURVE,
    "nazeta": CURVE + ["--rank", "2"],
    "census": CURVE + ["--rank", "2"],
    "mass": CURVE,
    "allbundles": CURVE,
    "euler": ["--A", "1", "--B", "1", "--s", "3"],
    "lattice": ["--gram", "1 0 / 0 1"],
    "theta": ["--gram", "1 0 / 0 1"],
    "xi": ["--s", "2"],
    "explicit-ff": CURVE,
    "explicit-nf": ["--zeros", ZEROS],
    "andrianov": [],
}
OMITTED = [(command, i) for command, flags in REQUIRED.items()
           for i in range(0, len(flags), 2)]


class TestParserBehaviour:
    def test_every_subcommand_listed(self):
        # `commands` holds the very sub-parsers the top-level parser registers
        action = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
        assert build_parser().commands == action.choices
        assert set(action.choices) == set(REQUIRED)

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_required_flags_parse(self, command):
        args = build_parser().parse_args([command, *REQUIRED[command]])
        assert args.command == command and args.format == "json"

    @pytest.mark.parametrize("command,i", OMITTED,
                             ids=[f"{c}-{REQUIRED[c][i]}" for c, i in OMITTED])
    def test_missing_required_flag(self, command, i, capsys):
        flags = REQUIRED[command][:i] + REQUIRED[command][i + 2:]
        assert main([command, *flags]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")

    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_unknown_format(self, command, capsys):
        assert main([command, *REQUIRED[command], "--format", "yaml"]) == 64
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["nazeta", "census", "euler"])
    def test_unknown_convention(self, command, capsys):
        assert main([command, *REQUIRED[command], "--convention", "other"]) == 64
        assert capsys.readouterr().out == ""


# argvs that end in help or a usage error, or that sit at the parser's
# edges: abbreviated, repeated and stray flags, "--", options before the command
PARSER_EDGE_ARGVS = [
    [], ["--help"], ["-h"], ["frobnicate"], ["--", "x"], ["--format", "json", "artin"],
    ["artin", "--curve", "y2=x3+x+1"],
    ["artin", "--curve", "y2=x3+x+1", "--p", "x"],
    ["artin", "--cur", "y2=x3+x+1", "--p", "5"],
    ["artin", "--curve", "y2=x3+x+1", "--p=5", "--p", "7"],
    ["artin", *CURVE, "extra"],
    ["artin", *CURVE, "--bogus", "1"],
    ["artin", *CURVE, "--threads", "2"],
    ["artin", *CURVE, "--", "x"],
    ["artin", "-h"], ["artin", "--h"], ["nazeta", "--help"],
    ["nazeta", *CURVE, "--rank", "2", "--convention", "other"],
    ["nazeta", *CURVE, "--rank", "2", "--format", "yaml"],
    ["xi", "--s", "-1+2j"], ["xi", "--s=-1+2j"], ["xi"], ["andrianov", "x"],
]
HELP = {"-h", "--h", "--help"}


@pytest.fixture(scope="module")
def replayed():
    """Every argv that tests/replay_argvs.py builds and that names a command."""
    return [argv for library, argv in replay_argvs.argvs().values()
            if not library and argv and argv[0] in build_parser().commands]


def parsed(parse, argv):
    """vars() of parse(argv), or the usage error it raised."""
    try:
        return vars(parse(list(argv)))
    except _UsageError as exc:
        return f"usage error: {exc}"


def main_output(argv):
    """Exit code (SystemExit's for help), stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestOneParse:
    """A command's argv is parsed once, by its own sub-parser, to the job
    the top-level parser made of it."""

    def test_replay_argvs_name_every_command(self, replayed):
        assert len(replayed) > 600
        assert {argv[0] for argv in replayed} == set(REQUIRED)

    def test_command_parser_gives_the_top_level_job(self, replayed):
        for argv in replayed + [a for a in PARSER_EDGE_ARGVS if not HELP & set(a)]:
            assert parsed(parse_argv, argv) == parsed(build_parser().parse_args, argv), argv

    def test_top_level_parse_unused_for_commands(self, monkeypatch, replayed):
        def refuse(*args, **kwargs):
            raise AssertionError("top-level parse_args called")
        monkeypatch.setattr(build_parser(), "parse_args", refuse)
        # the commands' handlers are stubbed: only the route is under test
        for command in build_parser().commands.values():
            monkeypatch.setitem(command._defaults, "fn", lambda args: {})
        for argv in replayed:
            # a stubbed job still writes its output, and the one replayed
            # --out names a directory
            assert main_output(argv)[0] in ((1,) if "--out" in argv else (0, 64)), argv
        with pytest.raises(AssertionError, match="top-level"):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", PARSER_EDGE_ARGVS,
                             ids=[" ".join(a) or "none" for a in PARSER_EDGE_ARGVS])
    def test_usage_and_help_match_top_level_route(self, monkeypatch, argv):
        # both sides in one process: help wraps at the terminal's width
        now = main_output(argv)
        monkeypatch.setattr(build_parser(), "commands", {})
        assert now == main_output(argv)


class TestDeterminism:
    def test_byte_identical_across_runs(self, capsys):
        args = ["nazeta", "--rank", "2", "--convention", "descent",
                "--p", "5", "--curve", "y2=x3+x+1"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second

    def test_byte_identical_across_threads(self, capsys):
        base = ["euler", "--A", "1", "--B", "1", "--rank", "2", "--s", "3+1j",
                "--pmax", "500", "--convention", "descent"]
        _, one = run_cli(base + ["--threads", "1"], capsys)
        _, four = run_cli(base + ["--threads", "4"], capsys)
        assert one == four

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        args = ["artin", "--curve", "y2=x3+x+1", "--p", "5"]
        _, stdout = run_cli(args, capsys)
        out = tmp_path / "artin.json"
        code = main(args + ["--out", str(out)])
        capsys.readouterr()
        assert code == 0
        assert out.read_text() == stdout

    def test_subprocess_entry_point(self, tmp_path):
        # the installed console script path: python -m zetalab.cli
        cmd = [sys.executable, "-m", "zetalab.cli", "artin",
               "--curve", "y2=x3+x+1", "--p", "5"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout


class TestRenderers:
    def test_csv_and_text(self, capsys):
        code, out = run_cli(["andrianov", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        code, out = run_cli(["andrianov", "--format", "text"], capsys)
        assert code == 0
        assert "formal_match" in out
