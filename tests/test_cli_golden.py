"""Byte-for-byte CLI goldens: every subcommand's stdout and exit code.

The expected outputs live in `data/cli_golden.json`.  Refactors of the
library must leave every case unchanged; a deliberate output change means
re-recording with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and reviewing the diff of the JSON file.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from zetalab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
CURVE = ["--curve", "y2=x3+x+1", "--p", "5"]

# (id, argv); paths are relative to the repository root so the echoed
# params do not depend on where the checkout lives
CASES = [
    ("artin", ["artin", *CURVE]),
    ("nazeta_r2_paper", ["nazeta", *CURVE, "--rank", "2", "--convention", "paper"]),
    ("nazeta_r2_descent", ["nazeta", *CURVE, "--rank", "2", "--convention", "descent"]),
    ("nazeta_r3_descent", ["nazeta", "--curve", "y2=x3+2x+3", "--p", "7",
                           "--rank", "3", "--convention", "descent"]),
    ("census_r2_paper", ["census", *CURVE, "--rank", "2", "--convention", "paper"]),
    ("census_r2_descent", ["census", *CURVE, "--rank", "2", "--convention", "descent"]),
    # descent censuses whose group exponent is stripped at l = 2, 3 and 5
    ("census_r3_descent_z6xz18", ["census", "--curve", "y2=x3+1", "--p", "109",
                                  "--rank", "3", "--convention", "descent"]),
    ("census_r3_descent_z8xz16", ["census", "--curve", "y2=x3+x", "--p", "113",
                                  "--rank", "3", "--convention", "descent"]),
    ("census_r2_descent_z10xz10", ["census", "--curve", "y2=x3+x", "--p", "101",
                                   "--rank", "2", "--convention", "descent"]),
    ("census_r3_paper", ["census", "--curve", "y2=x3+1", "--p", "109",
                         "--rank", "3", "--convention", "paper"]),
    ("census_r1", ["census", *CURVE, "--rank", "1"]),
    ("mass", ["mass", "--curve", "y2=x3+4x", "--p", "5"]),
    ("allbundles", ["allbundles", *CURVE, "--order", "6"]),
    ("euler_r2_paper", ["euler", "--A", "-1", "--B", "0", "--rank", "2",
                        "--s", "3", "--pmax", "300", "--convention", "paper"]),
    ("euler_r2_descent", ["euler", "--A", "1", "--B", "1", "--rank", "2",
                          "--s", "3+1j", "--pmax", "300", "--convention", "descent"]),
    ("euler_r1_threads", ["euler", "--A", "1", "--B", "1", "--s", "2.5",
                          "--pmax", "300", "--threads", "2"]),
    ("lattice_r2_reduction", ["lattice", "--lattice", "2 1 / 1 1"]),
    ("lattice_r2_unstable", ["lattice", "--lattice", "0.5 0 / 0 2"]),
    # the basis [[A0, 0], [A0/2, 1/A0]] of the hexagonal point, A0 a
    # rational just off the corner a = sqrt(2/sqrt(3)) of the domain
    ("lattice_r2_hexagonal", ["lattice", "--lattice",
                              "2149139863647/2000000000000 2149139863647/4000000000000"
                              " / 0 2000000000000/2149139863647"]),
    ("lattice_z3_skewed", ["lattice", "--lattice", "1 0 0 / 2 1 0 / 5 2 1"]),
    ("lattice_rank2_destabilizer", ["lattice", "--gram", "1 0 0 / 0 1 0 / 0 0 9"]),
    ("lattice_rank1_first", ["lattice", "--lattice", "1/4 0 0 / 0 1 0 / 0 0 4"]),
    # sheared bases of Z^3 whose input-basis enumeration box is large
    ("lattice_z3_shear_k20", ["lattice", "--lattice", "1 0 0 / 20 1 0 / 401 20 1"]),
    ("lattice_z3_wide_box", ["lattice", "--lattice", "1 3 3 / -3 2 -2 / 3 1 4"]),
    ("lattice_rank4_refused", ["lattice", "--gram",
                               "1 0 0 0 / 0 1 0 0 / 0 0 1 0 / 0 0 0 1"]),
    ("theta_rank4", ["theta", "--gram", "2 1 0 0 / 1 2 1 0 / 0 1 2 1 / 0 0 1 2"]),
    ("xi", ["xi", "--s", "0.3+2j"]),
    # high on the critical line, left of the strip (extra working digits)
    # and right of it
    ("xi_half_t50", ["xi", "--s", "0.5+50j"]),
    ("xi_left", ["xi", "--s=-7.5+20j"]),
    ("xi_right", ["xi", "--s", "4.5+0.25j"]),
    ("explicit_ff", ["explicit-ff", *CURVE, "--count", "10", "--seed", "1"]),
    ("explicit_nf", ["explicit-nf", "--zeros", "tests/data/zeros100.txt",
                     "--K", "50", "--pmax", "2000"]),
    # the K = 100 micro model at the default prime bound: the largest cross
    # pairing any CLI default reaches
    ("explicit_nf_k100", ["explicit-nf", "--zeros", "tests/data/zeros100.txt",
                          "--K", "100", "--mu", "0.1", "--sigma", "0.05"]),
    ("andrianov_text", ["andrianov", "--format", "text"]),
    ("artin_csv", ["artin", *CURVE, "--format", "csv"]),
]


def run_case(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return {"stdout": buf.getvalue(), "exit": code}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_golden(name, argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(argv) == golden[name]


def test_shared_parser_keeps_no_state(golden, monkeypatch, capsys):
    # main parses with one cached parser; interleave commands, the three
    # formats, a usage error and a resource error, twice over, and every
    # call must still give its golden (or its exit code and no stdout)
    monkeypatch.chdir(ROOT)
    cases = dict(CASES)
    errors = {"usage": (["artin", "--curve", "y2=x3+x+1"], 64),
              "resource": (["euler", "--A", "1", "--B", "1", "--s", "3",
                            "--pmax", "2000000"], 2)}
    order = ["artin", "usage", "artin_csv", "xi", "resource", "andrianov_text",
             "nazeta_r2_descent", "usage", "lattice_rank4_refused",
             "euler_r1_threads", "theta_rank4", "resource", "artin"]
    for name in order * 2:
        if name in errors:
            argv, code = errors[name]
            assert run_case(argv) == {"stdout": "", "exit": code}, name
            assert capsys.readouterr().err.startswith(f"{name} error: ")
        else:
            assert run_case(cases[name]) == golden[name], name
            err = capsys.readouterr().err
            assert (err == "") == (golden[name]["exit"] == 0), name


def record():
    os.chdir(ROOT)
    results = {name: run_case(argv) for name, argv in CASES}
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_golden.py --record")
    record()
