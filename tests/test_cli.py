"""Command-line interface: report schema, formats, exit codes."""

import argparse
import csv
import io
import json
import math
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from adelic_zeta import cli, satake

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """The `adelic-zeta ...` lines of the README's "Command line" block."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("adelic-zeta ")]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def radial_report_bytes(p: int, sigma: float, dmax: int) -> float:
    """The estimate `satake radial` refuses on: each entry of size k,
    in satake._radial_sizes' bytes, printed in the dmax - k + 1 rows d >= k."""
    counts, sizes = satake._radial_sizes(sigma, dmax, 2, p)
    return np.arange(dmax + 1, 0, -1) @ (counts * sizes)


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def run_json(capsys, argv):
    """The report of a successful run, parsed as standard JSON: NaN and
    Infinity are refused, as in CI's README step."""
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_refuse_constant)


class TestReports:
    def test_zeta_value_and_schema(self, capsys):
        doc = run_json(capsys, ["lfun", "zeta", "--s", "2"])
        assert doc["schema"] == "adelic-zeta.report.v1"
        assert doc["command"] == "lfun.zeta"
        assert set(doc) == {"schema", "command", "inputs", "outputs", "provenance"}
        assert doc["inputs"]["s"] == {"im": 0.0, "re": 2.0}
        assert abs(doc["outputs"]["value"]["re"] - 1.6449340668482264) < 1e-12
        assert doc["outputs"]["value"]["im"] == 0.0
        assert isinstance(doc["provenance"], list) and doc["provenance"]

    def test_feq_residual(self, capsys):
        doc = run_json(capsys, ["theta", "feq", "--fn", "gaussian", "--t", "0.5"])
        assert doc["outputs"]["residual"] <= 1e-12

    def test_zero_scan_example(self, capsys):
        doc = run_json(capsys, ["polya", "zeros", "--from", "10", "--to", "15"])
        assert doc["outputs"]["count"] == 1
        rho = doc["outputs"]["table"][0]["rho"]
        assert abs(rho - 14.134725141734695) < 1e-6

    def test_spectrum_flags(self, capsys):
        doc = run_json(
            capsys,
            [
                "polya", "spectrum", "--from", "10", "--to", "26",
                "--delta", "3", "--m-pi", "2", "--rule-variant", "inclusive",
            ],
        )
        rows = doc["outputs"]["table"]
        assert doc["outputs"]["count"] == 3
        assert all(r["eig_mult"] == 2 and r["is_eigenvalue"] for r in rows)
        assert all(r["rule_variant"] == "inclusive" for r in rows)

    def test_residual_at_first_zero(self, capsys):
        doc = run_json(
            capsys,
            ["polya", "residual", "--t", "14.134725141734695", "--k", "0"],
        )
        assert doc["outputs"]["residual"] < 1e-6

    def test_trace_matches_library(self, capsys):
        from adelic_zeta import satake

        doc = run_json(capsys, ["satake", "trace", "--chi", "1,0.5", "--d", "20"])
        want = satake.trace_truncated(satake.SatakeParam(2, 2, (1.0, 0.5)), 20)
        got = doc["outputs"]["value"]
        assert abs(complex(got["re"], got["im"]) - complex(want)) < 1e-12

    def test_mellin_and_decay(self, capsys):
        doc = run_json(capsys, ["theta", "mellin", "--fn", "s0", "--p", "2", "--s", "2"])
        assert math.isfinite(doc["outputs"]["value"]["re"])
        doc = run_json(capsys, ["theta", "decay", "--fn", "s0", "--p", "3", "--n", "4"])
        assert doc["outputs"]["constant"] > 0.0

    def test_euler_tail_fields(self, capsys):
        doc = run_json(capsys, ["lfun", "euler", "--which", "zeta", "--s", "2", "--pmax", "1000"])
        assert doc["outputs"]["primes_used"] == 168
        assert 0.0 < doc["outputs"]["tail_log_bound"] < 1e-2
        assert abs(doc["outputs"]["value"]["re"] - math.pi**2 / 6) < 1e-3


# one valid argv tail per operation; the invariant test below fails for an
# operation of the parser that has no entry here
VALID_ARGS = {
    ("lfun", "zeta"): ["--s", "2"],
    ("lfun", "lambda-zeta"): ["--s", "2"],
    ("lfun", "lambda-delta"): ["--s", "6"],
    ("lfun", "euler"): ["--s", "2", "--pmax", "100"],
    ("lfun", "tau"): ["--n", "5"],
    ("theta", "eval"): ["--t", "1"],
    ("theta", "feq"): ["--t", "1"],
    ("theta", "mellin"): ["--s", "2"],
    ("theta", "decay"): ["--n", "2"],
    ("satake", "cosets"): ["--p", "2", "--lambda", "1,0"],
    ("satake", "radial"): ["--dmax", "1"],
    ("satake", "trace"): ["--chi", "1,0.5", "--d", "3"],
    ("polya", "zeros"): ["--from", "10", "--to", "15"],
    ("polya", "spectrum"): ["--from", "10", "--to", "15", "--delta", "3"],
    ("polya", "residual"): ["--t", "14"],
    ("polya", "norm-bound"): ["--a", "0.5", "--delta", "2"],
}


def _subparsers(parser):
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


OPERATIONS = [
    (module, operation, sub)
    for module, ops in _subparsers(cli._build_parser()).items()
    for operation, sub in _subparsers(ops).items()
]


@pytest.mark.parametrize(
    "module, operation, sub", OPERATIONS, ids=[f"{m}.{o}" for m, o, _ in OPERATIONS]
)
def test_report_names_command_and_every_flag(capsys, module, operation, sub):
    doc = run_json(capsys, [module, operation] + VALID_ARGS[module, operation])
    assert doc["command"] == f"{module}.{operation}"
    dests = {a.dest for a in sub._actions if a.option_strings and a.default != argparse.SUPPRESS}
    assert set(doc["inputs"]) == dests - {"format"}


@pytest.mark.parametrize("line", readme_commands())
def test_readme_example_runs(capsys, line):
    code, out, err = run(capsys, shlex.split(line)[1:])
    assert code == 0 and out, (line, err)


class TestFormats:
    def test_tau_csv_table(self, capsys):
        code, out, _ = run(capsys, ["lfun", "tau", "--n", "5", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a_n,n"
        assert lines[1] == "1,1"
        assert lines[2] == "-24,2"
        assert len(lines) == 6

    def test_scalar_csv(self, capsys):
        code, out, _ = run(
            capsys, ["theta", "feq", "--fn", "gaussian", "--t", "2", "--format", "csv"]
        )
        assert code == 0
        header, values = out.strip().splitlines()
        assert header == "residual"
        assert float(values) <= 1e-12

    def test_text_flattening(self, capsys):
        code, out, _ = run(
            capsys,
            ["satake", "cosets", "--p", "2", "--lambda", "1,0", "--format", "text"],
        )
        assert code == 0
        lines = dict(ln.split(" = ", 1) for ln in out.strip().splitlines())
        assert lines["outputs.count"] == "3"
        assert lines["outputs.modulus_delta"] == "1/2"
        assert lines["schema"] == "adelic-zeta.report.v1"

    def test_radial_csv_is_well_formed(self, capsys):
        # the cells hold commas; they are quoted, so every row has the
        # header's width and the value cells equal the JSON report's strings
        args = ["satake", "radial", "--dmax", "3"]
        code, out, _ = run(capsys, args + ["--format", "csv"])
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["total_degree", "value"]
        assert len(rows) == 4 and all(len(r) == 2 for r in rows)
        table = run_json(capsys, args)["outputs"]["table"]
        assert [r[1] for r in rows] == [row["value"] for row in table]

    def test_radial_csv_row_holds_one_scalar_kind(self, capsys):
        # off the half-integers every entry is a complex float, m = 0 too
        code, out, _ = run(capsys, ["satake", "radial", "--sigma", "0.3", "--dmax", "1",
                                    "--format", "csv"])
        assert code == 0
        _, *rows = csv.reader(io.StringIO(out))
        assert [r[1] for r in rows] == [
            "SymLaurent(n=2, {(0, 0): (1+0j)})",
            "SymLaurent(n=2, {(0, 0): (1+0j), (1, 0): (1.148698354997035+0j)})",
        ]

    @pytest.mark.parametrize("p, sigma", [(2, 0.5), (3, 0.25), (5, -1.5)])
    def test_radial_rows_are_the_truncated_tables(self, capsys, p, sigma):
        # each row is the one table to dmax restricted to |mu| <= d, which
        # must equal the library's own table truncated at d
        table = run_json(capsys, ["satake", "radial", "--p", str(p), "--sigma", str(sigma),
                                  "--dmax", "5"])["outputs"]["table"]
        assert [row["value"] for row in table] == [
            str(satake.satake_truncated_radial(sigma, d, p=p)) for d in range(6)
        ]

    @pytest.mark.parametrize("argv", [
        ["theta", "eval", "--fn", "s0", "--p", "3", "--t", "0.7"],
        ["lfun", "euler", "--which", "zeta", "--s", "2+1j", "--pmax", "100"],
        ["polya", "zeros", "--from", "10", "--to", "26"],
        ["polya", "zeros", "--from", "0", "--to", "10"],
    ])
    def test_csv_rows_have_header_width(self, capsys, argv):
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(r) == len(header) for r in rows)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("argv", [
        ["lfun", "zeta", "--s", "2+3j"],
        ["lfun", "tau", "--n", "30"],
        ["theta", "eval", "--fn", "s0", "--p", "3", "--t", "0.7"],
        ["satake", "radial", "--dmax", "2"],
        ["polya", "spectrum", "--from", "10", "--to", "15", "--delta", "3"],
    ])
    def test_each_format_is_byte_identical_across_runs(self, capsys, argv, fmt):
        _, first, _ = run(capsys, argv + ["--format", fmt])
        _, second, _ = run(capsys, argv + ["--format", fmt])
        assert first and first == second

    def test_repeat_runs_are_byte_identical(self, capsys):
        args = ["polya", "norm-bound", "--a", "0.5", "--delta", "2"]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second
        args = ["polya", "zeros", "--from", "10", "--to", "15"]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second


class TestExitCodes:
    def test_pole_is_input_error(self, capsys):
        code, out, err = run(capsys, ["lfun", "zeta", "--s", "1"])
        assert code == 2 and out == "" and err

    def test_bad_window_is_input_error(self, capsys):
        code, _, err = run(capsys, ["polya", "zeros", "--from", "10", "--to", "5"])
        assert code == 2 and err

    @pytest.mark.parametrize("tol", ["nan", "inf", "1e-300"])
    def test_scan_tol_below_float_spacing_refused(self, capsys, tol):
        # the floor is math.ulp(15.0), the float spacing at the window's top
        code, out, err = run(capsys, ["polya", "zeros", "--from", "10", "--to", "15", "--tol", tol])
        assert code == 2 and out == ""
        assert "at least 1.7763568394002505e-15, the float spacing at 15.0" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("argv", [
        ["lfun", "zeta", "--s"],
        ["lfun", "lambda-zeta", "--s"],
        ["lfun", "lambda-delta", "--s"],
        ["lfun", "euler", "--s"],
        ["theta", "mellin", "--s"],
        ["satake", "radial", "--sigma"],
        ["satake", "trace", "--chi"],
        ["polya", "norm-bound", "--delta", "2", "--a"],
        ["polya", "norm-bound", "--a", "0.5", "--delta"],
        ["polya", "spectrum", "--from", "10", "--to", "15", "--delta"],
    ])
    def test_non_finite_number_refused(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "expected a finite" in captured.err

    @pytest.mark.parametrize("argv", [
        ["lfun", "lambda-zeta", "--s", "2", "--tol", "1e-12"],
        ["lfun", "lambda-delta", "--s", "6", "--tol", "1e-12"],
        ["polya", "norm-bound", "--a", "0.5", "--delta", "2", "--trials", "10"],
        ["polya", "norm-bound", "--a", "0.5", "--delta", "2", "--seed", "0"],
        ["lfun", "zeta", "--s", "0.5+50j", "--terms", "5"],
    ])
    def test_removed_options_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_radial_sigma_cap_is_fast(self, capsys):
        # refused before the exact power p^(-2 sigma) is formed
        start = time.perf_counter()
        code, out, err = run(capsys, ["satake", "radial", "--sigma", "1e12", "--dmax", "1"])
        assert code == 2 and out == ""
        assert "|sigma| must be at most 40" in err
        assert time.perf_counter() - start < 0.5

    def test_trace_depth_cap_is_fast(self, capsys):
        # refused before the coefficient list is allocated
        start = time.perf_counter()
        for d in ("1000001", "100000000"):
            code, out, err = run(capsys, ["satake", "trace", "--chi", "0.5,0.3", "--d", d])
            assert code == 2 and out == ""
            assert f"depth d = {d} exceeds the cap 1000000" in err
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("chi, d", [("1e300", "3"), ("2", "1100"), ("1e200,1e200", "3")])
    def test_overflowing_trace_refused(self, capsys, chi, d):
        for fmt in ("json", "csv", "text"):
            code, out, err = run(capsys, ["satake", "trace", "--chi", chi, "--d", d,
                                          "--format", fmt])
            assert code == 2 and out == ""
            assert f"overflows a float at d = {d}, max |chi| = " in err

    def test_largest_finite_trace_prints(self, capsys):
        doc = run_json(capsys, ["satake", "trace", "--chi", "2", "--d", "1000"])
        assert doc["outputs"]["value"] == {"im": 0.0, "re": 2.0**1001}

    def test_radial_float_range_refused(self, capsys):
        # 39.9 * 30 * log10(2) = 360 decades: 2^(39.9 * 30) overflows a float
        code, out, err = run(capsys, ["satake", "radial", "--sigma", "-39.9", "--p", "2",
                                      "--dmax", "30"])
        assert code == 2 and out == ""
        assert "sigma = -39.9, p = 2, d = 30" in err

    @pytest.mark.parametrize("sigma, dmax", [("0.3", "160"), ("-0.3", "140")])
    def test_radial_float_table_past_the_normal_range_refused(self, capsys, sigma, dmax):
        # the weights stay normal, but p^((n-1) m / 2) overflowed (0.3) or
        # the entries printed as inf (-0.3); refused before any power
        start = time.perf_counter()
        code, out, err = run(capsys, ["satake", "radial", "--p", "10007", "--sigma", sigma,
                                      "--dmax", dmax])
        assert code == 2 and out == ""
        assert f"sigma = {sigma}, p = 10007, d = {dmax}: the floats" in err
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("window", [["--from", "0", "--to", "1"],
                                        ["--from", "13", "--to", "15"]])
    @pytest.mark.parametrize("delta", ["0.5", "1", "inf", "nan"])
    def test_spectrum_delta_refused_whatever_the_window_holds(self, capsys, window, delta):
        # the window 0..1 holds no zero, 13..15 holds one
        argv = ["polya", "spectrum", *window, "--delta", delta]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the non-finite values
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert ("delta must exceed 1" if delta in ("0.5", "1") else "expected a finite") \
            in captured.err

    @pytest.mark.parametrize("argv", [
        ["--dmax", "227"],  # 1007285 entries of the default table
        ["--dmax", "10000"],
        # 994175 entries of up to 2721 digits: 1.4 GB, though each stays
        # below the former caps of 10^6 entries and 4000 digits
        ["--p", "2", "--sigma", "-39.5", "--dmax", "226"],
        ["--p", "10007", "--sigma", "-10", "--dmax", "80"],  # 79 MB
        ["--p", "101", "--sigma", "-1.5", "--dmax", "150"],  # 96 MB
    ], ids=["dmax227", "dmax10000", "p2-sigma-39.5-dmax226", "p10007-sigma-10-dmax80",
            "p101-sigma-1.5-dmax150"])
    def test_radial_size_cap_is_fast(self, capsys, argv):
        # refused from the estimate, before any table is built
        start = time.perf_counter()
        code, out, err = run(capsys, ["satake", "radial", *argv])
        assert code == 2 and out == ""
        assert "give a report of more than 32000000 bytes, the most that is printed" in err
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("p, sigma, dmax", [
        (2, 0.5, 226),  # 994175 entries, 23.0 MB printed
        (10007, 20.0, 50),  # 12051 entries of up to 3917 characters, 23.6 MB
    ])
    def test_radial_size_cap_admits_the_largest_former_reports(self, p, sigma, dmax):
        assert radial_report_bytes(p, sigma, dmax) <= satake._MAX_RADIAL_BYTES

    @pytest.mark.parametrize("p, sigma, dmax", [
        (2, 0.5, 226), (2, 0.5, 227), (10007, 20.0, 50), (2, -39.5, 100), (101, -1.5, 30),
        (3, 0.3, 40), (10007, -0.3, 30), (2, 0.5, 0),
    ])
    def test_radial_size_estimate_is_the_rank_two_sum(self, p, sigma, dmax):
        # the k // 2 + 1 dominant mu >= 0 of size k, in dmax - k + 1 rows,
        # each in 32 bytes plus the |1/2 - sigma| k log10(p) digits of its
        # exact power, or in 40 bytes for a float sigma
        digits, frame = ((abs(0.5 - sigma) * math.log10(p), 32) if (2 * sigma).is_integer()
                         else (0.0, 40))
        want = sum((dmax - k + 1) * (k // 2 + 1) * (digits * k + frame)
                   for k in range(dmax + 1))
        assert radial_report_bytes(p, sigma, dmax) == pytest.approx(want, rel=1e-12, abs=0)
        if (p, dmax) == (2, 226):  # 31.81 MB, and 32.04 MB at dmax 227
            assert radial_report_bytes(2, 0.5, 227) > satake._MAX_RADIAL_BYTES >= want

    @pytest.mark.parametrize("p, sigma, dmax", [
        (2, 0.5, 40), (2, 1.0, 40), (10007, 20.0, 20), (101, -1.5, 30),
        (3, 0.3, 40), (10007, -0.3, 30),  # complex floats
    ])
    def test_radial_size_estimate_tracks_the_report(self, capsys, p, sigma, dmax):
        # the printed report lies within 0.65 and 1.05 of the estimate (0.69
        # to 1.0 measured; the default table's short entries are the least)
        code, out, _ = run(capsys, ["satake", "radial", "--p", str(p), "--sigma", str(sigma),
                                    "--dmax", str(dmax)])
        assert code == 0
        assert 0.65 <= len(out) / radial_report_bytes(p, sigma, dmax) <= 1.05

    def test_radial_size_estimate_bounds_the_report(self, capsys, monkeypatch):
        # with the cap at the estimate of the dmax = 12 report, 12 prints in
        # full and 13 is refused
        monkeypatch.setattr(satake, "_MAX_RADIAL_BYTES", radial_report_bytes(2, 0.5, 12))
        table = run_json(capsys, ["satake", "radial", "--dmax", "12"])["outputs"]["table"]
        assert sum(row["value"].count("SqrtP(") for row in table) == 252
        code, out, err = run(capsys, ["satake", "radial", "--dmax", "13"])
        assert code == 2 and out == ""
        assert "--p 2, --sigma 0.5 and --dmax 13 give a report of more than" in err

    def test_radial_negative_dmax_refused(self, capsys):
        code, out, err = run(capsys, ["satake", "radial", "--dmax", "-1"])
        assert code == 2 and out == ""
        assert "--dmax must be >= 0 (got -1)" in err

    def test_radial_digit_cap_is_fast(self, capsys):
        # the longest exact entry, p^((1/2 - sigma) dmax) or its inverse,
        # would have about 39.5 * 30 * log10(10007) = 4740 digits; refused
        # before any table is computed
        start = time.perf_counter()
        code, out, err = run(capsys, ["satake", "radial", "--sigma", "40", "--p", "10007",
                                      "--dmax", "30"])
        assert code == 2 and out == ""
        assert "sigma = 40.0, p = 10007, d = 30, rank 2" in err
        assert "at most 4000" in err
        assert time.perf_counter() - start < 0.5
        # 20.5 * 50 * log10(10007) = 4100 digits: its entries p^(20.5 * 50)
        # print in 4115 characters
        code, out, err = run(capsys, ["satake", "radial", "--sigma", "-20", "--p", "10007",
                                      "--dmax", "50"])
        assert code == 2 and out == ""
        assert "about 4100 digits; at most 4000" in err

    def test_radial_just_below_the_digit_cap_prints(self, capsys):
        # about 39.5 * 24 * log10(10007) = 3792 digits: the exact table
        # prints in full
        table = run_json(capsys, ["satake", "radial", "--sigma", "40", "--p", "10007",
                                  "--dmax", "24"])["outputs"]["table"]
        assert len(table) == 25
        # 19.5 * 50 * log10(10007) = 3900 digits: the entries p^(-19.5 * 50)
        # print in 3917 characters
        table = run_json(capsys, ["satake", "radial", "--sigma", "20", "--p", "10007",
                                  "--dmax", "50"])["outputs"]["table"]
        assert len(table) == 51

    @pytest.mark.parametrize("argv", [
        ["theta", "eval", "--fn", "s0", "--t", "0.7"],
        ["theta", "feq", "--fn", "s0", "--t", "0.7"],
        ["theta", "mellin", "--fn", "s0", "--s", "0.3+2j"],
        ["theta", "decay", "--fn", "s0", "--n", "2"],
        ["satake", "cosets", "--lambda", "1,0"],
        ["satake", "radial"],
        ["satake", "trace", "--chi", "0.5,0.3"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_large_prime_refused_fast(self, capsys, argv):
        # the Mersenne prime 2^89 - 1: trial division to its square root
        # would not end; refused before any division
        start = time.perf_counter()
        code, out, err = run(capsys, [*argv, "--p", str(2**89 - 1)])
        assert code == 2 and out == ""
        assert "p must be a prime integer of at most 1000000000" in err
        assert time.perf_counter() - start < 0.5

    def test_large_coset_enumeration_is_fast(self, capsys):
        # (7919 + 1) * 7919^3 representatives; refused before any is built
        start = time.perf_counter()
        code, out, err = run(capsys, ["satake", "cosets", "--p", "7919", "--lambda", "4,0"])
        assert code == 2 and out == ""
        assert "p = 7919, lambda = (4, 0)" in err
        assert time.perf_counter() - start < 0.5
        doc = run_json(capsys, ["satake", "cosets", "--p", "7", "--lambda", "3,0"])
        assert doc["outputs"]["count"] == 392

    @pytest.mark.parametrize(
        "s", ["0.5+1000j", "-15", "-1.01+3j", "0.5+150.01j", "2-150.01j", "1.01e15"]
    )
    def test_zeta_outside_window_refused(self, capsys, s):
        code, out, err = run(capsys, ["lfun", "zeta", "--s=" + s])
        assert code == 2 and out == ""
        assert "-1 <= Re s <= 1e15, |Im s| <= 150" in err

    @pytest.mark.parametrize("s", ["-1", "-1+150j", "0.5-150j", "1e15"])
    def test_zeta_accepted_on_window_edges(self, capsys, s):
        doc = run_json(capsys, ["lfun", "zeta", "--s=" + s])
        assert math.isfinite(doc["outputs"]["value"]["re"])

    def test_scan_grid_over_the_cap_refused(self, capsys):
        # 50 / 5e-5 cells make 1000001 nodes, one over the cap
        start = time.perf_counter()
        code, out, err = run(
            capsys, ["polya", "zeros", "--from", "0", "--to", "50", "--step", "5e-5"]
        )
        assert code == 2 and out == ""
        assert "more than 1000000 grid nodes" in err
        assert time.perf_counter() - start < 0.5

    def test_direct_mellin_domain(self, capsys):
        # the direct route lives in the tests; its flag is an unknown option
        with pytest.raises(SystemExit) as exc:
            cli.main(["theta", "mellin", "--fn", "gaussian", "--s", "3.7", "--method", "direct"])
        assert exc.value.code == 2

    def test_strict_literal_variant_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["polya", "spectrum", "--from", "10", "--to", "15", "--delta", "3",
                      "--rule-variant", "strict-literal"])
        assert exc.value.code == 2

    def test_pole_guard(self, capsys):
        code, _, _ = run(capsys, ["theta", "mellin", "--fn", "gaussian", "--s", "0.52"])
        assert code == 2

    def test_argparse_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lfun", "nope"])
        assert exc.value.code == 2

    def test_nonconvergence_is_runtime_error(self, capsys):
        # the lattice-sum guard refuses before the loop starts
        start = time.perf_counter()
        code, _, err = run(capsys, ["theta", "eval", "--fn", "gaussian", "--t", "1e-300"])
        assert code == 3 and err
        assert time.perf_counter() - start < 0.5

    def test_refusal_is_fast_for_every_degree(self, capsys):
        # the stopping index includes the max(1, x)^deg factor of the term
        # bound, so a scale just past the cap is refused without summing
        start = time.perf_counter()
        code, _, err = run(capsys, ["theta", "eval", "--fn", "s0", "--p", "2", "--t", "7.3e-7"])
        assert code == 3 and err
        assert time.perf_counter() - start < 0.5

    def test_long_lattice_sums_run_in_chunks(self, capsys):
        # ~5.5M lattice terms; the counts are those of the term-by-term loop
        start = time.perf_counter()
        doc = run_json(capsys, ["theta", "eval", "--fn", "s0", "--p", "2", "--t", "1e-6"])
        assert time.perf_counter() - start < 1.0
        assert doc["outputs"]["term_counts"] == [[1.0, 3675491], [2.0, 1837746]]
        assert doc["outputs"]["truncation_radius"] == 3675492.0

    @pytest.mark.parametrize("s", ["0.5+200j", "0.5-60.5j", "41.5", "-40.5+3j"])
    def test_lambda_zeta_outside_window_refused(self, capsys, s):
        code, out, err = run(capsys, ["lfun", "lambda-zeta", "--s=" + s])
        assert code == 2 and out == ""
        assert "|Re s| <= 41, |Im s| <= 60, |1 - Re s| <= 41" in err

    @pytest.mark.parametrize("s", ["6+50.5j", "6-51j", "52+1j", "-28.5", "-41"])
    def test_lambda_delta_outside_window_refused(self, capsys, s):
        code, out, err = run(capsys, ["lfun", "lambda-delta", "--s=" + s])
        assert code == 2 and out == ""
        assert "|Im s| <= 50" in err

    def test_completed_functions_accepted_on_window_edges(self, capsys):
        for argv in (
            ["lfun", "lambda-zeta", "--s=0.5+60j"],
            ["lfun", "lambda-zeta", "--s=-40"],
            ["lfun", "lambda-delta", "--s=6-50j"],
            ["lfun", "lambda-delta", "--s=-28+2j"],
            ["lfun", "lambda-delta", "--s=40"],
        ):
            doc = run_json(capsys, argv)
            assert math.isfinite(doc["outputs"]["value"]["re"])

    @pytest.mark.parametrize(
        "kind, t, k",
        [("delta", "49.999", "1"), ("zeta", "59.999", "2"), ("zeta", "70", "0"),
         ("delta", "-50.5", "0")],
    )
    def test_residual_outside_window_names_t(self, capsys, kind, t, k):
        # the 5-point stencil reaches t +- 2e-3; the refusal names the
        # user's t and k and the window, never an s the user did not pass
        code, out, err = run(
            capsys, ["polya", "residual", "--kind", kind, "--t", t, "--k", k]
        )
        assert code == 2 and out == ""
        t_max = "60" if kind == "zeta" else "50"
        assert f"t = {float(t)} with k = {k}" in err
        assert f"{kind} window |t| <= {t_max}" in err
        assert "s =" not in err

    def test_residual_stencil_on_window_edge_accepted(self, capsys):
        for kind, t in (("delta", "49.998"), ("zeta", "59.998")):
            doc = run_json(capsys, ["polya", "residual", "--kind", kind, "--t", t, "--k", "1"])
            assert math.isfinite(doc["outputs"]["residual"])

    @pytest.mark.parametrize(
        "which, pmax, limit", [("delta", "200000", "100000"), ("zeta", "500000", "400000")]
    )
    def test_pmax_refusal_names_the_flag(self, capsys, which, pmax, limit):
        code, out, err = run(
            capsys, ["lfun", "euler", "--which", which, "--s", "7", "--pmax", pmax]
        )
        assert code == 2 and out == ""
        assert "--pmax" in err and limit in err
        assert "n must" not in err and "sieve" not in err
