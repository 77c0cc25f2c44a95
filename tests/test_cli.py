"""Command-line interface: report schema, formats, exit codes."""

import json
import math
import time

import pytest

from adelic_zeta import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestReports:
    def test_zeta_value_and_schema(self, capsys):
        doc = run_json(capsys, ["lfun", "zeta", "--s", "2"])
        assert doc["schema"] == "adelic-zeta.report.v1"
        assert doc["command"] == "lfun.zeta"
        assert doc["backend"] == cli.BACKEND
        assert doc["inputs"]["s"] == {"im": 0.0, "re": 2.0}
        assert doc["inputs"]["terms"] == 100
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

    def test_repeat_runs_are_byte_identical(self, capsys):
        args = ["polya", "norm-bound", "--a", "0.5", "--delta", "2", "--trials", "3"]
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

    def test_direct_mellin_domain(self, capsys):
        code, _, _ = run(
            capsys,
            ["theta", "mellin", "--fn", "gaussian", "--s", "0.3", "--method", "direct"],
        )
        assert code == 2

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

    @pytest.mark.parametrize("s", ["0.5+200j", "0.5-60.5j", "41", "-40.5+3j"])
    def test_lambda_zeta_outside_window_refused(self, capsys, s):
        code, out, err = run(capsys, ["lfun", "lambda-zeta", "--s=" + s])
        assert code == 2 and out == ""
        assert "|Re s| <= 40, |Im s| <= 60" in err

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
        "which, pmax, limit", [("delta", "200000", "100000"), ("zeta", "500000", "400000")]
    )
    def test_pmax_refusal_names_the_flag(self, capsys, which, pmax, limit):
        code, out, err = run(
            capsys, ["lfun", "euler", "--which", which, "--s", "7", "--pmax", pmax]
        )
        assert code == 2 and out == ""
        assert "--pmax" in err and limit in err
        assert "n must" not in err and "sieve" not in err
