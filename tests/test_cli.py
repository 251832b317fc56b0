"""CLI contract: subcommands, n-range syntax, output formats, exit codes,
and byte-level reproducibility."""

import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from spheremin.cli import (
    EXIT_HYPOTHESIS,
    EXIT_NONCONVERGENT,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VERIFY_FAILED,
    CliParseError,
    main,
    parse_distribution,
    parse_n_range,
)
from spheremin.minima import nmin
from spheremin import transfer
from spheremin.transfer import Estimate, builtin_function, sphere_mean_direct


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_distributions(self):
        assert parse_distribution("half-normal").name == "half-normal"
        assert parse_distribution("exponential:2.5").density_at_zero == 2.5
        assert parse_distribution("uniform01").support_upper == 1.0
        assert parse_distribution("power-law:2").density_at_zero == 0.0
        assert parse_distribution("heavy-tail:0.5").density_at_zero == 0.5

    @pytest.mark.parametrize("bad", ["gaussian", "exponential", "exponential:abc",
                                     "heavy-tail:-1", "half-normal:3", "uniform01:abc"])
    def test_bad_distribution(self, bad):
        with pytest.raises(CliParseError):
            parse_distribution(bad)

    def test_n_range_multiplicative(self):
        assert parse_n_range("10:100000:x10") == [10, 100, 1000, 10000, 100000]

    def test_n_range_additive(self):
        assert parse_n_range("1:10:3") == [1, 4, 7, 10]
        assert parse_n_range("1:10:+3") == [1, 4, 7, 10]

    @pytest.mark.parametrize("bad", ["10:1:x10", "0:5:1", "1:10", "a:b:c", "1:10:x1", "1:10:++3"])
    def test_bad_n_range(self, bad):
        with pytest.raises(CliParseError):
            parse_n_range(bad)


class TestCommands:
    def test_emin_n1(self, capsys):
        code, out, _ = run(["emin", "--n", "1", "--format", "csv"], capsys)
        assert code == EXIT_OK
        header, row = out.strip().splitlines()
        assert header == "n,value,error_bound,method"
        fields = row.split(",")
        assert fields[0] == "1"
        assert float(fields[1]) == pytest.approx(1.0, abs=1e-12)
        assert fields[3] == "quadrature"

    def test_emin_n1_meets_a_tight_tol(self, capsys):
        # nmin is asked for tol / 1.77 at n = 1, so the scaled bound meets tol
        code, out, err = run(["emin", "--n", "1", "--tol", "1e-13", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert err == ""
        assert float(out.splitlines()[1].split(",")[2]) <= 1e-13

    def test_expected_min_exponential(self, capsys):
        code, out, _ = run(
            ["expected-min", "--dist", "exponential:1", "--n", "7", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        value = float(out.strip().splitlines()[1].split(",")[1])
        assert value == pytest.approx(0.14285714285714285, abs=1e-10)

    def test_asymptotic_output(self, capsys):
        code, out, _ = run(
            ["asymptotic", "--dist", "exponential:2", "--n", "9", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[1]) == 0.05
        assert fields[2] == "unknown"
        assert fields[3] == "asymptotic"

    def test_json_format(self, capsys):
        code, out, _ = run(["nmin", "--n", "2", "--format", "json"], capsys)
        assert code == EXIT_OK
        rows = json.loads(out)
        assert rows[0]["n"] == 2
        assert rows[0]["value"] == pytest.approx(0.3304946062926472, abs=1e-9)

    def test_json_writes_an_overflowed_value_as_a_string(self, capsys):
        # 1/(f(0)(n+1)) overflows; JSON has no Infinity, so the value is the
        # "inf" that csv and table print
        code, out, _ = run(["asymptotic", "--dist", "exponential:1e-320", "--n", "1",
                            "--format", "json"], capsys)
        assert code == EXIT_OK

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        rows = json.loads(out, parse_constant=reject)
        assert rows == [{"n": 1, "value": "inf", "error_bound": "unknown", "method": "asymptotic"}]

    def test_sweep_scaled_column(self, capsys):
        code, out, _ = run(
            ["sweep", "--command", "nmin", "--n-range", "10:1000:x10",
             "--columns", "n,value,scaled", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,scaled"
        assert len(lines) == 4
        for line in lines[1:]:
            n, value, scaled = line.split(",")
            assert float(scaled) == pytest.approx((int(n) + 1) * float(value), rel=1e-15)

    @pytest.mark.parametrize("fmt", ["csv", "json", "table"])
    @pytest.mark.parametrize("command, flags", [
        ("emin", ["--n-range", "1:20:5", "--tol", "1e-12"]),
        ("nmin", ["--n-range", "1:1000:x10"]),
        # rows that miss --tol: the warning line and exit 3
        ("expected-min", ["--dist", "exponential:1e-8", "--n-range", "1:3:1"]),
        ("asymptotic", ["--dist", "heavy-tail:2", "--n-range", "1:20:5"]),
    ])
    def test_sweep_is_its_route(self, command, flags, fmt, capsys):
        flags = flags + ["--format", fmt]
        direct = run([command] + flags, capsys)
        swept = run(["sweep", "--command", command,
                     "--columns", "n,value,error_bound,method"] + flags, capsys)
        assert swept == direct
        assert direct[0] == (EXIT_NONCONVERGENT if command == "expected-min" else EXIT_OK)

    def test_sphere_mean(self, capsys):
        code, out, _ = run(
            ["sphere-mean", "--fn", "sum-squares", "--n", "5",
             "--samples", "1000", "--seed", "1", "--format", "csv"],
            capsys,
        )
        assert code == EXIT_OK
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[2]) == 1.0
        assert float(fields[3]) == 0.0


class TestExitCodes:
    def test_parse_error_missing_n(self, capsys):
        code, _, err = run(["emin"], capsys)
        assert code == EXIT_PARSE_ERROR
        assert "error" in err

    def test_parse_error_bad_subcommand(self, capsys):
        assert run(["frobnicate"], capsys)[0] == EXIT_PARSE_ERROR

    def test_parse_error_bad_tol(self, capsys):
        assert run(["emin", "--n", "1", "--tol", "0.5"], capsys)[0] == EXIT_PARSE_ERROR

    def test_nonconvergent(self, capsys):
        code, _, err = run(
            ["expected-min", "--dist", "heavy-tail:0.5", "--n", "1"], capsys
        )
        assert code == EXIT_NONCONVERGENT

    def test_unconverged_row_warns(self, capsys):
        # every row is written; one warning line, and exit 3
        argv = ["expected-min", "--dist", "exponential:1e-8", "--n-range", "1:3:1",
                "--format", "csv"]
        code, out, err = run(argv, capsys)
        assert code == EXIT_NONCONVERGENT
        assert len(out.strip().splitlines()) == 4
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:")

    def test_verify_fails_unconverged_quadrature(self, capsys):
        # at tol 1e-18 several quadrature values are right but unconverged
        code, out, _ = run(["verify", "--tol", "1e-18", "--samples", "2000"], capsys)
        assert code == EXIT_VERIFY_FAILED
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert failed and all(line.endswith(" converged=False") for line in failed)
        assert out.splitlines()[-1].startswith("FAILED")

    def test_verify_fails_a_sphere_mean_apart_at_zero_spread(self, monkeypatch, capsys):
        # the direct route's point moved by 0.5 with no standard error: a
        # zero spread agrees only where the two numbers are equal
        def shifted(f, n, samples, seed):
            est = sphere_mean_direct(f, n, samples, seed)
            return Estimate(est.point + 0.5, 0.0, est.samples)

        monkeypatch.setattr(transfer, "sphere_mean_direct", shifted)
        code, out, _ = run(["verify", "--seed", "1", "--samples", "2000"], capsys)
        assert code == EXIT_VERIFY_FAILED
        lines = [line for line in out.splitlines() if "sphere-vs-quadrature" in line]
        assert len(lines) == 3
        assert all(line.startswith("FAIL ") and line.endswith(" z=inf") for line in lines)

    def test_hypothesis_violated(self, capsys):
        code, _, err = run(
            ["asymptotic", "--dist", "power-law:2", "--n", "10"], capsys
        )
        assert code == EXIT_HYPOTHESIS
        assert "density" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--tol", "0.5"],
        ["verify", "--samples", "1"],
        ["emin", "--n", "0"],
        ["sphere-mean", "--n", "3", "--samples", "1"],
        ["sphere-mean", "--n", "3", "--tol", "1e-8"],
        ["sphere-mean", "--n", "3", "--fn", "nope"],
        ["emin", "--n", "1", "--output", "."],
        ["verify", "--seed", "-1"],
        ["sphere-mean", "--n", "3", "--seed", "-1"],
        ["emin", "--n", "1" + "0" * 400],  # n beyond the largest float
        # a parameter or a column list that would be dropped
        ["expected-min", "--n", "3", "--dist", "half-normal:3"],
        ["expected-min", "--n", "3", "--dist", "uniform01:abc"],
        ["sweep", "--command", "emin", "--n", "3", "--columns", ","],
        ["sweep", "--command", "emin", "--n", "3", "--columns", "n,nope"],
        ["verify", "--seed", "abc"],
        # a route that needs an option sweep was not given
        ["sweep", "--command", "expected-min", "--n", "3"],
        # an option that sweep's route does not read
        ["sweep", "--command", "emin", "--dist", "exponential:1", "--n", "3"],
        ["sweep", "--command", "asymptotic", "--dist", "half-normal", "--n", "3",
         "--tol", "1e-5"],
        ["sweep", "--command", "emin", "--n", "3", "--tol", "0"],
    ])
    def test_bad_value_is_a_parse_error(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == EXIT_PARSE_ERROR
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        if "--seed" in argv:
            assert "--seed" in errors[0]


class TestReproducibilityAndRoundTrip:
    def test_identical_config_identical_bytes(self, capsys):
        argv = ["sphere-mean", "--fn", "min-abs", "--n", "3",
                "--samples", "20000", "--seed", "9", "--format", "csv"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_csv_round_trip_exact(self, capsys):
        _, out, _ = run(["nmin", "--n-range", "1:5:1", "--format", "csv"], capsys)
        for line in out.strip().splitlines()[1:]:
            n_str, value_str, bound_str, _ = line.split(",")
            n = int(n_str)
            assert float(value_str) == nmin(n).value  # 17 sig digits round-trip
            assert math.isfinite(float(bound_str))

    def test_sphere_mean_rows_use_spawned_seeds(self, capsys):
        # row i of an n-range is seeded by child i of SeedSequence(--seed)
        _, out, _ = run(["sphere-mean", "--n-range", "2:6:1", "--samples", "1000",
                         "--seed", "3", "--format", "csv"], capsys)
        rows = out.strip().splitlines()[1:]
        children = np.random.SeedSequence(3).spawn(5)
        assert len(rows) == 5
        for i, line in enumerate(rows):
            n, _, point, std_error, _ = line.split(",")
            est = sphere_mean_direct(builtin_function("min-abs"), int(n), 1000, children[i])
            assert (int(n), float(point), float(std_error)) == (i + 2, est.point, est.std_error)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            ["emin", "--n", "2", "--format", "csv", "--output", str(target)], capsys
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("n,value")


class TestPinnedOutput:
    # the stdout of the emin sweep, of verify and of a sphere-mean sweep, and
    # nmin's bits at large n, frozen: a change to the quadrature or to the
    # Monte Carlo stream that moves them changes the output contract

    def test_emin_sweep_digest(self, capsys):
        code, out, _ = run(["sweep", "--command", "emin", "--n-range", "1:1000:1",
                            "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ffa348188bfd4719ad552ff29d506a4c0f1afedafb97bdf7942107652d87da70")

    def test_verify_digest(self, capsys):
        code, out, _ = run(["verify", "--seed", "42"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a29a6601267cddcf9c16337b65063a62144c3f04856096fab6e7509f5ef85491")

    def test_sphere_mean_sweep_digest(self, capsys):
        code, out, _ = run(["sphere-mean", "--n-range", "2:200:1", "--samples", "500",
                            "--seed", "0", "--format", "csv"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "61ed7d361223ca4624d000af20c067f514afb2c4511f3b97fe6a8ee82f6cf66b")

    @pytest.mark.parametrize("k,bits", [(3, "0x1.d02cb8bbfda7fp-11"), (6, "0x1.dbc9fab81147dp-21"),
                                        (9, "0x1.e73559fa5ad0dp-31"), (12, "0x1.f2e6c291f0e9fp-41")])
    def test_nmin_value_bits(self, k, bits):
        assert nmin(10**k, 1e-10).value.hex() == bits


class TestVerify:
    def test_verify_passes_and_is_deterministic(self, tmp_path):
        argv = ["verify", "--seed", "42", "--samples", "50000"]
        outs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            code = main(argv + ["--output", str(path)])
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert b"OK" in outs[0]
        assert b"FAIL " not in outs[0]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spheremin.cli", "emin", "--n", "1", "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,value")
