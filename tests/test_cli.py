import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PAULI_X, PAULI_Z, random_density, random_hermitian

from hobs import (DensityMatrix, EigensolverFailure, EvaluationError, HermiticityViolation, NonFiniteInput, NotAProjector,
                  SampleStream, ZeroInput, ensemble_from_density)
from hobs.cli import _digest, _emit_report, _load_complex, cli


def write_matrix(path, matrix):
    data = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, dtype=complex)]
    path.write_text(json.dumps(data))
    return str(path)


def write_vector(path, vector):
    data = [[float(z.real), float(z.imag)] for z in np.asarray(vector, dtype=complex)]
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    return {
        "identity": write_matrix(tmp_path / "identity.json", np.eye(2)),
        "signs": write_matrix(tmp_path / "signs.json", np.diag([-1.0, 1.0])),
        "pauli_x": write_matrix(tmp_path / "pauli_x.json", PAULI_X),
        "pauli_z": write_matrix(tmp_path / "pauli_z.json", PAULI_Z),
        "mixed": write_matrix(tmp_path / "mixed.json", np.eye(2) / 2),
        "diag37": write_matrix(tmp_path / "diag37.json", np.diag([0.3, 0.7])),
        "diag12": write_matrix(tmp_path / "diag12.json", np.diag([1.0, 2.0])),
        "diag55": write_matrix(tmp_path / "diag55.json", np.diag([5.0, 5.0])),
        "vector": write_vector(tmp_path / "vector.json", [1.0, 0.0]),
        "non_hermitian": write_matrix(tmp_path / "bad.json", [[0.0, 1.0], [0.0, 0.0]]),
        "dim3": write_matrix(tmp_path / "dim3.json", np.eye(3)),
        "hermitian": write_matrix(tmp_path / "hermitian.json", random_hermitian(np.random.default_rng(5), 4).entries),
    }


def report_of(result):
    return json.loads(result.output)


def documented_digest(paths, config):
    """The inputs digest recomputed from its definition in the hobs.cli docstring."""
    h = hashlib.sha256()
    for path in paths:
        with open(path) as f:
            pairs = np.asarray(json.load(f), dtype="<f8")
        h.update(pairs.ndim.to_bytes(8, "big"))
        for n in pairs.shape:
            h.update(n.to_bytes(8, "big"))
        h.update(pairs.tobytes(order="C"))
    text = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    h.update(len(text).to_bytes(8, "big"))
    h.update(text)
    return h.hexdigest()


def digest_config(command, **options):
    """The digest config of one report command: its name and each of its options that can change its output."""
    return {**options, "command": command}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_report(text):
    """Parse a report with a parser that rejects NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class TestVerifyTrace:
    def test_identity_against_mixed(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["identity"], files["mixed"], "x", "--samples", "1000"])
        assert result.exit_code == 0, result.output
        report = report_of(result)
        assert report["pass"] is True
        assert report["results"]["trace"] == pytest.approx(1.0, abs=1e-12)
        assert report["results"]["exact_classical_mean"] == pytest.approx(1.0, abs=1e-12)
        assert report["command"] == "verify-trace"
        assert report["caveats"]

    def test_balanced_signs_all_zero(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["signs"], files["mixed"], "x", "--samples", "5000"])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["results"]["trace"] == pytest.approx(0.0, abs=1e-12)
        assert report["results"]["exact_gap"] <= 1e-12

    def test_involution_square_is_one(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["pauli_x"], files["diag37"], "x^2", "--samples", "1000"])
        assert result.exit_code == 0
        assert report_of(result)["results"]["trace"] == pytest.approx(1.0, abs=1e-12)

    def test_huge_integrand_on_a_zero_weight_piece(self, runner, tmp_path):
        # D puts no weight on T's eigenvalue 1, where 1e200*x would overflow the squared offset
        t = write_matrix(tmp_path / "T.json", np.diag([0.0, 1.0]))
        d = write_matrix(tmp_path / "D.json", np.diag([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["verify-trace", t, d, "1e200*x"])
        assert result.exit_code == 0, result.output
        report = report_of(result)
        assert report["pass"] is True
        assert [report["results"][key] for key in ("mc_mean", "mc_std_error", "mc_z_score")] == [0.0, 0.0, 0.0]

    def test_value_near_largest_double_on_the_spectrum(self, runner, tmp_path):
        # b(T) = diag(0, 1.7e308): its symmetrization overflows unless each term is halved first
        t = write_matrix(tmp_path / "T.json", np.diag([0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["verify-trace", t, t, "1.7e308*x", "--samples", "100"])
        assert result.exit_code == 0, result.output
        report = strict_report(result.output)
        assert report["pass"] is True and report["results"]["trace"] == 1.7e308

    def test_report_keys_sorted(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["identity"], files["mixed"], "x", "--samples", "100"])
        keys = list(json.loads(result.output).keys())
        assert keys == sorted(keys)
        rkeys = list(json.loads(result.output)["results"].keys())
        assert rkeys == sorted(rkeys)

    def test_dimension_mismatch_is_input_error(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["dim3"], files["mixed"], "x"])
        assert result.exit_code == 2

    def test_non_hermitian_operator_rejected(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["non_hermitian"], files["mixed"], "x"])
        assert result.exit_code == 2

    def test_non_density_rejected(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["identity"], files["diag12"], "x"])
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"Error: {files['diag12']}: density matrix trace 3.0 != 1"]

    def test_huge_skew_density_rejected_without_overflow(self, runner, files, tmp_path):
        # the skew part would overflow an unscaled norm into an inf <= inf pass, and D be read as I/2
        d = write_matrix(tmp_path / "D.json", [[0.5, 1e200], [-1e200, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["verify-trace", files["pauli_x"], d, "x"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            f"Error: {d}: matrix is not Hermitian within tolerance (skew Frobenius norm 1.414e+200)"]

    def test_density_hermiticity_is_the_operator_rule(self, runner, files, tmp_path):
        # a skew part of Frobenius norm 7.07e-13 is within validate_hermitian's 1e-12 relative tolerance, so D is
        # a density matrix for verify-trace as it is for support and sample; three times that skew is rejected by both
        d = write_matrix(tmp_path / "D.json", [[0.5, 0.1 + 0.5e-12j], [0.1 + 0.5e-12j, 0.5]])
        result = runner.invoke(cli, ["verify-trace", files["pauli_x"], d, "x", "--samples", "1000"])
        assert result.exit_code == 0, result.output
        assert runner.invoke(cli, ["sample", d, "--samples", "3"]).exit_code == 0
        far = write_matrix(tmp_path / "far.json", [[0.5, 0.1 + 1.5e-12j], [0.1 + 1.5e-12j, 0.5]])
        for args in (["verify-trace", files["pauli_x"], far, "x", "--samples", "1000"], ["support", far]):
            result = runner.invoke(cli, args)
            assert result.exit_code == 2, result.output
            assert "not Hermitian within tolerance" in result.output

    def test_huge_hermitian_density_rejected_without_overflow(self, runner, files, tmp_path):
        # (D + D^H)/2 would overflow to inf here; the negative eigenvalue -1e308 is the fault to report
        d = write_matrix(tmp_path / "D.json", [[0.5, 1e308], [1e308, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["verify-trace", files["pauli_x"], d, "x"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [f"Error: {d}: density matrix has negative eigenvalue -1.000e+308"]

    def test_bad_expression_rejected(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["identity"], files["mixed"], "x /"])
        assert result.exit_code == 2

    def test_missing_file(self, runner, files, tmp_path):
        result = runner.invoke(cli, ["verify-trace", str(tmp_path / "nope.json"), files["mixed"], "x"])
        assert result.exit_code == 2

    def test_seed_changes_digest_and_mc_only(self, runner, files):
        args = ["verify-trace", files["identity"], files["mixed"], "x", "--samples", "500"]
        r1 = runner.invoke(cli, args + ["--seed", "1"])
        r2 = runner.invoke(cli, args + ["--seed", "2"])
        assert report_of(r1)["inputs_digest"] != report_of(r2)["inputs_digest"]
        assert report_of(r1)["results"]["trace"] == report_of(r2)["results"]["trace"]

    def test_deterministic_across_runs_and_workers(self, runner, files):
        args = ["verify-trace", files["pauli_x"], files["diag37"], "x^2 - x", "--samples", "20000", "--seed", "9"]
        base = runner.invoke(cli, args + ["--workers", "1"]).output
        again = runner.invoke(cli, args + ["--workers", "1"]).output
        wide = runner.invoke(cli, args + ["--workers", "4"]).output
        assert base == again == wide


    def test_inputs_digest_unchanged(self, runner, files):
        # the digest hashes the parsed float64 [re, im] arrays and the config; this value pins its bytes
        result = runner.invoke(cli, ["verify-trace", files["identity"], files["mixed"], "x", "--samples", "100"])
        digest = report_of(result)["inputs_digest"]
        assert digest == "f6419de9e75ad4c79ccfb2039173d33593ae5cf9f4d1d22f1d8b6f2826efb0a7"
        config = digest_config("verify-trace", b="x", samples=100, seed=0, tol=1e-8)
        assert digest == documented_digest([files["identity"], files["mixed"]], config)

    def test_large_offset_passes_with_sound_std_error(self, runner, tmp_path):
        t = write_matrix(tmp_path / "T.json", np.diag(1e8 + np.arange(4.0)))
        d = write_matrix(tmp_path / "D.json", np.eye(4) / 4)
        result = runner.invoke(cli, ["verify-trace", t, d, "x", "--samples", "1000000", "--seed", "1"])
        assert result.exit_code == 0, result.output
        results = strict_report(result.output)["results"]
        assert results["mc_std_error"] == pytest.approx(math.sqrt(1.25 / 1e6), rel=1e-2)
        assert results["mc_z_score"] <= 4.0

    def test_non_finite_std_error_fails(self, runner, tmp_path, files):
        t = write_matrix(tmp_path / "T.json", np.diag([1e300, -1e300]))
        result = runner.invoke(cli, ["verify-trace", t, files["mixed"], "x", "--samples", "1000"])
        assert result.exit_code == 1, result.output
        report = strict_report(result.output)
        assert report["pass"] is False
        assert report["results"]["mc_std_error"] is None
        assert "results.mc_std_error" in report["caveats"][-1]

    def test_expression_overflowing_on_spectrum_is_input_error(self, runner, tmp_path):
        t = write_matrix(tmp_path / "T.json", np.diag(1e8 + np.arange(4.0)))
        d = write_matrix(tmp_path / "D.json", np.eye(4) / 4)
        result = runner.invoke(cli, ["verify-trace", t, d, "((x^9)^9)^9", "--samples", "100"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == ["Error: bad expression: function takes a non-finite value on the spectrum"]

    @given(
        dim=st.integers(2, 6),
        expression=st.sampled_from(["x", "x^2", "clamp(-1, 1)"]),
        change=st.one_of(
            st.tuples(st.just("shift"), st.floats(-1e8, 1e8)),
            st.tuples(st.just("scale"), st.floats(-6.0, 6.0).map(lambda e: 10.0**e)),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_shifted_and_scaled_operators_pass(self, dim, expression, change, seed):
        # T + cI and s*T keep the identity exact; the exact gap is judged at the
        # scale of b on the spectrum, so rounding at large magnitudes is no failure
        rng = np.random.default_rng(seed)
        kind, amount = change
        T = random_hermitian(rng, dim).entries
        T = T + amount * np.eye(dim) if kind == "shift" else amount * T
        with tempfile.TemporaryDirectory() as tmp:
            t = write_matrix(Path(tmp) / "T.json", T)
            d = write_matrix(Path(tmp) / "D.json", random_density(rng, dim).entries)
            args = ["verify-trace", t, d, expression, "--samples", "2000", "--seed", str(seed)]
            result = CliRunner().invoke(cli, args)
        assert result.exit_code == 0, result.output

    def test_d32_byte_identical_across_workers(self, runner, tmp_path):
        rng = np.random.default_rng(32)
        t = write_matrix(tmp_path / "T.json", random_hermitian(rng, 32).entries)
        d = write_matrix(tmp_path / "D.json", random_density(rng, 32).entries)
        commands = [
            ["verify-trace", t, d, "x^2 - x", "--samples", "140000", "--seed", "4"],
            ["sample", d, "--observable", t, "--samples", "140000", "--seed", "4"],
        ]
        for args in commands:
            serial = runner.invoke(cli, args + ["--workers", "1"])
            parallel = runner.invoke(cli, args + ["--workers", "2"])
            assert serial.exit_code == 0, serial.output
            assert serial.output == parallel.output


class TestSupport:
    def test_identity_all_values_one(self, runner, files):
        result = runner.invoke(cli, ["support", files["identity"], "--samples", "2000", "--rays", "10"])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["pass"] is True
        assert report["results"]["eigenvalues"] == [1.0]
        assert report["results"]["n_outside_spectrum"] == 0

    def test_sign_spectrum(self, runner, files):
        result = runner.invoke(cli, ["support", files["signs"], "--samples", "2000", "--rays", "10"])
        assert result.exit_code == 0
        assert report_of(result)["results"]["eigenvalues"] == [-1.0, 1.0]

    def test_spectrum_wider_than_largest_double(self, runner, tmp_path):
        # the eigenvalue gap 2e308 overflows to inf, which must still split the two eigenvalues
        t = write_matrix(tmp_path / "T.json", [[0.0, 1e308], [1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["support", t, "--samples", "10", "--rays", "2"])
        assert result.exit_code == 0, result.output
        assert report_of(result)["results"]["eigenvalues"] == [-1e308, 1e308]

    def test_repeated_eigenvalue_near_largest_double(self, runner, tmp_path):
        # the cluster sum 1.7e308 + 1.7e308 would overflow; the mean must come back as the eigenvalue
        t = write_matrix(tmp_path / "T.json", np.diag([1.7e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["support", t, "--samples", "10", "--rays", "2"])
        assert result.exit_code == 0, result.output
        assert report_of(result)["results"]["eigenvalues"] == [1.7e308]

    def test_repeated_subnormal_eigenvalue(self, runner, tmp_path):
        # summing the cluster from a copy halved by ldexp would round it to 1.00000000000005e-310
        t = write_matrix(tmp_path / "T.json", np.diag([1e-310, 1e-310]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["support", t, "--samples", "4", "--rays", "2"])
        assert result.exit_code == 0, result.output
        assert report_of(result)["results"]["eigenvalues"] == [1e-310]

    def test_huge_skew_operator_rejected_without_overflow(self, runner, tmp_path):
        # m - m^H would overflow to inf; the skew part is the fault to report
        t = write_matrix(tmp_path / "T.json", [[0.0, 1e308], [-1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["support", t, "--samples", "10", "--rays", "2"])
        assert result.exit_code == 2, result.output
        assert "not Hermitian within tolerance" in result.output

    @pytest.mark.parametrize(
        "diagonal, eigenvalues", [([0.1, 0.1, 0.1], [0.1]), ([0.7, 0.7, 0.7, 0.2], [0.2, 0.7])]
    )
    def test_repeated_eigenvalue_reported_exactly(self, runner, tmp_path, diagonal, eigenvalues):
        # a cluster's sum over its size would round to 0.10000000000000002 and 0.6999999999999998
        t = write_matrix(tmp_path / "T.json", np.diag(diagonal))
        result = runner.invoke(cli, ["support", t, "--samples", "10", "--rays", "2"])
        assert result.exit_code == 0, result.output
        assert report_of(result)["results"]["eigenvalues"] == eigenvalues

    def test_peak_rss_does_not_grow_with_samples(self, tmp_path):
        # one ray's u were drawn in one array of two words a sample: 64 MB at 10^6 samples, 134 MB at 4*10^6.
        # Each run has its own wrapper process, whose RUSAGE_CHILDREN is then that run's peak alone.
        t = write_matrix(tmp_path / "T.json", PAULI_X)
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-W', 'error', '-m', 'hobs', 'support', sys.argv[1],"
            " '--samples', sys.argv[2], '--rays', '1'], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )

        def peak_kb(samples):
            proc = subprocess.run([sys.executable, "-c", wrapper, t, str(samples)], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            return int(proc.stdout)

        small, large = peak_kb(10**6), peak_kb(4 * 10**6)
        assert large * 10 <= small * 11, (small, large)

    def test_inputs_digest_unchanged(self, runner, files):
        result = runner.invoke(cli, ["support", files["signs"], "--samples", "200", "--rays", "10"])
        digest = report_of(result)["inputs_digest"]
        assert digest == "61913a8b3d9787e19f46b17ab5d554f604e0d60c7e5f80314188ebd6b1f6f03e"
        config = digest_config("support", rays=10, samples=200)
        assert digest == documented_digest([files["signs"]], config)


class TestContext:
    def test_diagonal_pair_passes(self, runner, files):
        result = runner.invoke(cli, ["context", files["diag12"], files["diag55"]])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["results"]["branch"] == "context"
        assert report["results"]["transfer_tables"]["member_0"] == {"1": 1.0, "2": 2.0}
        assert report["results"]["max_operator_error"] <= 1e-8

    def test_non_commuting_structured_failure(self, runner, files):
        result = runner.invoke(cli, ["context", files["pauli_x"], files["pauli_z"]])
        assert result.exit_code == 1
        report = report_of(result)
        assert report["pass"] is False
        assert report["results"]["branch"] == "not-commuting"

    def test_huge_entries_do_not_commute(self, runner, files, tmp_path):
        huge = write_matrix(tmp_path / "huge.json", np.diag([1e160, -1e160]))
        result = runner.invoke(cli, ["context", huge, files["pauli_x"]])
        assert result.exit_code == 1, result.output
        assert report_of(result)["results"]["branch"] == "not-commuting"

    def test_huge_commuting_pair_checks_reconstruction_without_overflow(self, runner, files, tmp_path):
        huge = write_matrix(tmp_path / "huge.json", np.diag([1e160, 3.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["context", huge, files["diag12"], "--trials", "2"])
        assert result.exit_code == 0, result.output
        assert report_of(result)["results"]["max_operator_error"] <= 1e-8

    def test_unrepresentable_product_is_input_error(self, runner, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.diag([1e160, 3.0]))
        b = write_matrix(tmp_path / "b.json", np.diag([-1e160, 1e150]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["context", a, b])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            "Error: the product combination of this family is not representable in double precision"
        ]

    def test_repeated_eigenvalue_tables_exact(self, runner, tmp_path):
        t = write_matrix(tmp_path / "T.json", np.diag([0.7, 0.7, 0.7, 0.2]))
        result = runner.invoke(cli, ["context", t, t])
        assert result.exit_code == 0, result.output
        tables = report_of(result)["results"]["transfer_tables"]
        assert tables == {"member_0": {"1": 0.2, "2": 0.7}, "member_1": {"1": 0.2, "2": 0.7}}

    def test_tol_sets_the_operator_side_tolerance(self, runner, tmp_path):
        h = write_matrix(tmp_path / "H.json", random_hermitian(np.random.default_rng(5), 4).entries)
        passed = runner.invoke(cli, ["context", h, h, "--trials", "2"])
        assert passed.exit_code == 0, passed.output
        assert 0.0 < report_of(passed)["results"]["max_operator_error"] <= 1e-8
        strict = runner.invoke(cli, ["context", h, h, "--trials", "2", "--tol", "1e-30"])
        assert strict.exit_code == 1, strict.output
        assert report_of(strict)["pass"] is False

    def test_operator_with_own_square(self, runner, files, tmp_path):
        square = write_matrix(tmp_path / "x_squared.json", PAULI_X @ PAULI_X)
        result = runner.invoke(cli, ["context", files["pauli_x"], square])
        assert result.exit_code == 0

    def test_dimension_mismatch_in_last_file_is_input_error(self, runner, files):
        result = runner.invoke(cli, ["context", files["diag12"], files["diag55"], files["dim3"]])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            f"Error: dimension mismatch: {files['diag12']} is 2x2, {files['dim3']} is 3x3"
        ]

    @pytest.mark.parametrize(
        "command, large, small",
        [
            ("context", [1e9, 1e9, 1.0], [0.0, 1.0, 2.0]),
            ("nogo", [1e9, 1e9, 1.0], [0.0, 1.0, 2.0]),
            ("context", [1e12, 1e12, 1.0], [0.0, 1e-3, 2e-3]),
        ],
        ids=["context-1e9", "nogo-1e9", "context-1e12"],
    )
    def test_members_of_far_apart_scales_split(self, runner, tmp_path, command, large, small):
        # the small member's gaps are below 1e-9 of the large member's spread, so each member is split at its own scale
        a = write_matrix(tmp_path / "a.json", np.diag(large))
        b = write_matrix(tmp_path / "b.json", np.diag(small))
        result = runner.invoke(cli, [command, a, b])
        assert result.exit_code == 0, result.output
        assert report_of(result)["results"]["n_labels"] == 3

    @pytest.mark.parametrize("dim", [3, 6])
    def test_rounding_does_not_split_a_repeated_eigenvalue(self, runner, tmp_path, dim):
        # T = U (1e8 I + diag(0, ..., 0, 0.01)) U^dagger: rounding spreads the (d-1)-fold eigenvalue by up to about
        # 1e-7, far above 1e-9 max(1, spread of T), and below the 1e-12 ||T||_F that validate_hermitian tolerates
        rng = np.random.default_rng(dim)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        m = (q * (1e8 + np.append(np.zeros(dim - 1), 0.01))) @ q.conj().T
        t = write_matrix(tmp_path / "T.json", (m + m.conj().T) / 2)
        result = runner.invoke(cli, ["context", t, t])
        assert result.exit_code == 0, result.output
        assert report_of(result)["results"]["n_labels"] == 2

    def test_near_commuting_pair_is_numeric_failure(self, runner, tmp_path):
        # B = diag(3, 4) + 5e-10 X passes the commutation test with A = diag(1, 2), but the product AB is not
        # Hermitian within 1e-12 of its norm: one line and exit 3, not a traceback and exit 1
        a = write_matrix(tmp_path / "a.json", np.diag([1.0, 2.0]))
        b = write_matrix(tmp_path / "b.json", np.diag([3.0, 4.0]) + 5e-10 * PAULI_X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["context", a, b])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "internal numeric failure: matrix is not Hermitian within tolerance (skew Frobenius norm 1.784e-10)"
        ]

    def test_seed_moves_only_the_homomorphism_check(self, runner, tmp_path):
        rng = np.random.default_rng(9)
        base = random_hermitian(rng, 4).entries
        paths = [write_matrix(tmp_path / "A.json", base), write_matrix(tmp_path / "B.json", base @ base - base)]
        results = [report_of(runner.invoke(cli, ["context", *paths, "--seed", seed]))["results"] for seed in "01"]
        assert results[0]["n_labels"] == results[1]["n_labels"] == 4
        assert results[0]["transfer_tables"] == results[1]["transfer_tables"]

    def test_inputs_digest_unchanged(self, runner, files):
        result = runner.invoke(cli, ["context", files["diag12"], files["diag55"], "--trials", "3"])
        digest = report_of(result)["inputs_digest"]
        assert digest == "6f5e1ef296c264e4e13cc9491511452c08012431ed4272d3b8d3ac9f38d72d17"
        config = digest_config("context", seed=0, tol=1e-8, trials=3)
        assert digest == documented_digest([files["diag12"], files["diag55"]], config)


class TestNogo:
    def test_commuting_branch(self, runner, files):
        result = runner.invoke(cli, ["nogo", files["diag12"], files["diag55"]])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["results"]["branch"] == "commuting"
        assert "transfer_tables" in report["results"]

    def test_pauli_witness(self, runner, files):
        result = runner.invoke(cli, ["nogo", files["pauli_z"], files["pauli_x"], "--search", "256"])
        assert result.exit_code == 0
        report = report_of(result)
        assert report["results"]["branch"] == "witness"
        assert report["results"]["gap"] >= 2.0 - 1e-6
        assert any("shared" in c for c in report["caveats"])
        assert len(report["results"]["witness_ray"]) == 2

    def test_unrepresentable_gap_is_input_error(self, runner, files, tmp_path):
        huge = write_matrix(tmp_path / "huge.json", np.diag([1e160, -1e160]))
        result = runner.invoke(cli, ["nogo", huge, files["pauli_x"], "--search", "16"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            "Error: the second-moment gap of this pair is not representable in double precision"
        ]

    def test_huge_commuting_pair_checks_reconstruction_without_overflow(self, runner, tmp_path):
        a = write_matrix(tmp_path / "a.json", np.diag([1e160, 3.0]))
        b = write_matrix(tmp_path / "b.json", np.diag([-1e160, 1e150]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["nogo", a, b])
        assert result.exit_code == 0, result.output
        assert report_of(result)["results"]["branch"] == "commuting"

    def test_commuting_pair_near_largest_double(self, runner, tmp_path):
        # norms of the unscaled members overflow; each member is refined as a copy scaled by a power of two
        huge = write_matrix(tmp_path / "huge.json", np.diag([1e308, 1e308, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            result = runner.invoke(cli, ["nogo", huge, huge])
        assert result.exit_code == 0, result.output
        results = report_of(result)["results"]
        assert results["branch"] == "commuting" and results["n_labels"] == 2
        assert results["transfer_tables"] == {"member_0": {"1": 1.0, "2": 1e308}, "member_1": {"1": 1.0, "2": 1e308}}

    def test_misjudged_commuting_pair_is_numeric_failure(self, runner, tmp_path):
        # 2^-20 (Z, X) passes the commutation test under its absolute floor, and no joint eigenbasis rebuilds both
        z = write_matrix(tmp_path / "z.json", 2.0**-20 * PAULI_Z)
        x = write_matrix(tmp_path / "x.json", 2.0**-20 * PAULI_X)
        result = runner.invoke(cli, ["nogo", z, x])
        assert result.exit_code == 3, result.output

    def test_same_file_commutes(self, runner, files):
        result = runner.invoke(cli, ["nogo", files["pauli_x"], files["pauli_x"]])
        assert result.exit_code == 0
        assert report_of(result)["results"]["branch"] == "commuting"

    def test_dimension_mismatch_is_input_error(self, runner, files):
        result = runner.invoke(cli, ["nogo", files["pauli_x"], files["dim3"]])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            f"Error: dimension mismatch: {files['pauli_x']} is 2x2, {files['dim3']} is 3x3"
        ]

    def test_inputs_digest_unchanged(self, runner, files):
        result = runner.invoke(cli, ["nogo", files["pauli_z"], files["pauli_x"], "--search", "16", "--seed", "5"])
        digest = report_of(result)["inputs_digest"]
        assert digest == "d6d53242c5ec06ef8a3fb74146c902a6f97e83325ebfa719afb283cca933ecaf"
        config = digest_config("nogo", search=16, seed=5, tol=1e-8)
        assert digest == documented_digest([files["pauli_z"], files["pauli_x"]], config)


def spellings(x):
    """JSON spellings of the float x that parse back to x exactly."""
    sign, digits, exponent = Decimal(repr(x)).as_tuple()
    mantissa = ("-" if sign else "") + "".join(map(str, digits))
    out = [repr(x), f"{x:.17e}", f"{x:.17E}", f"{mantissa}e{exponent}", f"{mantissa}E{exponent:+d}"]
    if x.is_integer() and abs(x) < 2.0**53 and not (x == 0.0 and math.copysign(1.0, x) < 0.0):
        out.append(str(int(x)))  # JSON reads -0 as the integer 0, so -0.0 keeps its fraction
    return out


def digest_of(runner, args):
    result = runner.invoke(cli, args)
    assert result.exit_code in (0, 1), result.output
    return report_of(result)["inputs_digest"]


# Each command's arguments, and a second value for each of its options but --out and --workers:
# every option must change the output at that value (context's --tol 1e-30 fails the operator side).
OPTION_VALUES = {
    "verify-trace": (
        ["{pauli_x}", "{diag37}", "x", "--samples", "1000"],
        {"--samples": "1001", "--seed": "1", "--tol": "1e-7"},
    ),
    "support": (["{signs}", "--samples", "4", "--rays", "2"], {"--samples": "6", "--rays": "3"}),
    "context": (["{hermitian}", "{hermitian}", "--trials", "2"], {"--trials": "3", "--seed": "1", "--tol": "1e-30"}),
    "nogo": (["{pauli_z}", "{pauli_x}", "--search", "16"], {"--search": "4", "--seed": "1", "--tol": "1e-7"}),
    "sample": (["{diag37}", "--samples", "20"], {"--observable": "{pauli_x}", "--samples": "21", "--seed": "1"}),
}
OPTION_PAIRS = [(command, option) for command, (_, values) in OPTION_VALUES.items() for option in values]


def option_args(files, command, extra=()):
    base, _ = OPTION_VALUES[command]
    return [command] + [arg.format(**files) for arg in [*base, *extra]]


def declared_options(command):
    return {opt for param in cli.commands[command].params if isinstance(param, click.Option) for opt in param.opts}


def output_without_digest(runner, args):
    """A run's exit code and output, with a report's inputs_digest removed."""
    result = runner.invoke(cli, args)
    assert result.exit_code in (0, 1), result.output
    if args[0] == "sample":
        return result.exit_code, result.output
    report = report_of(result)
    del report["inputs_digest"]
    return result.exit_code, report


class TestEveryOptionActs:
    def test_every_option_has_a_second_value(self):
        declared = {(command, opt) for command in cli.commands for opt in declared_options(command)}
        assert set(OPTION_PAIRS) == {(command, opt) for command, opt in declared if opt not in ("--out", "--workers")}

    @pytest.mark.parametrize("command, option", OPTION_PAIRS)
    def test_option_changes_output(self, runner, files, command, option):
        value = OPTION_VALUES[command][1][option]
        changed = output_without_digest(runner, option_args(files, command, [option, value]))
        assert output_without_digest(runner, option_args(files, command)) != changed

    @pytest.mark.parametrize(
        "command, option, value",
        [
            ("support", "--seed", "1"),
            ("support", "--tol", "1e-7"),
            ("support", "--gamma", "arg"),
            ("context", "--gamma", "arg"),
            ("nogo", "--gamma", "arg"),
            ("verify-trace", "--gamma", "arg"),
            ("verify-trace", "--gamma", "uniform"),
            ("sample", "--gamma", "arg"),
            ("sample", "--gamma", "uniform"),
            ("sample", "--tol", "1e-7"),
        ],
    )
    def test_deleted_option_is_usage_error(self, runner, files, command, option, value):
        result = runner.invoke(cli, option_args(files, command, [option, value]))
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and option in result.output


class TestInputsDigest:
    @given(data=st.data(), dim=st.integers(1, 3))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_spelling_does_not_change_digest(self, data, dim):
        number = st.one_of(
            st.integers(-1000, 1000).map(float),
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e-6, 1e-6, allow_nan=False),
        )
        m = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            m[j, j] = data.draw(number)
            for k in range(j + 1, dim):
                m[j, k] = complex(data.draw(number), data.draw(number))
                m[k, j] = m[j, k].conjugate()
        separators = [",", ", ", " ,\n\t", "\r\n,  "]

        def spelled(part):
            return data.draw(st.sampled_from(spellings(float(part))))

        def joined(items):
            return "[" + data.draw(st.sampled_from(separators)).join(items) + "]"

        text = joined([joined([joined([spelled(z.real), spelled(z.imag)]) for z in row]) for row in m])
        with tempfile.TemporaryDirectory() as tmp:
            plain = write_matrix(Path(tmp) / "plain.json", m)
            other = Path(tmp) / "spelled.json"
            other.write_text(" \n" + text + "\n")
            runner = CliRunner()
            args = ["--samples", "2", "--rays", "1"]
            assert digest_of(runner, ["support", plain] + args) == digest_of(runner, ["support", str(other)] + args)

    @pytest.mark.parametrize("flat_index", range(8))
    def test_one_ulp_changes_digest(self, runner, files, tmp_path, flat_index):
        pairs = np.array(json.loads(Path(files["diag12"]).read_text()))
        moved = pairs.copy()
        moved.reshape(-1)[flat_index] = np.nextafter(moved.reshape(-1)[flat_index], np.inf)
        path = tmp_path / "moved.json"
        path.write_text(json.dumps(moved.tolist()))
        args = ["--samples", "2", "--rays", "1"]
        assert digest_of(runner, ["support", files["diag12"]] + args) != digest_of(runner, ["support", str(path)] + args)

    @pytest.mark.parametrize(
        "args",
        [
            ["verify-trace", "{diag37}", "{mixed}", "x", "--samples", "100"],
            ["nogo", "{pauli_x}", "{pauli_z}", "--search", "4"],
        ],
    )
    def test_swapped_files_change_digest(self, runner, files, args):
        forward = [arg.format(**files) for arg in args]
        swapped = forward[:1] + forward[2:0:-1] + forward[3:]
        assert digest_of(runner, forward) != digest_of(runner, swapped)

    def test_vector_and_matrix_of_same_numbers_differ(self):
        numbers = np.arange(8.0)
        config = {"command": "test"}
        assert _digest([numbers.reshape(4, 2)], config) != _digest([numbers.reshape(2, 2, 2)], config)

    @pytest.mark.parametrize("command", ["verify-trace", "support", "context", "nogo"])
    def test_every_config_key_changes_digest(self, runner, files, tmp_path, command):
        base = option_args(files, command)
        variants = OPTION_VALUES[command][1].items()
        digests = [digest_of(runner, base)] + [digest_of(runner, base + [opt, value]) for opt, value in variants]
        if command == "verify-trace":
            digests.append(digest_of(runner, base[:3] + ["x^2"] + base[4:]))
        assert len(set(digests)) == len(digests)
        # --workers and --out change no result, so they leave the digest alone
        if "--workers" in declared_options(command):
            assert digest_of(runner, base + ["--workers", "2"]) == digests[0]
        out = tmp_path / "report.json"
        runner.invoke(cli, base + ["--out", str(out)])
        assert json.loads(out.read_text())["inputs_digest"] == digests[0]

    def test_digest_same_across_workers(self, runner, files):
        args = ["verify-trace", files["pauli_x"], files["diag37"], "x^2", "--samples", "100000", "--seed", "3"]
        digests = {digest_of(runner, args + ["--workers", workers]) for workers in ("1", "2")}
        config = digest_config("verify-trace", b="x^2", samples=100000, seed=3, tol=1e-8)
        assert digests == {documented_digest([files["pauli_x"], files["diag37"]], config)}


class TestSample:
    def test_zero_samples_usage_error(self, runner, files):
        result = runner.invoke(cli, ["sample", files["mixed"], "--samples", "0"])
        assert result.exit_code == 2

    def test_pure_state_constant_component(self, runner, files):
        result = runner.invoke(cli, ["sample", files["vector"], "--samples", "50"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "component_index,u,value"
        assert len(lines) == 51
        assert {line.split(",")[0] for line in lines[1:]} == {"0"}

    def test_density_input(self, runner, files):
        result = runner.invoke(cli, ["sample", files["diag37"], "--samples", "100", "--seed", "5"])
        assert result.exit_code == 0
        components = {line.split(",")[0] for line in result.output.splitlines()[1:]}
        assert components == {"0", "1"}

    def test_observable_flag(self, runner, files):
        result = runner.invoke(
            cli, ["sample", files["mixed"], "--observable", files["signs"], "--samples", "200"]
        )
        assert result.exit_code == 0
        values = {line.split(",")[2] for line in result.output.splitlines()[1:]}
        assert values <= {"-1", "1"}

    def test_hermitian_non_density_treated_as_observable(self, runner, files):
        result = runner.invoke(cli, ["sample", files["signs"], "--samples", "100"])
        assert result.exit_code == 0
        values = {line.split(",")[2] for line in result.output.splitlines()[1:]}
        assert values <= {"-1", "1"}

    def test_row_i_is_read_from_words_2i_and_2i_plus_1(self, runner, files):
        # the CSV's layout contract: word 0 of a sample picks its component and word 1 is its u, bit for bit
        result = runner.invoke(cli, ["sample", files["diag37"], "--samples", "3000", "--seed", "13"])
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        words = SampleStream(seed=13).raw_words(0, 3000, np.empty(2 * 3000))
        assert [float(row[1]) for row in rows] == words[:, 1].tolist()
        weights = ensemble_from_density(DensityMatrix(entries=np.diag([0.3, 0.7]))).weights
        components = np.minimum(np.searchsorted(np.cumsum(weights), words[:, 0], side="right"), weights.size - 1)
        assert [int(row[0]) for row in rows] == components.tolist()

    def test_byte_identical_runs_and_workers(self, runner, files):
        args = ["sample", files["diag37"], "--samples", "70000", "--seed", "11"]
        a = runner.invoke(cli, args + ["--workers", "1"]).output
        b = runner.invoke(cli, args + ["--workers", "1"]).output
        c = runner.invoke(cli, args + ["--workers", "4"]).output
        assert a == b == c

    def test_huge_state_vector_is_its_ray(self, runner, tmp_path):
        # the squared norm 2e400 overflows, and a subnormal's needs a scale beyond 2^1023; the ray,
        # its projector and so every row are those of (1, 1)
        unit = write_vector(tmp_path / "unit.json", [1.0, 1.0])
        expected = runner.invoke(cli, ["sample", unit, "--samples", "2000"]).output
        for magnitude in (1e200, 1e-310):
            far = write_vector(tmp_path / "far.json", [magnitude, magnitude])
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # as under python -W error
                result = runner.invoke(cli, ["sample", far, "--samples", "2000"])
            assert result.exit_code == 0, result.output
            assert result.output == expected
            assert len(result.output.splitlines()) == 2001

    def test_zero_state_vector_rejected(self, runner, tmp_path):
        zero = write_vector(tmp_path / "zero.json", [0.0, 0.0])
        result = runner.invoke(cli, ["sample", zero, "--samples", "3"])
        assert result.exit_code == 2
        assert result.output.splitlines() == [f"Error: {zero}: the state vector must be nonzero"]

    def test_out_file(self, runner, files, tmp_path):
        out = tmp_path / "dump.csv"
        result = runner.invoke(cli, ["sample", files["mixed"], "--samples", "10", "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text().startswith("component_index,u,value")

    def test_failed_run_writes_no_out_file(self, runner, files, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise EigensolverFailure("did not converge")

        monkeypatch.setattr("hobs.kernel.spectral_decompose", fail)
        out = tmp_path / "dump.csv"
        result = runner.invoke(cli, ["sample", files["mixed"], "--samples", "10", "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert not out.exists()


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "command",
        [
            ["support", "{identity}", "--samples", "10", "--rays", "2"],
            ["sample", "{mixed}", "--samples", "10"],
        ],
        ids=["support", "sample"],
    )
    def test_out_in_missing_directory_is_input_error(self, runner, files, tmp_path, command):
        out = tmp_path / "missing" / "out.txt"
        result = runner.invoke(cli, [arg.format(**files) for arg in command] + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"Error: cannot write {out}: ")
        assert not out.parent.exists()


class TestUnwritableStdout:
    # a real process: CliRunner's output buffer never fails a write
    @pytest.mark.parametrize(
        "command",
        [
            ["support", "{identity}", "--samples", "10", "--rays", "2"],
            ["sample", "{mixed}", "--samples", "10"],
            ["sample", "{mixed}", "--samples", "200000"],  # four blocks, written one at a time
        ],
        ids=["support", "sample", "sample-blocks"],
    )
    def test_closed_stdout_pipe_is_input_error(self, files, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            args = [sys.executable, "-m", "hobs"] + [arg.format(**files) for arg in command]
            proc = subprocess.run(args, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.decode().startswith("Error: cannot write standard output: ")


class TestInputValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_operator_is_input_error(self, runner, tmp_path, bad):
        path = tmp_path / "T.json"
        path.write_text(json.dumps([[[bad, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]))
        result = runner.invoke(cli, ["support", str(path), "--samples", "100", "--rays", "2"])
        assert result.exit_code == 2
        assert "pass" not in result.output

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_density_is_input_error(self, runner, files, tmp_path, bad):
        path = tmp_path / "D.json"
        path.write_text(json.dumps([[[0.5, 0.0], [0.0, bad]], [[0.0, 0.0], [0.5, 0.0]]]))
        result = runner.invoke(cli, ["verify-trace", files["identity"], str(path), "x", "--samples", "100"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vector_is_input_error(self, runner, tmp_path, bad):
        path = tmp_path / "v.json"
        path.write_text(json.dumps([[1.0, 0.0], [bad, 0.0]]))
        result = runner.invoke(cli, ["sample", str(path), "--samples", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "text",
        [
            '[[["1","0"],["0","0"]],[["0","0"],["2","0"]]]',
            "[[[true,0],[0,0]],[[0,0],[false,0]]]",
            "[[[1,0],[0,0]],[[0,0],[null,0]]]",
        ],
    )
    def test_non_number_entry_is_input_error(self, runner, files, tmp_path, text):
        # NumPy would read "1" as 1.0 and true as 1.0, and the check would pass on them
        path = tmp_path / "T.json"
        path.write_text(text)
        result = runner.invoke(cli, ["verify-trace", str(path), files["mixed"], "x", "--samples", "100"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            f"Error: {path}: entries must be JSON numbers, found a string, true, false or null"
        ]

    def test_integer_beyond_double_range_is_input_error(self, runner, tmp_path):
        path = tmp_path / "T.json"
        path.write_text("[[[1" + "0" * 400 + ",0],[0,0]],[[0,0],[1,0]]]")
        result = runner.invoke(cli, ["support", str(path), "--samples", "10", "--rays", "2"])
        assert result.exit_code == 2, result.output
        assert result.output.splitlines() == [
            f"Error: {path} is not valid JSON: number is infinity when parsed as double: line 1 column 4 (char 3)"
        ]

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(b"[[[01,0],[0,0]],[[0,0],[1,0]]]", id="leading-zero"),
            pytest.param(b"[[[1.,0],[0,0]],[[0,0],[1,0]]]", id="bare-point"),
            pytest.param(b"[[[.5,0],[0,0]],[[0,0],[1,0]]]", id="no-integer-part"),
            pytest.param(b"[[[+1,0],[0,0]],[[0,0],[1,0]]]", id="plus-sign"),
            pytest.param(b"[[[1,0],[0,0],],[[0,0],[1,0]]]", id="trailing-comma"),
            pytest.param(b"\xef\xbb\xbf[[[1,0],[0,0]],[[0,0],[1,0]]]", id="leading-bom"),
            pytest.param(b"[[[1,0],[0,0]],[[0,0],[1,0]]]\x00", id="trailing-nul"),
            pytest.param(b"[[[1,0]]]\xff", id="invalid-utf8"),
            pytest.param(b"[[[NaN,0],[0,0]],[[0,0],[1,0]]]", id="nan"),
            pytest.param(b"[[[Infinity,0],[0,0]],[[0,0],[1,0]]]", id="infinity"),
            pytest.param(b"[[[-Infinity,0],[0,0]],[[0,0],[1,0]]]", id="minus-infinity"),
            pytest.param(b"[[[1e400,0],[0,0]],[[0,0],[1,0]]]", id="overflowing-exponent"),
            pytest.param(b"[[[-1" + b"0" * 400 + b",0],[0,0]],[[0,0],[1,0]]]", id="400-digit-integer"),
            pytest.param(b"[[[1,0],[0,0]],[[0,0]]]", id="ragged-rows"),
            pytest.param(b"[[[1,0],[0,0]],[[0,0],[1]]]", id="ragged-pair"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000-deep"),
        ],
    )
    def test_malformed_json_is_input_error(self, runner, tmp_path, text):
        # each exits 2 with one line; invalid UTF-8 and deep nesting used to end in a traceback with exit 1
        path = tmp_path / "T.json"
        path.write_bytes(text)
        result = runner.invoke(cli, ["support", str(path), "--samples", "10", "--rays", "2"])
        assert result.exit_code == 2, result.output
        [line] = result.output.splitlines()
        assert line.startswith(f"Error: {path}")

    def test_zero_vector_is_input_error(self, runner, tmp_path):
        path = write_vector(tmp_path / "zero.json", [0.0, 0.0])
        result = runner.invoke(cli, ["sample", path, "--samples", "3"])
        assert result.exit_code == 2
        assert "nan" not in result.output


_WHITESPACE = st.text(alphabet=" \t\n\r", max_size=2)
_SUBNORMALS = st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308)


@st.composite
def _number_spelling(draw):
    """One JSON number, spelled as repr, %.17g, %.25e, an integer literal, a signed zero, an underflow or a subnormal."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return draw(
        st.one_of(
            finite.map(repr),
            finite.map(lambda x: "%.17g" % x),
            finite.map(lambda x: "%.25e" % x),
            st.integers(-(10**30), 10**30).map(str),
            st.sampled_from(["-0", "-0e0", "1e-400", "-1e-400"]),
            _SUBNORMALS.map(repr),
            _SUBNORMALS.map(lambda x: "%.25e" % x),
        )
    )


@st.composite
def _number_file(draw):
    """The text of a d x d matrix or d-vector file of [re, im] pairs, with random whitespace between tokens."""
    dim = draw(st.integers(1, 4))
    shape = draw(st.sampled_from([(dim, dim), (dim,)]))

    def token(text):
        return draw(_WHITESPACE) + text + draw(_WHITESPACE)

    def array(items):
        return token("[" + ",".join(items) + "]")

    def pair():
        return array([token(draw(_number_spelling())), token(draw(_number_spelling()))])

    if len(shape) == 1:
        return array([pair() for _ in range(dim)])
    return array([array([pair() for _ in range(dim)]) for _ in range(dim)])


class TestLoaderDifferential:
    """The loader's doubles against the standard library's parser, bit for bit."""

    @given(text=_number_file())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_loaded_pairs_equal_stdlib_parse(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.json"
            path.write_text(text)
            pairs = _load_complex(str(path))[0]
        expected = np.asarray(json.loads(text), dtype=float)
        assert pairs.dtype == expected.dtype and pairs.shape == expected.shape
        assert pairs.tobytes() == expected.tobytes()


class TestLoaderCollector:
    """Parsing an input starts no cyclic collection, so a load costs the same in every call."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_no_collection_and_state_restored(self, tmp_path, enabled):
        path = write_matrix(tmp_path / "m.json", random_hermitian(np.random.default_rng(3), 64).entries)
        collections = []
        gc.callbacks.append(lambda phase, info: collections.append(info["generation"]))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            gc.collect()
            collections.clear()
            pairs = _load_complex(path)[0]
            assert gc.isenabled() is enabled
        finally:
            gc.callbacks.pop()
            (gc.enable if was else gc.disable)()
        assert pairs.shape == (64, 64, 2)
        assert collections == []  # 64 * 64 + 64 lists: about six young collections without the pause

    def test_input_error_restores_the_collector(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[1, 2], [3,")
        assert gc.isenabled()
        with pytest.raises(click.ClickException, match="not valid JSON"):
            _load_complex(str(path))
        assert gc.isenabled()


def _corrupt(path, flat_index, part, bad):
    """Overwrite one real or imaginary part of the JSON pairs file at path with bad."""
    data = np.array(json.loads(Path(path).read_text()))
    pairs = data.reshape(-1, 2)
    pairs[flat_index % len(pairs), part] = bad
    Path(path).write_text(json.dumps(data.tolist()))


# each subcommand with the names of the input files it reads
NON_FINITE_CASES = [
    (["verify-trace", "{T}", "{D}", "x", "--samples", "100"], ["T", "D"]),
    (["support", "{T}", "--samples", "100", "--rays", "2"], ["T"]),
    (["context", "{T}", "{T2}"], ["T", "T2"]),
    (["nogo", "{T}", "{D}", "--search", "4"], ["T", "D"]),
    (["sample", "{v}", "--samples", "10"], ["v"]),
    (["sample", "{D}", "--observable", "{T}", "--samples", "10"], ["D", "T"]),
]


def _write_inputs(directory, rng, dim, scale=1.0, shift=0.0):
    T = scale * random_hermitian(rng, dim).entries + shift * np.eye(dim)
    return {
        "T": write_matrix(directory / "T.json", T),
        "T2": write_matrix(directory / "T2.json", T @ T - T),
        "D": write_matrix(directory / "D.json", random_density(rng, dim).entries),
        "v": write_vector(directory / "v.json", rng.normal(size=dim) + 1j * rng.normal(size=dim)),
    }


class TestNonFiniteInputProperty:
    @given(
        case=st.sampled_from(NON_FINITE_CASES),
        slot=st.integers(0, 1),
        flat_index=st.integers(0, 63),
        part=st.integers(0, 1),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
        dim=st.integers(2, 4),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_non_finite_entry_exits_two(self, case, slot, flat_index, part, bad, dim):
        template, names = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = _write_inputs(Path(tmp), np.random.default_rng(dim), dim)
            _corrupt(paths[names[slot % len(names)]], flat_index, part, bad)
            result = CliRunner().invoke(cli, [arg.format(**paths) for arg in template])
        assert result.exit_code == 2, result.output


class TestStrictJson:
    def test_every_report_parses_strictly(self, runner, files):
        invocations = [
            ["verify-trace", files["pauli_x"], files["diag37"], "x^2 - x", "--samples", "1000"],
            ["support", files["pauli_x"], "--samples", "100", "--rays", "5"],
            ["context", files["signs"], files["diag12"]],
            ["nogo", files["pauli_x"], files["pauli_z"], "--search", "64"],
            ["nogo", files["signs"], files["diag12"]],
        ]
        for args in invocations:
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, result.output
            assert strict_report(result.output)["pass"] is True

    @given(
        dim=st.integers(2, 4),
        scale_exponent=st.integers(-8, 8),
        shift=st.sampled_from([0.0, -1e8, 1e8]),
        expression=st.sampled_from(["x", "x^2 - x", "clamp(-1, 1) + step(0)", "x^3 - abs(x)"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_reports_parse_strictly_on_random_inputs(self, dim, scale_exponent, shift, expression, seed):
        with tempfile.TemporaryDirectory() as tmp:
            paths = _write_inputs(Path(tmp), np.random.default_rng(seed), dim, 10.0**scale_exponent, shift)
            reports = [
                ["verify-trace", paths["T"], paths["D"], expression, "--samples", "500", "--seed", str(seed)],
                ["support", paths["T"], "--samples", "100", "--rays", "4"],
                ["context", paths["T"], paths["T2"]],
                ["context", paths["T"], paths["D"]],
                ["nogo", paths["T"], paths["T2"]],
                ["nogo", paths["T"], paths["D"], "--search", "8"],
            ]
            for args in reports:
                result = CliRunner().invoke(cli, args)
                if result.exit_code != 3:  # an internal numeric failure writes no report
                    assert result.exit_code in (0, 1), result.output
                    assert isinstance(strict_report(result.output)["pass"], bool)
            result = CliRunner().invoke(cli, ["sample", paths["D"], "--observable", paths["T"], "--samples", "50"])
            assert result.exit_code == 0, result.output
            rows = [line.split(",") for line in result.output.splitlines()[1:]]
            assert all(math.isfinite(float(field)) for row in rows for field in row)

    def test_non_finite_statistic_becomes_null_with_caveat(self, tmp_path):
        out = tmp_path / "report.json"
        _emit_report("verify-trace", "0" * 64, {"mc_z_score": math.inf, "trace": 1.0}, True, ["given"], str(out))
        report = strict_report(out.read_text())
        assert report["results"] == {"mc_z_score": None, "trace": 1.0}
        assert report["caveats"][0] == "given"
        assert "results.mc_z_score" in report["caveats"][1]


class TestExitCodes:
    def test_internal_numeric_failure_is_exit_three(self):
        from hobs import EigensolverFailure
        from hobs.cli import _numeric_guard

        def boom():
            raise EigensolverFailure("did not converge")

        with pytest.raises(SystemExit) as err:
            _numeric_guard(boom)
        assert err.value.code == 3

    def test_memory_exhaustion_is_exit_three(self, runner, files, monkeypatch):
        # numpy's _ArrayMemoryError is a MemoryError: one line and exit 3, not a traceback and exit 1
        message = "Unable to allocate 142. PiB for an array with shape (10000000000000000, 2) and data type float64"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("hobs.cli.spectral_support_check", exhausted)
        result = runner.invoke(cli, ["support", files["identity"], "--samples", "10", "--rays", "2"])
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"internal numeric failure: {message}"]

    @pytest.mark.parametrize("error, code", [
        (EvaluationError("log of 0"), 2),
        (NonFiniteInput("NaN entry"), 2),
        (HermiticityViolation("skew part"), 3),
        (ZeroInput("zero ray"), 3),
        (NotAProjector("not idempotent"), 3),
    ])
    def test_input_errors_first_then_any_hobs_error_is_exit_three(self, error, code):
        from hobs.cli import _numeric_guard

        def boom():
            raise error

        with pytest.raises((SystemExit, click.ClickException)) as err:
            _numeric_guard(boom)
        exit_code = err.value.code if isinstance(err.value, SystemExit) else err.value.exit_code
        assert exit_code == code


class TestConfigValidation:
    @pytest.mark.parametrize(
        "args",
        [["verify-trace", "{identity}", "{mixed}", "x", "--samples", "100"], ["context", "{identity}"], ["nogo", "{pauli_x}", "{pauli_z}"]],
    )
    def test_negative_tolerance_rejected(self, runner, files, args):
        result = runner.invoke(cli, [arg.format(**files) for arg in args] + ["--tol", "-1"])
        assert result.exit_code == 2, result.output
        assert "-1.0 is not finite and positive" in result.output

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "args",
        [
            ["verify-trace", "{identity}", "{mixed}", "x", "--samples", "100"],
            ["context", "{identity}"],
            ["nogo", "{pauli_x}", "{pauli_z}", "--search", "4"],
        ],
    )
    def test_non_finite_tolerance_rejected(self, runner, files, args, bad):
        result = runner.invoke(cli, [arg.format(**files) for arg in args] + ["--tol", bad])
        assert result.exit_code == 2, result.output
        assert "is not finite and positive" in result.output

    @pytest.mark.parametrize("bad", ["-3", "0"])
    @pytest.mark.parametrize(
        "args",
        [["context", "{diag12}", "{diag55}", "--trials"], ["nogo", "{pauli_x}", "{pauli_z}", "--search"]],
    )
    def test_trials_and_search_below_one_rejected(self, runner, files, args, bad):
        result = runner.invoke(cli, [arg.format(**files) for arg in args] + [bad])
        assert result.exit_code == 2, result.output
        assert args[-1] in result.output

    def test_samples_below_two_rejected_for_mc(self, runner, files):
        result = runner.invoke(cli, ["verify-trace", files["identity"], files["mixed"], "x", "--samples", "1"])
        assert result.exit_code == 2
